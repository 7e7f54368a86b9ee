"""Reference operators assembled independently of the package's kernels."""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp


def _dirichlet_lap_1d(m: int, h: float, offset: bool) -> sp.csr_matrix:
    """1D -d2/dx2 with homogeneous Dirichlet ends.

    offset=True: samples sit h/2 inside the wall (ghost reflection, end
    diagonal 3/h^2). offset=False: samples are interior lattice points with
    the wall value one spacing away (standard 2/h^2 diagonal).
    """
    main = np.full(m, 2.0 / h**2)
    if offset:
        main[0] = main[-1] = 3.0 / h**2
    off = np.full(m - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


@lru_cache(maxsize=32)
def dirichlet_laplacian(grid, which: str) -> sp.csr_matrix:
    """-Laplace with homogeneous Dirichlet walls on a sample lattice.

    which = "cell" (nx x ny), "u" (interior u faces (nx-1) x ny) or
    "v" (nx x (ny-1)).
    """
    if which == "cell":
        lx = _dirichlet_lap_1d(grid.nx, grid.hx, offset=True)
        ly = _dirichlet_lap_1d(grid.ny, grid.hy, offset=True)
    elif which == "u":
        lx = _dirichlet_lap_1d(grid.nx - 1, grid.hx, offset=False)
        ly = _dirichlet_lap_1d(grid.ny, grid.hy, offset=True)
    elif which == "v":
        lx = _dirichlet_lap_1d(grid.nx, grid.hx, offset=True)
        ly = _dirichlet_lap_1d(grid.ny - 1, grid.hy, offset=False)
    else:
        raise ValueError(f"unknown lattice {which!r}")
    ix = sp.identity(lx.shape[0], format="csr")
    iy = sp.identity(ly.shape[0], format="csr")
    return (sp.kron(lx, iy) + sp.kron(ix, ly)).tocsr()
