"""Reference operators, fields and solvers, independent of the package's kernels."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from vppflow import linalg, manufactured
from vppflow.grid import VelocityField
from vppflow.linalg import Csr, NonConvergence


# ----------------------------------------------------------------------
# scipy views of the package's operators, and the operators it no longer builds
# ----------------------------------------------------------------------

def to_scipy(a: Csr) -> sp.csr_matrix:
    """The same matrix as a scipy CSR matrix, on copies of the arrays."""
    return sp.csr_matrix((a.data.copy(), a.indices.copy(), a.indptr.copy()), shape=a.shape)


def from_scipy(m) -> Csr:
    """The package's Csr of a scipy sparse matrix, on copies of its CSR arrays."""
    m = sp.csr_matrix(m)
    return Csr(m.indptr.copy(), m.indices.copy(), m.data.copy(), m.shape)


def strain_energy_matrix(grid) -> Csr:
    """Positive semi-definite matrix S with x^T S x = 2|exx|^2 + 2|eyy|^2 + |gamma|^2.

    The viscous operator -div(2 mu D(.)) on the packed unknowns is mu * S.
    exx = du/dx and eyy = dv/dy live on cells, gamma = du/dy + dv/dx on
    nodes; wall nodes reflect a ghost value (doubling the wall coefficient)
    and count half in the trapezoidal node quadrature, corners a quarter,
    which reproduces the matrix-free stencil of div(2 mu D(v)). The rows
    are those linalg._write_strain writes into every prediction operator,
    on the 9-slot pattern they share; each call writes fresh data.
    """
    data = np.empty(9 * linalg.face_layout(grid).n)
    linalg._write_strain(grid, data)
    return linalg._nine_slot_csr(grid, data)


def u_index(layout, i, j):
    """Packed index of interior u face (i = 1..nx-1)."""
    return (i - 1) * layout.grid.ny + j


def v_index(layout, i, j):
    """Packed index of interior v face (j = 1..ny-1)."""
    return layout.nu + i * (layout.grid.ny - 1) + (j - 1)


def divergence_coo(grid) -> sp.csr_matrix:
    """The cells x faces divergence assembled as COO triplets, one face set
    at a time, and canonicalized by scipy: the reference for
    divergence_matrix."""
    layout = linalg.face_layout(grid)
    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    cell = (ii * grid.ny + jj).ravel()
    ii, jj = ii.ravel(), jj.ravel()
    rows, cols, vals = [], [], []
    for keep, col, val in (
            (ii + 1 <= grid.nx - 1, u_index(layout, ii + 1, jj), 1.0 / grid.hx),
            (ii >= 1, u_index(layout, ii, jj), -1.0 / grid.hx),
            (jj + 1 <= grid.ny - 1, v_index(layout, ii, jj + 1), 1.0 / grid.hy),
            (jj >= 1, v_index(layout, ii, jj), -1.0 / grid.hy)):
        rows.append(cell[keep])
        cols.append(col[keep])
        vals.append(np.full(keep.sum(), val))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.ncells, layout.n)).tocsr()


@lru_cache(maxsize=32)
def divergence_matrix(grid) -> Csr:
    """Cells x faces divergence over the packed interior unknowns, as a
    Csr: the reference for linalg.apply_divergence.

    Row (i, j) holds its u-west, u-east, v-south and v-north faces with
    -1/hx, 1/hx, -1/hy and 1/hy, which is increasing column order; a wall
    face is not an unknown and is dropped. Written in closed form: indptr
    from the row counts, then each face set into the next free slot of its
    rows.
    """
    layout = linalg.face_layout(grid)
    nx, ny = grid.nx, grid.ny
    indptr = np.empty(grid.ncells + 1, dtype=np.int32)
    indptr[0] = 0
    count = indptr[1:].reshape(nx, ny)
    count[...] = 4
    count[[0, -1], :] -= 1
    count[:, [0, -1]] -= 1
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    free = indptr[:-1].reshape(nx, ny).copy()
    ru = np.arange(layout.nu, dtype=np.int32).reshape(nx - 1, ny)
    rv = np.arange(layout.nu, layout.n, dtype=np.int32).reshape(nx, ny - 1)
    # the cells that have the face, its packed indices and its entry
    for cells, faces, value in ((np.s_[1:, :], ru, -1.0 / grid.hx),     # u west
                                (np.s_[:-1, :], ru, 1.0 / grid.hx),     # u east
                                (np.s_[:, 1:], rv, -1.0 / grid.hy),     # v south
                                (np.s_[:, :-1], rv, 1.0 / grid.hy)):    # v north
        slot = free[cells]
        indices[slot] = faces
        data[slot] = value
        slot += 1
    return Csr(indptr, indices, data, (grid.ncells, layout.n))


@lru_cache(maxsize=32)
def gradient_matrix(grid) -> Csr:
    """Faces x cells gradient, exactly -divergence_matrix^T, as a Csr: the
    reference for linalg.apply_gradient.

    Every interior face lies between two cells, so each row holds two
    entries in closed form: a u face -1/hx on its west cell and 1/hx on its
    east one, a v face -1/hy on its south cell and 1/hy on its north one,
    which is increasing column order.
    """
    layout = linalg.face_layout(grid)
    nx, ny, nu = grid.nx, grid.ny, layout.nu
    cells = np.arange(grid.ncells, dtype=np.int32).reshape(nx, ny)
    indices = np.empty(2 * layout.n, dtype=np.int32)
    data = np.empty(2 * layout.n)
    iu = indices[:2 * nu].reshape(nx - 1, ny, 2)
    iv = indices[2 * nu:].reshape(nx, ny - 1, 2)
    iu[..., 0], iu[..., 1] = cells[:-1, :], cells[1:, :]
    iv[..., 0], iv[..., 1] = cells[:, :-1], cells[:, 1:]
    data[:2 * nu].reshape(nu, 2)[...] = (-1.0 / grid.hx, 1.0 / grid.hx)
    data[2 * nu:].reshape(-1, 2)[...] = (-1.0 / grid.hy, 1.0 / grid.hy)
    return Csr(np.arange(0, 2 * layout.n + 1, 2, dtype=np.int32), indices, data,
               (layout.n, grid.ncells))


def _index_grids(layout):
    """Packed indices of the u faces on an (nx+1, ny+2) array and of the v
    faces on an (nx+2, ny+1) array: u(i, j) sits at [i, j+1] and v(i, j) at
    [i+1, j]. Boundary faces and the ring outside the walls hold -1."""
    g = layout.grid
    uidx = np.full((g.nx + 1, g.ny + 2), -1, dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(1, g.nx), np.arange(g.ny), indexing="ij")
    uidx[1:-1, 1:-1] = u_index(layout, ii, jj)
    vidx = np.full((g.nx + 2, g.ny + 1), -1, dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(g.nx), np.arange(1, g.ny), indexing="ij")
    vidx[1:-1, 1:-1] = v_index(layout, ii, jj)
    return uidx, vidx


def strain_energy_reference(grid) -> Csr:
    """strain_energy_matrix built from padded index grids: each row's
    nine columns stacked from shifted int64 index arrays, a missing
    neighbour (-1) replaced by the row's own column, and the data zeroed
    there; the reference for the in-place build."""
    layout = linalg.face_layout(grid)
    nx, ny = grid.nx, grid.ny
    uidx, vidx = _index_grids(layout)
    cols_u = np.stack([uidx[:-2, 1:-1], uidx[1:-1, :-2], uidx[1:-1, 1:-1],
                       uidx[1:-1, 2:], uidx[2:, 1:-1],
                       vidx[1:-2, :-1], vidx[1:-2, 1:], vidx[2:-1, :-1], vidx[2:-1, 1:]], axis=-1)
    cols_v = np.stack([uidx[:-1, 1:-2], uidx[:-1, 2:-1], uidx[1:, 1:-2], uidx[1:, 2:-1],
                       vidx[:-2, 1:-1], vidx[1:-1, :-2], vidx[1:-1, 1:-1],
                       vidx[1:-1, 2:], vidx[2:, 1:-1]], axis=-1)
    cols = np.concatenate([cols_u.reshape(-1, 9), cols_v.reshape(-1, 9)])
    present = cols >= 0
    cols = np.where(present, cols, np.arange(layout.n)[:, None])

    a, b, c = linalg._strain_coefficients(grid)
    nu = layout.nu
    data = np.empty((layout.n, 9))
    su = data[:nu].reshape(nx - 1, ny, 9)
    sv = data[nu:].reshape(nx, ny - 1, 9)
    su[...] = [-2.0 * a, -b, 0.0, -b, -2.0 * a, -c, c, c, -c]
    sv[...] = [-c, c, c, -c, -a, -2.0 * b, 0.0, -2.0 * b, -a]
    gu = np.full(ny, 2.0 * b)
    gu[[0, -1]] = 3.0 * b
    gv = np.full((nx, 1), 2.0 * a)
    gv[[0, -1]] = 3.0 * a
    su[..., 2] = 4.0 * a + gu
    sv[..., 6] = 4.0 * b + gv
    data[~present] = 0.0
    return Csr(9 * np.arange(layout.n + 1, dtype=np.int32), cols.reshape(-1).astype(np.int32),
               data.reshape(-1), (layout.n, layout.n))


def convection_matrix(grid, vel_prev: VelocityField) -> Csr:
    """The skew-symmetric linearized convection C of the prediction
    operator, alone, on the pattern of strain_energy_matrix: +-k
    added into a zero array, one strided slot plane at a time. The
    prediction operator writes mu S + C into those planes instead."""
    s = strain_energy_matrix(grid)
    data = np.zeros(s.data.shape)
    nu = (grid.nx - 1) * grid.ny
    cu = data[:9 * nu].reshape(grid.nx - 1, grid.ny, 9)
    cv = data[9 * nu:].reshape(grid.nx, grid.ny - 1, 9)
    hx, hy = grid.hx, grid.hy
    up, vp = vel_prev.u, vel_prev.v
    uc = 0.5 * (up[:-1, :] + up[1:, :])     # advecting u at cells
    vc = 0.5 * (vp[:, :-1] + vp[:, 1:])     # advecting v at cells
    vn = 0.5 * (vp[:-1, :] + vp[1:, :])     # advecting v at nodes, i = 1..nx-1
    un = 0.5 * (up[:, :-1] + up[:, 1:])     # advecting u at nodes, j = 1..ny-1
    k = uc[1:-1, :] / (2 * hx)              # u east, through the cells
    cu[:-1, :, 4] += k
    cu[1:, :, 0] -= k
    k = vn[:, 1:-1] / (2 * hy)              # u north, through the nodes
    cu[:, :-1, 3] += k
    cu[:, 1:, 1] -= k
    k = vc[:, 1:-1] / (2 * hy)              # v north, through the cells
    cv[:, :-1, 7] += k
    cv[:, 1:, 5] -= k
    k = un[1:-1, :] / (2 * hx)              # v east, through the nodes
    cv[:-1, :, 8] += k
    cv[1:, :, 4] -= k
    return dataclasses.replace(s, data=data)


def assemble_correction(grid, params) -> sp.csr_matrix:
    """SPD operator (eps/dt) I - grad(div(.)) of the velocity correction,
    the matrix that linalg.solve_correction inverts exactly."""
    if params.epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {params.epsilon}")
    d = to_scipy(divergence_matrix(grid))
    a = (sp.diags(np.full(d.shape[1], params.epsilon / params.dt)) + d.T @ d).tocsr()
    a.eliminate_zeros()
    return a


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


# ----------------------------------------------------------------------
# Test-only fields and stencils
# ----------------------------------------------------------------------

def _shear_at_nodes(vel: VelocityField) -> np.ndarray:
    """du/dy + dv/dx at all (nx+1)x(ny+1) nodes, Dirichlet ghosts.

    At wall nodes the one-sided difference (value - (-value))/h realizes
    the reflected ghost of a no-slip wall.
    """
    g = vel.grid
    nx, ny = g.nx, g.ny
    dudy = np.empty((nx + 1, ny + 1))
    dudy[:, 1:ny] = (vel.u[:, 1:] - vel.u[:, :-1]) / g.hy
    dudy[:, 0] = 2.0 * vel.u[:, 0] / g.hy
    dudy[:, ny] = -2.0 * vel.u[:, ny - 1] / g.hy
    dvdx = np.empty((nx + 1, ny + 1))
    dvdx[1:nx, :] = (vel.v[1:, :] - vel.v[:-1, :]) / g.hx
    dvdx[0, :] = 2.0 * vel.v[0, :] / g.hx
    dvdx[nx, :] = -2.0 * vel.v[nx - 1, :] / g.hx
    return dudy + dvdx


def strain_divergence(vel: VelocityField, mu: float) -> VelocityField:
    """Matrix-free div(2 mu D(v)) for a field with homogeneous Dirichlet
    walls, the stencil that -mu strain_energy_matrix reproduces.

    Normal strains live at cell centers, the shear du/dy + dv/dx at nodes.
    The result is zero on boundary faces (those rows are eliminated).
    """
    g = vel.grid
    nx, ny = g.nx, g.ny
    exx = (vel.u[1:, :] - vel.u[:-1, :]) / g.hx          # (nx, ny)
    eyy = (vel.v[:, 1:] - vel.v[:, :-1]) / g.hy          # (nx, ny)
    gam = _shear_at_nodes(vel)                           # (nx+1, ny+1)

    ru = np.zeros(g.shape_u)
    rv = np.zeros(g.shape_v)
    ru[1:nx, :] = (
        2.0 * mu * (exx[1:, :] - exx[:-1, :]) / g.hx
        + mu * (gam[1:nx, 1:] - gam[1:nx, :-1]) / g.hy
    )
    rv[:, 1:ny] = (
        2.0 * mu * (eyy[:, 1:] - eyy[:, :-1]) / g.hy
        + mu * (gam[1:, 1:ny] - gam[:-1, 1:ny]) / g.hx
    )
    return VelocityField(g, ru, rv)


def taylor_green(t: float, grid, mu: float):
    """Velocity, pressure and the (identically zero) forcing of the
    manufactured vortex at time t."""
    vel = manufactured.taylor_green_velocity(t, grid, mu)
    p = manufactured.taylor_green_pressure(t, grid, mu)
    return vel, p, VelocityField.zeros(grid)


def taylor_green_forcing(t: float, grid, mu: float) -> VelocityField:
    """Forcing that makes the vortex an exact solution: zero everywhere."""
    manufactured.require_unit_square(grid)
    return VelocityField.zeros(grid)


# ----------------------------------------------------------------------
# Reference BiCGStab: the allocate-per-iteration form, on a @ x
# ----------------------------------------------------------------------

def _dot(a, b):
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def jacobi_bicgstab(a, b, rtol, max_iter, x0=None):
    """linalg._bicgstab on any float64 Csr a, with the Jacobi inverse of a's
    diagonal and a work block of its own: the solve of a system that no
    linalg.PredictionBuffers hold. Returns (x, iterations)."""
    minv = linalg._jacobi(to_scipy(a).diagonal())
    return linalg._bicgstab(a, b, rtol, max_iter, x0, minv, np.empty((4, b.shape[0])))


def _require_finite(norm_r, iterations):
    if not math.isfinite(norm_r):
        raise NonConvergence("BiCGStab residual is not finite", norm_r, iterations)


def bicgstab(a, b, rtol, max_iter, x0=None, events=None):
    """Jacobi-preconditioned BiCGStab with fresh vectors on every update,
    the reference for linalg.solve; returns (x, iterations). If events is a
    list, "s_exit" is appended each time the half-step residual s meets the
    tolerance and "restart" each time the recursive residual met it but the
    true residual did not. A residual norm that is not finite raises
    NonConvergence at once."""
    events = [] if events is None else events
    norm_b = _norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0
    _require_finite(norm_b, 0)
    tol = rtol * norm_b
    d = a.diagonal()
    minv = 1.0 / np.where(np.abs(d) > 0, d, 1.0)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - a @ x if x0 is not None else b.copy()
    if _norm(r) <= tol:
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for k in range(1, max_iter + 1):
        rho_new = _dot(r_hat, r)
        if abs(rho_new) < 1e-300:
            raise NonConvergence("BiCGStab breakdown (rho ~ 0)", _norm(r), k)
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = minv * p
        v = a @ p_hat
        denom = _dot(r_hat, v)
        if abs(denom) < 1e-300:
            raise NonConvergence("BiCGStab breakdown (r_hat . v ~ 0)",
                                 _norm(r), k)
        alpha = rho_new / denom
        s = r - alpha * v
        _require_finite(_norm(s), k)
        if _norm(s) <= tol:
            events.append("s_exit")
            x = x + alpha * p_hat
            r_true = b - a @ x
            if _norm(r_true) <= tol:
                return x, k
            events.append("restart")
            r = r_true
        else:
            s_hat = minv * s
            t = a @ s_hat
            tt = _dot(t, t)
            if tt == 0.0:
                raise NonConvergence("BiCGStab breakdown (t = 0)", _norm(s), k)
            omega = _dot(t, s) / tt
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            _require_finite(_norm(r), k)
            if _norm(r) <= tol:
                r_true = b - a @ x
                if _norm(r_true) <= tol:
                    return x, k
                events.append("restart")
                r = r_true
        rho = rho_new
    raise NonConvergence("BiCGStab did not converge",
                         _norm(b - a @ x), max_iter)
