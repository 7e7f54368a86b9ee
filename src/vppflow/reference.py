"""Monolithic coupled reference step, solved densely.

One implicit step of the penalized momentum equation with the exact
incompressibility constraint, as a saddle-point system in (v, p) plus a
scalar multiplier pinning the pressure mean:

    [ A   G   0 ] [v]   [f + v^n/dt + chi/eta v_s]
    [ D   0   e ] [p] = [0]
    [ 0  a^T   0 ] [g]   [0]

A is the same discrete momentum operator the split scheme assembles, G and
D the packed gradient/divergence. A dense Gaussian elimination keeps this
path free of the iterative solvers' failure modes; it is written with
numpy ufuncs and einsum, so no BLAS or LAPACK routine runs and its result
does not depend on the BLAS thread count. Grids above 16x16 are rejected.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .grid import PressureField, VelocityField
from .obstacle import ObstacleFrame

MAX_CELLS = 16 * 16     # the dense elimination is O(n^3) in the unknowns


def solve_dense(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat x = rhs by Gaussian elimination with partial pivoting.

    Rank-1 updates are ufunc outer products and the back-substitution
    sums are einsums, so no BLAS or LAPACK routine runs. An exactly zero
    pivot raises np.linalg.LinAlgError.
    """
    n = rhs.shape[0]
    a = np.concatenate([mat, rhs[:, None]], axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise np.linalg.LinAlgError(f"singular matrix: zero pivot in column {k}")
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
        a[k + 1:, k:] -= np.multiply.outer(a[k + 1:, k] / a[k, k], a[k, k:])
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (a[k, n] - np.einsum("i,i->", a[k, k + 1:n], x[k + 1:])) / a[k, k]
    return x


def coupled_step(v_prev: VelocityField, forcing: VelocityField, obstacle, params):
    """Solve the fully coupled first step, from t = 0; returns (v_new, p_new).

    forcing is the body force at t = dt, where the obstacle indicator and
    solid velocity are evaluated too. The previous pressure does not enter:
    the pressure unknown here is the full p^{n+1}.
    """
    grid = v_prev.grid
    if grid.ncells > MAX_CELLS:
        raise ValueError(f"coupled oracle restricted to {MAX_CELLS} cells, "
                         f"got {grid.ncells}")
    layout = linalg.face_layout(grid)
    n = layout.n
    nc = grid.ncells

    frame = ObstacleFrame.sample(obstacle, params.dt, grid)
    a = linalg.assemble_prediction(linalg.PredictionBuffers(grid, params), v_prev,
                                   frame and frame.chi)

    size = n + nc + 1
    mat = np.zeros((size, size))
    mat[:n, :n] = a.toarray()
    # row k of a stencil applied to an identity block is its column k
    mat[:n, n:n + nc] = linalg.apply_gradient(grid, np.eye(nc)).T
    mat[n:n + nc, :n] = linalg.apply_divergence(grid, np.eye(n)).T
    mat[n:n + nc, -1] = 1.0
    mat[-1, n:n + nc] = grid.cell_area

    rhs_field = forcing + (1.0 / params.dt) * v_prev
    rhs = np.zeros(size)
    rhs[:n] = layout.pack(rhs_field)
    if frame is not None:
        rhs[:n] += layout.pack(frame.chi) * layout.pack(frame.vs) / params.eta

    sol = solve_dense(mat, rhs)
    v_new = layout.unpack(sol[:n])
    p_new = PressureField(grid, sol[n:n + nc].reshape(grid.shape_p)).project_mean_zero()
    return v_new, p_new
