"""Matrix-free discrete differential operators on the MAC grid.

All stencils are second-order central differences. Boundary closures:

* divergence needs no ghosts (normal faces lie on the boundary),
* gradient is set to zero on boundary faces, which makes it the exact
  negative adjoint of divergence for fields with zero normal boundary
  velocity,
* tangential ghost values use reflection (ghost = -inside), realizing a
  homogeneous Dirichlet wall at distance h/2,
* curl is returned on interior nodes only, where its stencil is complete;
  this keeps curl(gradient(p)) exactly zero.
"""

from __future__ import annotations

import numpy as np

from .grid import PressureField, VelocityField


def divergence(vel: VelocityField) -> PressureField:
    """Cell-centered divergence: sum of face fluxes over the cell area."""
    g = vel.grid
    d = (vel.u[1:, :] - vel.u[:-1, :]) / g.hx + (vel.v[:, 1:] - vel.v[:, :-1]) / g.hy
    return PressureField(g, d)


def gradient(p: PressureField) -> VelocityField:
    """Face-centered gradient of a cell field, zero on boundary faces."""
    g = p.grid
    gu = np.zeros(g.shape_u)
    gv = np.zeros(g.shape_v)
    gu[1:-1, :] = (p.p[1:, :] - p.p[:-1, :]) / g.hx
    gv[:, 1:-1] = (p.p[:, 1:] - p.p[:, :-1]) / g.hy
    return VelocityField(g, gu, gv)


def curl(vel: VelocityField) -> np.ndarray:
    """dv/dx - du/dy at interior grid nodes, shape (nx-1, ny-1)."""
    g = vel.grid
    dvdx = (vel.v[1:, 1:-1] - vel.v[:-1, 1:-1]) / g.hx
    dudy = (vel.u[1:-1, 1:] - vel.u[1:-1, :-1]) / g.hy
    return dvdx - dudy


def inner(a: VelocityField, b: VelocityField) -> float:
    """L2 inner product of two velocity fields (boundary faces half weight)."""
    g = a.grid
    wu = g.u_face_weights()
    wv = g.v_face_weights()
    return float((wu * a.u * b.u).sum() + (wv * a.v * b.v).sum())


def cell_inner(a: PressureField, b: PressureField) -> float:
    """L2 inner product of two cell fields."""
    return float(a.grid.cell_area * (a.p * b.p).sum())


def velocity_at_cell_centers(vel: VelocityField) -> tuple[np.ndarray, np.ndarray]:
    """Average face samples to cell centers, shapes (nx, ny)."""
    uc = 0.5 * (vel.u[1:, :] + vel.u[:-1, :])
    vc = 0.5 * (vel.v[:, 1:] + vel.v[:, :-1])
    return uc, vc
