"""Moving rigid obstacle: indicator sampling and solid velocity.

The obstacle is a disk on a prescribed trajectory (uniform translation
plus rigid rotation about its own center); Obstacle.rigid_velocity is the
one rigid-body formula. The indicator can be sampled binary (1 where the
cell center is inside) or as the covered area fraction of each cell,
4x4-subsampled in the cells the circle may cross; both modes are also
offered at velocity faces for the penalization term, where the fraction
mode averages the two adjacent cell fractions.
An ObstacleFrame holds every obstacle sample of one step (face indicator,
solid velocity, boundary band and the rigid velocity on it), taken once,
for the prediction and all of that step's diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, VelocityField, require_finite


@dataclass(frozen=True)
class Obstacle:
    """Rigid disk with trajectory c(t) = center + velocity * t."""

    radius: float
    center: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    omega: float = 0.0                  # angular velocity about the center
    chi_mode: str = "binary"            # "binary" or "fraction"

    def __post_init__(self):
        require_finite({"radius": self.radius, "center": self.center,
                        "velocity": self.velocity, "omega": self.omega})
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.chi_mode not in ("binary", "fraction"):
            raise ValueError(f"unknown chi mode {self.chi_mode!r}")

    def center_at(self, t: float) -> tuple[float, float]:
        return (self.center[0] + self.velocity[0] * t,
                self.center[1] + self.velocity[1] * t)

    def clearance(self, grid: Grid, t_final: float) -> float:
        """Minimum distance of the disk closure from the walls over [0, t_final].

        The trajectory is linear, so the per-wall distance is linear in t
        and attains its minimum at an endpoint.
        """
        best = math.inf
        for t in (0.0, t_final):
            cx, cy = self.center_at(t)
            gap = min(cx, grid.lx - cx, cy, grid.ly - cy) - self.radius
            best = min(best, gap)
        return best

    # ------------------------------------------------------------------
    # Samplers
    # ------------------------------------------------------------------

    def _indicator(self, t, x, y):
        cx, cy = self.center_at(t)
        inside = (x - cx) ** 2 + (y - cy) ** 2 <= self.radius**2
        return inside.astype(float)

    def _fraction(self, t, x, y, hx, hy):
        """Covered area fraction of cells centered at (x, y), by 4x4 subsampling;
        x and y may be an open mesh that broadcasts to the cells' shape.

        Cells fully inside/outside the disk (center more than half a cell
        diagonal from the circle) are resolved exactly; only the boundary
        band is subsampled.
        """
        cx, cy = self.center_at(t)
        dist = np.hypot(x - cx, y - cy)
        half_diag = 0.5 * math.hypot(hx, hy)
        frac = np.zeros_like(dist)
        frac[dist <= self.radius - half_diag] = 1.0
        band = np.abs(dist - self.radius) < half_diag
        if np.any(band):
            offs = (np.arange(4) + 0.5) / 4 - 0.5
            ox, oy = np.meshgrid(offs * hx, offs * hy, indexing="ij")
            bx = np.broadcast_to(x, band.shape)[band][:, None] + ox.ravel()[None, :]
            by = np.broadcast_to(y, band.shape)[band][:, None] + oy.ravel()[None, :]
            sub = (bx - cx) ** 2 + (by - cy) ** 2 <= self.radius**2
            frac[band] = sub.mean(axis=1)
        return frac

    def sample_chi(self, t: float, grid: Grid) -> np.ndarray:
        """Indicator of the solid region at cell centers, shape (nx, ny)."""
        x, y = grid.cell_coords(sparse=True)
        if self.chi_mode == "binary":
            return self._indicator(t, x, y)
        return self._fraction(t, x, y, grid.hx, grid.hy)

    def sample_chi_faces(self, t: float, grid: Grid):
        """Indicator at u and v face centers, for the penalization diagonal.

        Binary mode point-samples the disk at face centers; fraction mode
        averages the fractions of the two cells sharing the face.
        """
        if self.chi_mode == "binary":
            xu, yu = grid.u_coords(sparse=True)
            xv, yv = grid.v_coords(sparse=True)
            return self._indicator(t, xu, yu), self._indicator(t, xv, yv)
        frac = self.sample_chi(t, grid)
        chi_u = np.zeros(grid.shape_u)
        chi_v = np.zeros(grid.shape_v)
        chi_u[1:-1, :] = 0.5 * (frac[1:, :] + frac[:-1, :])
        chi_u[0, :] = frac[0, :]
        chi_u[-1, :] = frac[-1, :]
        chi_v[:, 1:-1] = 0.5 * (frac[:, 1:] + frac[:, :-1])
        chi_v[:, 0] = frac[:, 0]
        chi_v[:, -1] = frac[:, -1]
        return chi_u, chi_v

    def rigid_velocity(self, t: float, x, y):
        """Rigid-body velocity translation + omega x (p - c(t)) at points p.

        Returns (us, vs). us depends on y alone and vs on x alone, so x and
        y need not share a shape: each face set passes only the coordinate
        its own component needs.
        """
        cx, cy = self.center_at(t)
        return (self.velocity[0] - self.omega * (y - cy),
                self.velocity[1] + self.omega * (x - cx))

    def sample_solid_velocity(self, t: float, grid: Grid) -> VelocityField:
        """Rigid-body velocity on all faces: us at u faces, vs at v faces, as
        read-only np.broadcast_to views of one row of us and one column of vs."""
        _, yu = grid.u_coords(sparse=True)
        xv, _ = grid.v_coords(sparse=True)
        us, vs = self.rigid_velocity(t, xv, yu)
        return VelocityField(grid, np.broadcast_to(us, grid.shape_u),
                             np.broadcast_to(vs, grid.shape_v))

    def boundary_band(self, t: float, grid: Grid) -> np.ndarray:
        """Cells whose center lies within one cell diagonal of the circle.

        Returns an (m, 2) integer array of cell indices.
        """
        cx, cy = self.center_at(t)
        x, y = grid.cell_coords(sparse=True)
        diag = math.hypot(grid.hx, grid.hy)
        band = np.abs(np.hypot(x - cx, y - cy) - self.radius) <= diag
        return np.argwhere(band)


@dataclass(frozen=True)
class ObstacleFrame:
    """Every obstacle sample of one step, all taken at one time t.

    chi is the face indicator and vs the solid velocity on the faces; band
    holds the boundary_band cells, an (m, 2) index array, and band_vs the
    rigid velocity (us, vs) at their centers. One frame per step, at
    t^{n+1}, serves the prediction's penalization and the step's
    penalization_energy and slip_error diagnostics, so all of them see the
    same obstacle and the same v_s.
    """

    chi: VelocityField
    vs: VelocityField
    band: np.ndarray
    band_vs: tuple

    @classmethod
    def sample(cls, obstacle, t: float, grid: Grid) -> "ObstacleFrame | None":
        """Sample obstacle at t on grid; None without an obstacle."""
        if obstacle is None:
            return None
        band = obstacle.boundary_band(t, grid)
        x, y = grid.cell_coords(sparse=True)
        return cls(VelocityField(grid, *obstacle.sample_chi_faces(t, grid)),
                   obstacle.sample_solid_velocity(t, grid), band,
                   obstacle.rigid_velocity(t, x[band[:, 0], 0], y[0, band[:, 1]]))
