"""Moving rigid obstacle: indicator sampling and solid velocity.

The obstacle is a disk on a prescribed trajectory (uniform translation
plus rigid rotation about its own center). The indicator can be sampled
binary (1 where the cell center is inside) or as the exact covered area
fraction of each cell; both modes are also offered at velocity faces for
the penalization term, where the fraction mode averages the two adjacent
cell fractions. An ObstacleFrame holds the face indicator and the solid
velocity sampled once at one time, for every consumer of that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarCellField, VelocityField


@dataclass(frozen=True)
class Obstacle:
    """Rigid disk with trajectory c(t) = center + velocity * t."""

    shape: str = "none"                 # "none" or "disk"
    radius: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    omega: float = 0.0                  # angular velocity about the center
    t_max: float = math.inf             # samplers reject t outside [0, t_max]
    chi_mode: str = "binary"            # "binary" or "fraction"

    def __post_init__(self):
        if self.shape not in ("none", "disk"):
            raise ValueError(f"unknown obstacle shape {self.shape!r}")
        if self.shape == "disk" and self.radius <= 0:
            raise ValueError("disk obstacle needs a positive radius")
        if self.chi_mode not in ("binary", "fraction"):
            raise ValueError(f"unknown chi mode {self.chi_mode!r}")

    def _check_time(self, t):
        if t < -1e-12 or t > self.t_max + 1e-12:
            raise ValueError(f"time {t} outside the obstacle horizon [0, {self.t_max}]")

    def center_at(self, t: float) -> tuple[float, float]:
        self._check_time(t)
        return (self.center[0] + self.velocity[0] * t,
                self.center[1] + self.velocity[1] * t)

    def clearance(self, grid: Grid, t_final: float) -> float:
        """Minimum distance of the disk closure from the walls over [0, t_final].

        The trajectory is linear, so the per-wall distance is linear in t
        and attains its minimum at an endpoint.
        """
        if self.shape == "none":
            return math.inf
        best = math.inf
        for t in (0.0, min(t_final, self.t_max)):
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

    def _fraction(self, t, x, y, hx, hy, subdiv=4):
        """Covered area fraction of cells centered at (x, y), by subsampling.

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
            offs = (np.arange(subdiv) + 0.5) / subdiv - 0.5
            ox, oy = np.meshgrid(offs * hx, offs * hy, indexing="ij")
            bx = x[band][:, None] + ox.ravel()[None, :]
            by = y[band][:, None] + oy.ravel()[None, :]
            sub = (bx - cx) ** 2 + (by - cy) ** 2 <= self.radius**2
            frac[band] = sub.mean(axis=1)
        return frac

    def sample_chi(self, t: float, grid: Grid) -> ScalarCellField:
        """Indicator of the solid region at cell centers."""
        self._check_time(t)
        if self.shape == "none":
            return ScalarCellField.zeros(grid)
        x, y = grid.cell_coords()
        if self.chi_mode == "binary":
            return ScalarCellField(grid, self._indicator(t, x, y))
        return ScalarCellField(grid, self._fraction(t, x, y, grid.hx, grid.hy))

    def sample_chi_faces(self, t: float, grid: Grid):
        """Indicator at u and v face centers, for the penalization diagonal.

        Binary mode point-samples the disk at face centers; fraction mode
        averages the fractions of the two cells sharing the face.
        """
        self._check_time(t)
        if self.shape == "none":
            return np.zeros(grid.shape_u), np.zeros(grid.shape_v)
        if self.chi_mode == "binary":
            xu, yu = grid.u_coords()
            xv, yv = grid.v_coords()
            return self._indicator(t, xu, yu), self._indicator(t, xv, yv)
        frac = self.sample_chi(t, grid).data
        chi_u = np.zeros(grid.shape_u)
        chi_v = np.zeros(grid.shape_v)
        chi_u[1:-1, :] = 0.5 * (frac[1:, :] + frac[:-1, :])
        chi_u[0, :] = frac[0, :]
        chi_u[-1, :] = frac[-1, :]
        chi_v[:, 1:-1] = 0.5 * (frac[:, 1:] + frac[:, :-1])
        chi_v[:, 0] = frac[:, 0]
        chi_v[:, -1] = frac[:, -1]
        return chi_u, chi_v

    def sample_solid_velocity(self, t: float, grid: Grid) -> VelocityField:
        """Rigid-body velocity translation + omega x (x - c(t)) on all faces."""
        self._check_time(t)
        if self.shape == "none":
            return VelocityField.zeros(grid)
        cx, cy = self.center_at(t)
        vx, vy = self.velocity
        xu, yu = grid.u_coords()
        xv, yv = grid.v_coords()
        us = vx - self.omega * (yu - cy)
        vs = vy + self.omega * (xv - cx)
        return VelocityField(grid, us, vs)

    def boundary_band(self, t: float, grid: Grid) -> np.ndarray:
        """Cells whose center lies within one cell diagonal of the circle.

        Returns an (m, 2) integer array of cell indices; empty for "none".
        """
        self._check_time(t)
        if self.shape == "none":
            return np.empty((0, 2), dtype=int)
        cx, cy = self.center_at(t)
        x, y = grid.cell_coords()
        diag = math.hypot(grid.hx, grid.hy)
        band = np.abs(np.hypot(x - cx, y - cy) - self.radius) <= diag
        return np.argwhere(band)


@dataclass(frozen=True)
class ObstacleFrame:
    """The obstacle sampled once at time t: face indicators and solid velocity.

    One frame per step, at t^{n+1}, serves the prediction's penalization
    and the penalization_energy diagnostic, so both see the same samples.
    """

    chi_u: np.ndarray
    chi_v: np.ndarray
    vs: VelocityField

    @classmethod
    def sample(cls, obstacle, t: float, grid: Grid) -> "ObstacleFrame | None":
        """Sample obstacle at t on grid; None without an obstacle."""
        if obstacle is None or obstacle.shape == "none":
            return None
        chi_u, chi_v = obstacle.sample_chi_faces(t, grid)
        return cls(chi_u, chi_v, obstacle.sample_solid_velocity(t, grid))
