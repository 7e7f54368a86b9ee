"""Uniform staggered (MAC) grid and the discrete fields living on it.

Layout conventions used throughout the package:

* cell fields (PressureField): shape (nx, ny), sample at cell centers
  ((i + 1/2) hx, (j + 1/2) hy)
* u (horizontal velocity): shape (nx+1, ny), sample at vertical face
  centers (i hx, (j + 1/2) hy); columns i = 0 and i = nx lie on the
  domain boundary
* v (vertical velocity): shape (nx, ny+1), sample at horizontal face
  centers ((i + 1/2) hx, j hy); rows j = 0 and j = ny lie on the boundary

Fields are value types: operations return new fields and never mutate
their inputs, so they are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def require_finite(values: dict):
    """Raise a ValueError naming the first value (a float or a tuple of
    floats) that is nan or infinite; a range check such as x <= 0 is false
    for nan, so it lets nan through."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


def require_int(values: dict):
    """Raise a ValueError naming the first value that is not an integer;
    numpy integers pass, as operator.index takes them."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular MAC grid with nx-by-ny cells."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        require_int({"nx": self.nx, "ny": self.ny})
        require_finite({"lx": self.lx, "ly": self.ly})
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs nx, ny >= 2, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError(f"domain extents must be positive, got {self.lx}x{self.ly}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def shape_p(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def shape_u(self) -> tuple[int, int]:
        return (self.nx + 1, self.ny)

    @property
    def shape_v(self) -> tuple[int, int]:
        return (self.nx, self.ny + 1)

    # Coordinate meshes (ij indexing: axis 0 is x, axis 1 is y). sparse=True
    # gives the open mesh, x of shape (m, 1) and y of shape (1, k), which
    # broadcasts to the same values without building the full arrays.
    def cell_coords(self, sparse=False):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij", sparse=sparse)

    def u_coords(self, sparse=False):
        x = np.arange(self.nx + 1) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij", sparse=sparse)

    def v_coords(self, sparse=False):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij", sparse=sparse)

    def u_face_weights(self) -> np.ndarray:
        """Quadrature weights for u faces; boundary columns count half.
        Cached per grid and read-only."""
        return _face_weights(self)[0]

    def v_face_weights(self) -> np.ndarray:
        """Quadrature weights for v faces; boundary rows count half.
        Cached per grid and read-only."""
        return _face_weights(self)[1]


@lru_cache(maxsize=32)
def _face_weights(grid: Grid):
    wu = np.full(grid.shape_u, grid.cell_area)
    wu[0, :] *= 0.5
    wu[-1, :] *= 0.5
    wv = np.full(grid.shape_v, grid.cell_area)
    wv[:, 0] *= 0.5
    wv[:, -1] *= 0.5
    wu.setflags(write=False)
    wv.setflags(write=False)
    return wu, wv


def _check_shape(name, arr, shape):
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


@dataclass
class VelocityField:
    """Face-centered velocity samples (u, v) on a Grid."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        _check_shape("u", self.u, self.grid.shape_u)
        _check_shape("v", self.v, self.grid.shape_v)

    @classmethod
    def zeros(cls, grid: Grid) -> "VelocityField":
        return cls(grid, np.zeros(grid.shape_u), np.zeros(grid.shape_v))

    @classmethod
    def from_functions(cls, grid: Grid, fu, fv) -> "VelocityField":
        xu, yu = grid.u_coords()
        xv, yv = grid.v_coords()
        return cls(grid, fu(xu, yu), fv(xv, yv))

    def __add__(self, other: "VelocityField") -> "VelocityField":
        return VelocityField(self.grid, self.u + other.u, self.v + other.v)

    def __sub__(self, other: "VelocityField") -> "VelocityField":
        return VelocityField(self.grid, self.u - other.u, self.v - other.v)

    def __mul__(self, a: float) -> "VelocityField":
        return VelocityField(self.grid, self.u * a, self.v * a)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return max(np.abs(self.u).max(), np.abs(self.v).max())


@dataclass
class PressureField:
    """Cell-centered samples on a Grid: the one type for every cell quantity
    (pressure, divergence, translation-series snapshots)."""

    grid: Grid
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        _check_shape("p", self.p, self.grid.shape_p)

    @classmethod
    def zeros(cls, grid: Grid) -> "PressureField":
        return cls(grid, np.zeros(grid.shape_p))

    def project_mean_zero(self) -> "PressureField":
        return PressureField(self.grid, self.p - self.p.mean())

    def __add__(self, other):
        return PressureField(self.grid, self.p + other.p)

    def __sub__(self, other):
        return PressureField(self.grid, self.p - other.p)

    def __mul__(self, a: float):
        return PressureField(self.grid, self.p * a)

    __rmul__ = __mul__

