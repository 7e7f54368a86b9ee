"""Manufactured fields: decaying vortex solution and random solenoidal data.

The vortex pair

    v = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y)) exp(-2 pi^2 mu t)
    p = 1/4 (cos(2 pi x) + cos(2 pi y)) exp(-4 pi^2 mu t)

solves the unforced incompressible momentum equation on the unit square:
the time derivative cancels the viscous term exactly and the convective
term cancels the pressure gradient, so the manufactured forcing is
identically zero. Tests verify both cancellations by finite-differencing
the analytic expressions.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from . import operators
from .grid import Grid, PressureField, VelocityField
from .linalg import WallSlip


def require_unit_square(grid: Grid):
    if not (abs(grid.lx - 1.0) < 1e-14 and abs(grid.ly - 1.0) < 1e-14):
        raise ValueError("the manufactured vortex is defined on the unit square")


@lru_cache(maxsize=32)
def _taylor_green_shape(grid: Grid) -> VelocityField:
    """The vortex velocity at t = 0, per grid; its arrays are read-only."""
    shape = VelocityField.from_functions(grid, lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
                                         lambda x, y: -np.cos(np.pi * x) * np.sin(np.pi * y))
    for arr in (shape.u, shape.v):
        arr.setflags(write=False)
    return shape


def taylor_green_velocity(t: float, grid: Grid, mu: float) -> VelocityField:
    require_unit_square(grid)
    # (sin cos) decay rounds as the unfactored sin cos decay
    return _taylor_green_shape(grid) * np.exp(-2.0 * np.pi**2 * mu * t)


def taylor_green_pressure(t: float, grid: Grid, mu: float) -> PressureField:
    require_unit_square(grid)
    decay = np.exp(-4.0 * np.pi**2 * mu * t)
    x, y = grid.cell_coords()
    p = 0.25 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) * decay
    return PressureField(grid, p).project_mean_zero()


def taylor_green_wall_slip(t: float, grid: Grid, mu: float):
    """Tangential wall trace of the vortex (its normal trace vanishes)."""
    require_unit_square(grid)
    decay = np.exp(-2.0 * np.pi**2 * mu * t)
    return WallSlip.from_functions(
        grid,
        lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y) * decay,
        lambda x, y: -np.cos(np.pi * x) * np.sin(np.pi * y) * decay,
    )


class SpaceTimeError:
    """Snapshot sink summing dt ||v^n - v(t^n)||^2 against the vortex over
    the steps n >= 1; value() is the square root of the sum."""

    def __init__(self, grid: Grid, mu: float, dt: float):
        self.grid, self.mu, self.dt = grid, mu, dt
        self.err2 = 0.0

    def __call__(self, state):
        if state.n > 0:
            diff = state.v - taylor_green_velocity(state.t, self.grid, self.mu)
            self.err2 += self.dt * operators.inner(diff, diff)

    def value(self) -> float:
        return math.sqrt(self.err2)


class NormalStream:
    """Seeded standard normals drawn from the stdlib random.Random(seed).

    standard_normal(shape=()) takes the shape of numpy's
    Generator.standard_normal: () gives a float, an int or a tuple an array
    filled in C order. The interpreter has random loaded already, while
    numpy.random loads secrets, hashlib and OpenSSL's libcrypto (some 6 MB
    resident) on first use. Each stream owns its generator, so equal seeds
    give equal draws whatever else runs in the process.
    """

    def __init__(self, seed: int):
        self._gauss = random.Random(seed).gauss

    def standard_normal(self, shape=()):
        if shape == ():
            return self._gauss(0.0, 1.0)
        gauss = self._gauss
        values = [gauss(0.0, 1.0) for _ in range(np.prod(shape, dtype=int))]
        return np.array(values).reshape(shape)


def random_solenoidal(grid: Grid, rng, amplitude: float = 1.0) -> VelocityField:
    """Exactly discretely divergence-free random field with v.n = 0 on walls.

    rng is any object with a standard_normal() that returns a float, such
    as a NormalStream or a numpy Generator; the field takes nine draws.

    Built from a random stream function of the lowest 3 x 3 sine modes,
    sampled at grid nodes: u = d(psi)/dy, v = -d(psi)/dx by node
    differences, which makes the MAC divergence vanish identically and
    zeroes the normal boundary faces.
    """
    nx, ny = grid.nx, grid.ny
    xn = np.linspace(0.0, grid.lx, nx + 1)
    yn = np.linspace(0.0, grid.ly, ny + 1)
    x, y = np.meshgrid(xn, yn, indexing="ij")
    psi = np.zeros((nx + 1, ny + 1))
    for k in range(1, 4):
        for m in range(1, 4):
            psi += rng.standard_normal() * np.sin(k * np.pi * x / grid.lx) \
                * np.sin(m * np.pi * y / grid.ly)
    # constant (zero) boundary stream function, exact rather than sin(k pi)
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    vel = VelocityField(grid, u, v)
    scale = vel.max_abs()
    if scale > 0:
        vel = vel * (amplitude / scale)
    return vel
