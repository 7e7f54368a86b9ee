import math

import numpy as np
import pytest

from oracles import taylor_green, taylor_green_forcing
from vppflow import diagnostics, operators
from vppflow.grid import Grid
from vppflow.manufactured import NormalStream, random_solenoidal, taylor_green_velocity


def test_initial_field_is_discretely_divergence_free():
    g = Grid(64, 64)
    vel, _, _ = taylor_green(0.0, g, mu=0.1)
    assert diagnostics.l2_norm(operators.divergence(vel)) <= 1e-3


def test_initial_kinetic_energy():
    g = Grid(64, 64)
    vel, _, _ = taylor_green(0.0, g, mu=0.1)
    assert abs(diagnostics.kinetic_energy(vel) - 0.25) <= 1e-3


def test_requires_unit_square():
    with pytest.raises(ValueError):
        taylor_green(0.0, Grid(16, 16, lx=2.0), mu=0.1)


def test_forcing_is_the_momentum_residual_of_the_analytic_fields():
    # finite-difference the analytic expressions on a fine lattice and
    # verify d(v)/dt + (v.grad)v - mu lap v + grad p equals the forcing
    mu = 0.3
    t = 0.17
    n = 256
    h = 1.0 / n
    x = (np.arange(1, n) )[:, None] * h   # interior lattice
    y = (np.arange(1, n))[None, :] * h

    def uf(x, y, t):
        return np.sin(np.pi * x) * np.cos(np.pi * y) * np.exp(-2 * np.pi**2 * mu * t)

    def vf(x, y, t):
        return -np.cos(np.pi * x) * np.sin(np.pi * y) * np.exp(-2 * np.pi**2 * mu * t)

    def pf(x, y, t):
        return 0.25 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) \
            * np.exp(-4 * np.pi**2 * mu * t)

    dt_fd = 1e-6
    u, v = uf(x, y, t), vf(x, y, t)
    du_dt = (uf(x, y, t + dt_fd) - uf(x, y, t - dt_fd)) / (2 * dt_fd)
    dv_dt = (vf(x, y, t + dt_fd) - vf(x, y, t - dt_fd)) / (2 * dt_fd)
    du_dx = (uf(x + h, y, t) - uf(x - h, y, t)) / (2 * h)
    du_dy = (uf(x, y + h, t) - uf(x, y - h, t)) / (2 * h)
    dv_dx = (vf(x + h, y, t) - vf(x - h, y, t)) / (2 * h)
    dv_dy = (vf(x, y + h, t) - vf(x, y - h, t)) / (2 * h)
    lap_u = (uf(x + h, y, t) + uf(x - h, y, t) + uf(x, y + h, t)
             + uf(x, y - h, t) - 4 * u) / h**2
    lap_v = (vf(x + h, y, t) + vf(x - h, y, t) + vf(x, y + h, t)
             + vf(x, y - h, t) - 4 * v) / h**2
    dp_dx = (pf(x + h, y, t) - pf(x - h, y, t)) / (2 * h)
    dp_dy = (pf(x, y + h, t) - pf(x, y - h, t)) / (2 * h)

    res_x = du_dt + u * du_dx + v * du_dy - mu * lap_u + dp_dx
    res_y = dv_dt + u * dv_dx + v * dv_dy - mu * lap_v + dp_dy

    g = Grid(8, 8)
    forcing = taylor_green_forcing(t, g, mu)
    assert np.abs(forcing.u).max() == 0.0
    assert np.abs(res_x).max() <= 1e-3
    assert np.abs(res_y).max() <= 1e-3


def test_forcing_at_zero_viscosity_matches_convection_plus_pressure():
    # at mu = 0 the forcing reduces to (v.grad)v + grad p, which cancels
    mu = 0.0
    n = 128
    h = 1.0 / n
    x = (np.arange(1, n))[:, None] * h
    y = (np.arange(1, n))[None, :] * h
    u = np.sin(np.pi * x) * np.cos(np.pi * y)
    v = -np.cos(np.pi * x) * np.sin(np.pi * y)
    conv_x = u * np.pi * np.cos(np.pi * x) * np.cos(np.pi * y) \
        + v * (-np.pi) * np.sin(np.pi * x) * np.sin(np.pi * y)
    dp_dx = -0.5 * np.pi * np.sin(2 * np.pi * x) * np.ones_like(y)
    assert np.abs(conv_x + dp_dx).max() <= 1e-12


def test_decay_rate_of_sampled_fields():
    g = Grid(32, 32)
    mu = 0.05
    e0 = diagnostics.kinetic_energy(taylor_green_velocity(0.0, g, mu))
    e1 = diagnostics.kinetic_energy(taylor_green_velocity(0.3, g, mu))
    assert e1 / e0 == pytest.approx(math.exp(-4 * math.pi**2 * mu * 0.3), rel=1e-12)


def test_random_solenoidal_properties(rng):
    g = Grid(24, 16, 1.5, 1.0)
    vel = random_solenoidal(g, rng, amplitude=0.7)
    assert np.abs(operators.divergence(vel).p).max() <= 1e-12
    assert max(np.abs(vel.u[0, :]).max(), np.abs(vel.u[-1, :]).max(),
               np.abs(vel.v[:, 0]).max(), np.abs(vel.v[:, -1]).max()) == 0.0
    assert vel.max_abs() == pytest.approx(0.7)


def test_normal_stream_shapes_and_seeding():
    scalar = NormalStream(7).standard_normal()
    assert type(scalar) is float
    # an array continues the stream in C order, whatever its shape
    flat = NormalStream(7).standard_normal(7)
    grid = NormalStream(7).standard_normal((2, 3))
    assert flat.shape == (7,) and grid.shape == (2, 3)
    assert flat[0] == scalar
    assert np.array_equal(grid.ravel(), flat[:6])
    assert not np.array_equal(NormalStream(8).standard_normal(7), flat)


def test_normal_stream_moments():
    draws = NormalStream(0).standard_normal(40000)
    assert abs(draws.mean()) <= 0.02
    assert draws.std() == pytest.approx(1.0, abs=0.02)
