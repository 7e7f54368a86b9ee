import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import strain_divergence
from vppflow import operators, scheme
from vppflow.grid import Grid, PressureField, VelocityField
from vppflow.scheme import SchemeParams


def random_velocity(grid, rng, interior_only=False):
    u = rng.standard_normal(grid.shape_u)
    v = rng.standard_normal(grid.shape_v)
    if interior_only:
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
    return VelocityField(grid, u, v)


# ---------------------------------------------------------------- divergence

def test_divergence_of_uniform_field_is_zero():
    g = Grid(6, 5)
    vel = VelocityField(g, np.ones(g.shape_u), np.ones(g.shape_v))
    assert np.abs(operators.divergence(vel).p).max() == 0.0


def test_divergence_of_linear_solenoidal_field_is_zero():
    g = Grid(8, 6, 1.5, 1.1)
    vel = VelocityField.from_functions(g, lambda x, y: x, lambda x, y: -y)
    assert np.abs(operators.divergence(vel).p).max() <= 1e-13


def test_divergence_matches_flux_balance_oracle(rng):
    # brute force: sum of face fluxes over the cell area, cell by cell
    g = Grid(4, 4, 1.2, 0.8)
    vel = random_velocity(g, rng)
    div = operators.divergence(vel)
    for i in range(g.nx):
        for j in range(g.ny):
            flux = ((vel.u[i + 1, j] - vel.u[i, j]) * g.hy
                    + (vel.v[i, j + 1] - vel.v[i, j]) * g.hx)
            assert div.p[i, j] == pytest.approx(flux / g.cell_area, abs=1e-13)


# ------------------------------------------------------------------ gradient

def test_gradient_of_constant_pressure_is_zero():
    g = Grid(5, 7)
    p = PressureField(g, np.full(g.shape_p, 2.5))
    grad = operators.gradient(p)
    assert np.abs(grad.u).max() == 0.0
    assert np.abs(grad.v).max() == 0.0


def test_gradient_of_linear_pressure():
    g = Grid(6, 4)
    x, _ = g.cell_coords()
    p = PressureField(g, x).project_mean_zero()
    grad = operators.gradient(p)
    assert np.allclose(grad.u[1:-1, :], 1.0, atol=1e-13)
    assert np.abs(grad.v).max() <= 1e-13


def test_div_grad_adjointness_on_5x3(rng):
    # direct-summation oracle for the duality <grad p, v> = -<p, div v>
    g = Grid(5, 3)
    p = PressureField(g, rng.standard_normal(g.shape_p)).project_mean_zero()
    vel = random_velocity(g, rng, interior_only=True)
    lhs = operators.inner(operators.gradient(p), vel)
    rhs = -operators.cell_inner(p, operators.divergence(vel))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_adjointness_100_random_instances(rng):
    for _ in range(100):
        g = Grid(int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        p = PressureField(g, rng.standard_normal(g.shape_p)).project_mean_zero()
        vel = random_velocity(g, rng, interior_only=True)
        lhs = operators.inner(operators.gradient(p), vel)
        rhs = -operators.cell_inner(p, operators.divergence(vel))
        scale = abs(lhs) + abs(rhs) + 1e-30
        assert abs(lhs - rhs) / scale <= 1e-12


# -------------------------------------------------------------------- strain

def test_strain_divergence_of_zero_field():
    g = Grid(6, 6)
    out = strain_divergence(VelocityField.zeros(g), mu=1.0)
    assert np.abs(out.u).max() == 0.0
    assert np.abs(out.v).max() == 0.0


def test_strain_divergence_parabolic_profile():
    # u = y^2, v = 0, mu = 1: interior result is d/dy(du/dy) = 2
    g = Grid(8, 8)
    vel = VelocityField.from_functions(g, lambda x, y: y**2, lambda x, y: 0.0 * x)
    out = strain_divergence(vel, mu=1.0)
    interior = out.u[1:-1, 2:-2]
    assert np.allclose(interior, 2.0, atol=1e-11)


def test_strain_divergence_is_dissipative(rng):
    for _ in range(20):
        g = Grid(6, 7)
        vel = random_velocity(g, rng, interior_only=True)
        out = strain_divergence(vel, mu=0.7)
        assert operators.inner(out, vel) <= 1e-12


# ---------------------------------------------------------------------- curl

@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, seed=0)
def test_curl_of_gradient_vanishes(nx, ny, lx, ly, seed):
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    p = PressureField(g, rng.standard_normal(g.shape_p)).project_mean_zero()
    c = operators.curl(operators.gradient(p))
    scale = max(np.abs(p.p).max() / (g.hx * g.hy), 1e-30)
    assert np.abs(c).max() / scale <= 1e-12

    # the pressure update leaves a zero-mean field on the same draws
    vel = random_velocity(g, rng)
    params = SchemeParams(dt=0.01, t_final=0.01)
    p_new = scheme.update_pressure(p, operators.divergence(vel), params)
    assert abs(p_new.p.mean()) <= 1e-14 * np.abs(p_new.p).max()


def test_curl_of_rigid_rotation():
    g = Grid(6, 9, 1.0, 1.3)
    vel = VelocityField.from_functions(g, lambda x, y: -y, lambda x, y: x)
    assert np.allclose(operators.curl(vel), 2.0, atol=1e-12)


def test_curl_matches_stencil_oracle(rng):
    g = Grid(5, 4, 0.9, 1.4)
    vel = random_velocity(g, rng)
    c = operators.curl(vel)
    for i in range(1, g.nx):
        for j in range(1, g.ny):
            expect = ((vel.v[i, j] - vel.v[i - 1, j]) / g.hx
                      - (vel.u[i, j] - vel.u[i, j - 1]) / g.hy)
            assert c[i - 1, j - 1] == pytest.approx(expect, abs=1e-13)


# ----------------------------------------------------------------- linearity

@pytest.mark.parametrize("op", [
    lambda v: operators.divergence(v).p,
    lambda v: operators.curl(v),
    lambda v: strain_divergence(v, 0.3).u,
])
def test_velocity_operators_are_linear(op, rng):
    g = Grid(6, 5)
    a, b = 1.7, -0.4
    x = random_velocity(g, rng)
    y = random_velocity(g, rng)
    combo = op(a * x + b * y)
    parts = a * op(x) + b * op(y)
    scale = np.abs(parts).max() + 1e-30
    assert np.abs(combo - parts).max() / scale <= 1e-12


def test_gradient_is_linear(rng):
    g = Grid(6, 5)
    p = PressureField(g, rng.standard_normal(g.shape_p))
    q = PressureField(g, rng.standard_normal(g.shape_p))
    combo = operators.gradient(2.0 * p + (-0.3) * q)
    parts = 2.0 * operators.gradient(p) + (-0.3) * operators.gradient(q)
    assert np.abs(combo.u - parts.u).max() <= 1e-12
    assert np.abs(combo.v - parts.v).max() <= 1e-12
