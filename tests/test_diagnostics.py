import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import dirichlet_laplacian
from vppflow import diagnostics, scheme
from vppflow.diagnostics import FieldSeries, nikolskii_translation
from vppflow.grid import Grid, PressureField, ScalarCellField, VelocityField
from vppflow.manufactured import taylor_green_pressure, taylor_green_velocity
from vppflow.obstacle import Obstacle
from vppflow.scheme import SchemeParams


# ------------------------------------------------------------------ l2 norm

def test_l2_norm_basic_values():
    g = Grid(16, 16)
    assert diagnostics.l2_norm(ScalarCellField.zeros(g)) == 0.0
    ones = ScalarCellField(g, np.ones(g.shape_p))
    assert diagnostics.l2_norm(ones) == pytest.approx(1.0)
    vel = VelocityField(g, np.ones(g.shape_u), np.ones(g.shape_v))
    assert diagnostics.l2_norm(vel) == pytest.approx(math.sqrt(2.0))


def test_l2_norm_of_sine_product():
    g = Grid(128, 128)
    x, y = g.cell_coords()
    f = ScalarCellField(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    assert abs(diagnostics.l2_norm(f) - 0.5) <= 1e-3


# ---------------------------------------------------------------- H^-1 norm

def test_h_minus1_norm_of_zero():
    g = Grid(16, 16)
    assert diagnostics.h_minus1_norm(ScalarCellField.zeros(g)) == 0.0


def test_h_minus1_norm_of_dirichlet_eigenfunction():
    # -Lap eigenfunction with eigenvalue 2 pi^2: dual norm is L2 norm / sqrt(2 pi^2)
    g = Grid(128, 128)
    x, y = g.cell_coords()
    f = ScalarCellField(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    expect = 0.5 / (math.sqrt(2.0) * math.pi)
    assert abs(diagnostics.h_minus1_norm(f) - expect) <= 0.01 * expect


def test_h_minus1_norm_homogeneity(rng):
    g = Grid(12, 12)
    f = ScalarCellField(g, rng.standard_normal(g.shape_p))
    a = diagnostics.h_minus1_norm(f)
    b = diagnostics.h_minus1_norm(-3.5 * f)
    assert abs(b - 3.5 * a) <= 1e-10 * max(b, 1e-30)


def test_h_minus1_of_velocity_field(rng):
    g = Grid(16, 16)
    layout_vel = VelocityField(g, rng.standard_normal(g.shape_u),
                               rng.standard_normal(g.shape_v))
    val = diagnostics.h_minus1_norm(layout_vel)
    assert val > 0 and np.isfinite(val)


def test_h_minus1_velocity_discrete_eigenfunction():
    # sin(pi x) sin(pi y) sampled at u faces is an exact eigenfunction of
    # the u-lattice Dirichlet Laplacian: on-wall zeros in x, odd reflection
    # in the offset y direction; the dual norm is then L2 norm / sqrt(lam)
    g = Grid(32, 32)
    f = VelocityField.from_functions(
        g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.0 * x)
    lam = (4.0 / g.hx**2) * math.sin(math.pi * g.hx / 2) ** 2 \
        + (4.0 / g.hy**2) * math.sin(math.pi * g.hy / 2) ** 2
    expect = diagnostics.l2_norm(f) / math.sqrt(lam)
    got = diagnostics.h_minus1_norm(f)
    assert got == pytest.approx(expect, rel=1e-8)


def test_poincare_inequality_measured_constant(rng):
    g = Grid(16, 16)
    c_p = diagnostics.poincare_constant(g, "cell")
    # the unit-square constant is 1/sqrt(2 pi^2) ~ 0.225; the discrete value
    # must be close from below
    assert 0.15 <= c_p <= 0.25
    for _ in range(20):
        f = ScalarCellField(g, rng.standard_normal(g.shape_p))
        assert diagnostics.h_minus1_norm(f) <= c_p * diagnostics.l2_norm(f) * (1 + 1e-8)


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, seed=0)
def test_dual_norm_and_poincare_constant_match_dense_oracle(nx, ny, lx, ly, seed):
    # the closed-form sine-basis values against a dense solve and a dense
    # eigendecomposition of the assembled Dirichlet Laplacian, per lattice
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.shape_u)
    v = rng.standard_normal(g.shape_v)
    cases = {
        "cell": (ScalarCellField(g, rng.standard_normal(g.shape_p)), None),
        "u": (VelocityField(g, u, np.zeros(g.shape_v)), u[1:-1, :]),
        "v": (VelocityField(g, np.zeros(g.shape_u), v), v[:, 1:-1]),
    }
    for which, (f, interior) in cases.items():
        lap = dirichlet_laplacian(g, which).toarray()
        rhs = (f.data if interior is None else interior).ravel()
        expect = g.cell_area * (rhs @ np.linalg.solve(lap, rhs))
        assert diagnostics.h_minus1_norm(f) ** 2 == pytest.approx(expect, rel=1e-12)
        if lap.shape[0] <= 400:
            lam_min = np.linalg.eigvalsh(lap)[0]
            assert diagnostics.poincare_constant(g, which) == pytest.approx(
                1.0 / math.sqrt(lam_min), rel=1e-10)


# --------------------------------------------------- translation estimator

def test_translation_of_constant_series_is_zero():
    g = Grid(4, 4)
    snap = ScalarCellField(g, np.full(g.shape_p, 2.0))
    series = FieldSeries(dt=0.25, snapshots=[snap] * 8)
    for h in (0.1, 0.25, 0.9):
        assert nikolskii_translation(series, h) == 0.0


def test_translation_two_snapshot_hand_value():
    # u0 = 0, u1 = 1, dt = 1, T = 2, h = 1/2: the difference is nonzero on
    # an overlap of length h at the jump, so the integral is 0.5 * ||1||
    g = Grid(4, 4)
    series = FieldSeries(dt=1.0, snapshots=[
        ScalarCellField.zeros(g), ScalarCellField(g, np.ones(g.shape_p))])
    val = nikolskii_translation(series, 0.5, form="L1")
    assert abs(val - 0.5) <= 1e-14
    val2 = nikolskii_translation(series, 0.5, form="L2")
    assert abs(val2 - math.sqrt(0.5)) <= 1e-14


@pytest.mark.parametrize("h", [0.037, 0.1, 0.25, 0.4, 1.3, 2.05])
def test_translation_matches_riemann_sum_oracle(h, rng):
    # brute-force oracle: sample the step function on a fine time lattice
    g = Grid(3, 3)
    dt = 0.4
    snaps = [ScalarCellField(g, rng.standard_normal(g.shape_p)) for _ in range(12)]
    series = FieldSeries(dt=dt, snapshots=snaps)
    t_end = series.t_final - h

    # the step function takes only a few distinct snapshot pairs
    @functools.cache
    def diff_norm(a, b):
        return diagnostics.l2_norm(snaps[a] - snaps[b])

    m = 200001
    ts = (np.arange(m) + 0.5) * (t_end / m)
    vals = np.array([diff_norm(series.value_index(t + h), series.value_index(t))
                     for t in ts])
    riemann_l1 = vals.sum() * (t_end / m)
    riemann_l2 = math.sqrt((vals**2).sum() * (t_end / m))

    exact_l1 = nikolskii_translation(series, h, form="L1")
    exact_l2 = nikolskii_translation(series, h, form="L2")
    assert exact_l1 == pytest.approx(riemann_l1, rel=2e-4)
    assert exact_l2 == pytest.approx(riemann_l2, rel=2e-4)


def test_translation_scales_linearly_with_jumps(rng):
    g = Grid(4, 4)
    snaps = [ScalarCellField(g, rng.standard_normal(g.shape_p)) for _ in range(6)]
    series = FieldSeries(dt=0.5, snapshots=snaps)
    doubled = FieldSeries(dt=0.5, snapshots=[s * 2.0 for s in snaps])
    for h in (0.2, 0.8):
        one = nikolskii_translation(series, h, form="L1")
        two = nikolskii_translation(doubled, h, form="L1")
        assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_translation_rejects_offsets_outside_range():
    g = Grid(4, 4)
    series = FieldSeries(dt=0.5, snapshots=[ScalarCellField.zeros(g)] * 4)
    with pytest.raises(ValueError):
        nikolskii_translation(series, 2.0)
    with pytest.raises(ValueError):
        nikolskii_translation(series, 0.0)


# ----------------------------------------------------------------- slip

def make_rotor(t_max=1.0, r=0.2):
    return Obstacle(radius=r, center=(0.5, 0.5), omega=1.0,
                    t_max=t_max)


def test_slip_error_zero_when_velocity_matches_solid():
    g = Grid(32, 32)
    obs = make_rotor()
    vs = obs.sample_solid_velocity(0.3, g)
    assert diagnostics.slip_error(vs, obs, 0.3) <= 1e-28


def test_slip_error_approximates_circumference():
    # |v - v_s| = 1 on the band: the integral is the circle length 2 pi r
    g = Grid(64, 64)
    r = 0.2
    obs = Obstacle(radius=r, center=(0.5, 0.5), t_max=1.0)
    vel = VelocityField(g, np.ones(g.shape_u), np.zeros(g.shape_v))
    est = diagnostics.slip_error(vel, obs, 0.0)
    assert abs(est - 2 * math.pi * r) <= 0.15 * 2 * math.pi * r


def test_slip_error_ignores_fields_away_from_band(rng):
    g = Grid(64, 64)
    obs = make_rotor(r=0.15)
    vel = VelocityField(g, rng.standard_normal(g.shape_u),
                        rng.standard_normal(g.shape_v))
    base = diagnostics.slip_error(vel, obs, 0.0)
    # perturb only far outside the band (near the domain corner)
    far = vel.copy()
    far.u[:5, :5] += 100.0
    assert diagnostics.slip_error(far, obs, 0.0) == pytest.approx(base)


def test_slip_error_empty_band_warns_and_returns_zero():
    g = Grid(4, 4)
    # disk much smaller than a cell, centered between cell centers
    obs = Obstacle(radius=1e-6, center=(0.5, 0.5), t_max=1.0)
    vel = VelocityField(g, np.ones(g.shape_u), np.zeros(g.shape_v))
    band = obs.boundary_band(0.0, g)
    if band.shape[0] == 0:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert diagnostics.slip_error(vel, obs, 0.0) == 0.0
            assert any("empty" in str(w.message) for w in caught)


# --------------------------------------------------------------- ledger

def test_ledger_zero_run():
    g = Grid(8, 8)
    params = SchemeParams(dt=0.05, t_final=0.5)
    res = scheme.run(VelocityField.zeros(g), PressureField.zeros(g),
                     lambda t, grid: VelocityField.zeros(grid), None, params)
    report = diagnostics.energy_ledger_check(res.records, params,
                                             initial_kinetic=0.0)
    assert report.max_total == 0.0
    assert report.all_finite


def test_ledger_monotone_for_decaying_vortex():
    g = Grid(24, 24)
    mu = 0.05
    params = SchemeParams(dt=0.02, t_final=0.5, mu=mu)
    v0 = taylor_green_velocity(0.0, g, mu)
    res = scheme.run(v0, taylor_green_pressure(0.0, g, mu),
                     lambda t, grid: VelocityField.zeros(grid), None, params)
    report = diagnostics.energy_ledger_check(
        res.records, params, initial_kinetic=diagnostics.kinetic_energy(v0))
    assert report.kinetic_monotone
    assert report.max_kinetic_increase <= 1e-10
    assert report.all_finite
    assert all(v >= 0 for v in report.totals.values())


def test_record_validation_rejects_nonfinite():
    rec = diagnostics.DiagnosticsRecord(
        n=1, t=0.1, kinetic_energy=float("nan"), div_norm=0, grad_norm=0,
        pressure_norm=0, pressure_grad_norm=0, increment_norm=0,
        pressure_increment_norm=0, penalization_energy=0, slip_error=0,
        prediction_iterations=0, correction_iterations=0)
    with pytest.raises(ValueError):
        rec.validate()
