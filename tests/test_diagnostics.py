import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vppflow import diagnostics, operators, scheme
from vppflow.diagnostics import nikolskii_translation
from vppflow.grid import Grid, PressureField, VelocityField
from vppflow.manufactured import taylor_green_pressure, taylor_green_velocity
from vppflow.obstacle import Obstacle, ObstacleFrame
from vppflow.scheme import SchemeParams


# ------------------------------------------------------------------ l2 norm

def test_l2_norm_basic_values():
    g = Grid(16, 16)
    assert diagnostics.l2_norm(PressureField.zeros(g)) == 0.0
    ones = PressureField(g, np.ones(g.shape_p))
    assert diagnostics.l2_norm(ones) == pytest.approx(1.0)
    vel = VelocityField(g, np.ones(g.shape_u), np.ones(g.shape_v))
    assert diagnostics.l2_norm(vel) == pytest.approx(math.sqrt(2.0))


def test_l2_norm_of_sine_product():
    g = Grid(128, 128)
    x, y = g.cell_coords()
    f = PressureField(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    assert abs(diagnostics.l2_norm(f) - 0.5) <= 1e-3


# --------------------------------------------------- translation estimator

def test_translation_of_constant_series_is_zero():
    g = Grid(4, 4)
    snap = PressureField(g, np.full(g.shape_p, 2.0))
    for h in (0.1, 0.25, 0.9):
        assert nikolskii_translation([snap] * 8, 0.25, h) == 0.0


def test_translation_two_snapshot_hand_value():
    # u0 = 0, u1 = 1, dt = 1, T = 2, h = 1/2: the difference is nonzero on
    # an overlap of length h at the jump, so the integral is 0.5 * ||1||
    g = Grid(4, 4)
    snaps = [PressureField.zeros(g), PressureField(g, np.ones(g.shape_p))]
    val = nikolskii_translation(snaps, 1.0, 0.5)
    assert abs(val - 0.5) <= 1e-14


@pytest.mark.parametrize("h", [0.037, 0.1, 0.25, 0.4, 0.8, 1.3, 2.05])
def test_translation_matches_riemann_sum_oracle(h, rng):
    # brute-force oracle: sample the step function on a fine time lattice;
    # h = 0.8 is an exact multiple of dt
    g = Grid(3, 3)
    dt = 0.4
    snaps = [PressureField(g, rng.standard_normal(g.shape_p)) for _ in range(12)]
    t_end = dt * len(snaps) - h

    # the step function takes only a few distinct snapshot pairs
    @functools.cache
    def diff_norm(a, b):
        return diagnostics.l2_norm(snaps[a] - snaps[b])

    m = 200001
    ts = (np.arange(m) + 0.5) * (t_end / m)
    # the snapshot index of time t, clipped to the series
    later = np.minimum(np.floor((ts + h) / dt).astype(int), len(snaps) - 1)
    now = np.minimum(np.floor(ts / dt).astype(int), len(snaps) - 1)
    vals = np.array([diff_norm(a, b) for a, b in zip(later, now)])
    riemann = vals.sum() * (t_end / m)
    assert nikolskii_translation(snaps, dt, h) == pytest.approx(riemann, rel=2e-4)


def test_translation_scales_linearly_with_jumps(rng):
    g = Grid(4, 4)
    snaps = [PressureField(g, rng.standard_normal(g.shape_p)) for _ in range(6)]
    doubled = [s * 2.0 for s in snaps]
    for h in (0.2, 0.8):
        one = nikolskii_translation(snaps, 0.5, h)
        two = nikolskii_translation(doubled, 0.5, h)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_translation_rejects_offsets_outside_range():
    g = Grid(4, 4)
    snaps = [PressureField.zeros(g)] * 4
    with pytest.raises(ValueError):
        nikolskii_translation(snaps, 0.5, 2.0)
    with pytest.raises(ValueError):
        nikolskii_translation(snaps, 0.5, 0.0)
    with pytest.raises(ValueError):
        nikolskii_translation(snaps, 0.0, 0.5)
    with pytest.raises(ValueError):
        nikolskii_translation([], 0.5, 0.25)


# ------------------------------------------------------------ log-log rates

def _polyfit_line(xs, ys):
    """Slope and RMS log misfit of numpy's least-squares line, the
    reference for the closed form in fit_exponent."""
    lx, ly = np.log(xs), np.log(ys)
    coeffs = np.polyfit(lx, ly, 1)
    return coeffs[0], float(np.sqrt(np.mean((ly - np.polyval(coeffs, lx)) ** 2)))


# The tolerance is measured: over 2e4 examples of this strategy, the
# residuals differed from polyfit's by at most 2.4 e and the slopes by at
# most 3.5 e / sd, where e = eps (1 + my + |s| mx)(1 + mx / sd), mx and my
# are the largest |log x| and |log y|, s is the slope and sd the root sum
# of squares of the centered log x. The test allows 16 for both.
@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=6, unique=True),
       ys=st.lists(st.floats(1e-12, 1e12), min_size=6, max_size=6))
def test_fit_exponent_agrees_with_polyfit(xs, ys):
    lx = np.log(xs)
    assume(np.ptp(lx) >= 1e-2)
    ys = ys[:len(xs)]
    slope, residual = diagnostics.fit_exponent(xs, ys)
    ref_slope, ref_residual = _polyfit_line(xs, ys)
    mx, my = np.abs(lx).max(), np.abs(np.log(ys)).max()
    sd = math.sqrt(np.sum((lx - lx.mean()) ** 2))
    e = np.finfo(float).eps * (1.0 + my + abs(ref_slope) * mx) * (1.0 + mx / sd)
    assert abs(slope - ref_slope) <= 16.0 * e / sd
    assert abs(residual - ref_residual) <= 16.0 * e


def test_fits_run_no_lapack_routine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a log-log fit called a least-squares routine")

    for name in ("polyfit", "polyval"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    slope, residual = diagnostics.fit_exponent([1e-2, 1e-3, 1e-4], [4e-4, 4e-6, 4e-8])
    assert math.isclose(slope, 2.0, rel_tol=1e-14)
    assert residual <= 1e-14
    etas = [1e-2, 1e-3, 1e-4, 1e-5]
    order = diagnostics.observed_order(etas, [3.0 * eta**1.5 + 6.5e-4 for eta in etas])
    assert math.isclose(order, 1.5, abs_tol=1e-12)


def test_fit_exponent_of_non_positive_ordinates_is_nan():
    # the logs of y <= 0 are -inf or nan, and so is the line through them
    for ys in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0]):
        with pytest.warns(RuntimeWarning):
            slope, residual = diagnostics.fit_exponent([1.0, 2.0, 3.0], ys)
        assert math.isnan(slope) and math.isnan(residual)


def test_fit_exponent_needs_one_ordinate_per_abscissa():
    # a single y would broadcast against every x to a flat line
    for ys in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="one ordinate per abscissa"):
            diagnostics.fit_exponent([0.1, 0.2], ys)


# ----------------------------------------------------------------- slip

ROTOR = Obstacle(radius=0.2, center=(0.5, 0.5), omega=1.0)
# translating and rotating: the center is (0.49, 0.39) at t = 0.3
MOVER = Obstacle(radius=0.2, center=(0.4, 0.45), velocity=(0.3, -0.2), omega=1.3)


def test_slip_error_zero_when_velocity_matches_solid():
    g = Grid(32, 32)
    for obs in (ROTOR, MOVER):
        frame = ObstacleFrame.sample(obs, 0.3, g)
        assert frame.band.shape[0] > 0
        assert diagnostics.slip_error(obs.sample_solid_velocity(0.3, g), frame) <= 1e-28


def test_frame_band_velocity_is_the_penalized_solid_velocity():
    # slip is measured against the v_s the faces are penalized towards:
    # averaged to the band's cell centres, the face v_s is band_vs bit for bit
    g = Grid(32, 24, 1.0, 0.9)
    frame = ObstacleFrame.sample(MOVER, 0.3, g)
    uc, vc = operators.velocity_at_cell_centers(frame.vs)
    ii, jj = frame.band[:, 0], frame.band[:, 1]
    assert np.array_equal(frame.band, MOVER.boundary_band(0.3, g))
    assert np.array_equal(frame.band_vs[0], uc[ii, jj])
    assert np.array_equal(frame.band_vs[1], vc[ii, jj])


def test_slip_error_approximates_circumference():
    # |v - v_s| = 1 on the band: the integral is the circle length 2 pi r
    g = Grid(64, 64)
    r = 0.2
    frame = ObstacleFrame.sample(Obstacle(radius=r, center=(0.5, 0.5)), 0.0, g)
    vel = VelocityField(g, np.ones(g.shape_u), np.zeros(g.shape_v))
    est = diagnostics.slip_error(vel, frame)
    assert abs(est - 2 * math.pi * r) <= 0.15 * 2 * math.pi * r


def test_slip_error_ignores_fields_away_from_band(rng):
    g = Grid(64, 64)
    frame = ObstacleFrame.sample(Obstacle(radius=0.15, center=(0.5, 0.5), omega=1.0),
                                 0.0, g)
    vel = VelocityField(g, rng.standard_normal(g.shape_u),
                        rng.standard_normal(g.shape_v))
    base = diagnostics.slip_error(vel, frame)
    # perturb only far outside the band (near the domain corner)
    far = VelocityField(g, vel.u.copy(), vel.v.copy())
    far.u[:5, :5] += 100.0
    assert diagnostics.slip_error(far, frame) == pytest.approx(base)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 64), ny=st.integers(2, 64),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       fx=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       fy=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       fr=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(nx=2, ny=2, lx=1.0, ly=1.0, fx=0.5, fy=0.5, fr=1e-6)
def test_every_disk_that_fits_has_a_nonempty_boundary_band(nx, ny, lx, ly, fx, fy, fr):
    # a circle point inside the domain lies within half a cell diagonal of
    # the center of its cell, so that cell is in the one-diagonal band
    g = Grid(nx, ny, lx, ly)
    cx, cy = fx * lx, fy * ly
    r = fr * min(cx, lx - cx, cy, ly - cy)
    assume(r > 0)
    obs = Obstacle(radius=r, center=(cx, cy))
    assume(obs.clearance(g, 0.0) > 0)
    assert obs.boundary_band(0.0, g).shape[0] > 0


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
