"""Acceptance suite: one test per criterion, one printed line each.

A1 and A5 gate the upper-bound rates of the paper's stability estimates as
lower edges on the measured exponents; the scheme may do better than a
bound, so the windows' upper edges are reported, not gated (see the
criterion docstrings). The unit tests at the end check those gate rules on
synthetic inputs, including series with no eps or eta dependence, which
the gates must reject.
"""

import math
import os
import subprocess
import sys

import pytest

import vppflow
from vppflow.acceptance import a1_passes, a5_passes, run_criterion
from vppflow.diagnostics import fit_exponent, observed_order

# stated wall-clock budgets (seconds)
BUDGETS = {"A1": 120.0, "A4": 5.0, "A5": 600.0, "A8": 10.0}


def _check(name):
    res = run_criterion(name)
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] {res.name}: {res.summary} ({res.elapsed:.1f}s)")
    for key, val in res.details.items():
        print(f"    {key}: {val}")
    if name in BUDGETS:
        assert res.elapsed <= BUDGETS[name], \
            f"{name} exceeded its runtime budget: {res.elapsed:.1f}s"
    assert res.passed, f"{res.name}: {res.summary}"
    return res


def test_a1_divergence_eps_scaling():
    _check("A1")


def test_a2_energy_stability():
    _check("A2")


def test_a3_manufactured_convergence():
    _check("A3")


def test_a4_splitting_limit_oracle_equivalence():
    res = _check("A4")
    # the reported companion: the split step converges like eps
    assert len(res.details["cauchy_differences"]) == 3
    assert math.isclose(res.details["cauchy_slope"], 1.0, abs_tol=0.05)


def test_a5_penalization_slip_scaling():
    _check("A5")


def test_a6_interior_rigid_motion():
    _check("A6")


def test_a7_translation_estimator():
    _check("A7")


def test_a8_operator_algebra():
    _check("A8")


# ------------------------------------------------------- random instances

RANDOM_CRITERIA = ("A4", "A7", "A8")
RUN_CONFIGURATION_MODULES = ("configparser", "vppflow.config", "vppflow.experiments")


def test_random_criteria_are_reproducible_in_one_process():
    # each criterion seeds its own stream, so neither a second run nor the
    # order of the runs changes a number
    first = {name: run_criterion(name) for name in RANDOM_CRITERIA}
    for name in reversed(RANDOM_CRITERIA):
        again = run_criterion(name)
        assert again.summary == first[name].summary
        assert again.details == first[name].details


def test_random_criteria_load_no_numpy_random():
    # numpy.random brings secrets, hashlib and OpenSSL's libcrypto (some
    # 6 MB resident) on first use; the criteria draw from NormalStream
    code = ("import sys; from vppflow import acceptance; "
            f"[acceptance.run_criterion(n) for n in {RANDOM_CRITERIA!r}]; "
            "print('numpy.random' in sys.modules)")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_rate_criteria_load_no_run_configuration_code():
    # the fits of A1, A3 and A5 live in diagnostics, so the criteria compile
    # neither the INI parser nor the run drivers
    code = ("import sys; from vppflow import acceptance; "
            "[acceptance.run_criterion(n) for n in ('A1', 'A3', 'A5')]; "
            f"print([m for m in {RUN_CONFIGURATION_MODULES!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------ gate rules

ETAS = [1e-2, 1e-3, 1e-4, 1e-5]


def test_observed_order_recovers_exponent_despite_floor():
    for s in (0.5, 0.909, 1.5):
        ys = [3.0 * eta**s + 6.5e-4 for eta in ETAS]
        assert math.isclose(observed_order(ETAS, ys), s, abs_tol=1e-12)
        # the raw slope is dragged towards 0 by the floor
        assert fit_exponent(ETAS, ys)[0] < s


def test_observed_order_rejects_flat_and_non_monotone_series():
    assert observed_order(ETAS, [6.5e-4] * 4) is None
    assert observed_order(ETAS, [1e-3, 7e-4, 8e-4, 6e-4]) is None


def test_a1_gate_bounds_stated_slope_and_windows_companion():
    assert a1_passes(1.153, 0.439)           # measured: better than the bound
    assert not a1_passes(0.178, -0.406)      # eps not tied to dt
    assert not a1_passes(0.0, 0.5)           # no eps dependence on stated data
    assert not a1_passes(1.153, 0.0)         # no eps dependence on companion
    assert not a1_passes(1.153, 0.9)         # companion window is two-sided


def test_a5_gate_accepts_measured_series_and_rejects_flat_ones():
    slips = [1.170e-3, 7.227e-4, 6.608e-4, 6.540e-4]
    pens = [5.321e-6, 1.544e-7, 2.009e-9, 2.080e-11]
    assert a5_passes(observed_order(ETAS, slips), fit_exponent(ETAS, pens)[0])
    # a prediction that ignores eta: every slip and penalization value equal
    flat_slip = [6.540e-4] * 4
    flat_pen = [2.0e-9] * 4
    assert not a5_passes(observed_order(ETAS, flat_slip),
                         fit_exponent(ETAS, flat_pen)[0])
    assert not a5_passes(observed_order(ETAS, slips),
                         fit_exponent(ETAS, flat_pen)[0])
    assert not a5_passes(observed_order(ETAS, flat_slip),
                         fit_exponent(ETAS, pens)[0])
    assert not a5_passes(0.2, 1.811)         # slip order below the bound


def test_fit_exponent_rejects_degenerate_abscissae():
    with pytest.raises(ValueError, match="two distinct positive"):
        fit_exponent([0.02, 0.02, 0.02], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="two distinct positive"):
        fit_exponent([0.0, 0.01], [1.0, 2.0])
    for xs in ([0.5], []):
        with pytest.raises(ValueError, match="two distinct positive"):
            fit_exponent(xs, [1.0] * len(xs))
