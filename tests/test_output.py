"""The %.17g kernel of the VTK writer, the CSV rows of a failed run, and
what a dumping run imports.

g17.write must print every float exactly as _FMT % float(x) does: the
tests compare the bytes against that, value by value, on normals, a wide
exponent range, random bit patterns, exact ties and the edges of the
kernel's range, where it hands values back to _FMT.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import vppflow
from vppflow import g17, linalg
from vppflow.cli import main
from vppflow.experiments import _FMT
from vppflow.linalg import NonConvergence


def kernel_bytes(values, seps=(b"\n",)):
    buf = io.BytesIO()
    g17.write(buf, np.asarray(values, dtype=np.float64), seps)
    return buf.getvalue()


def reference_bytes(values, seps=(b"\n",)):
    return b"".join((_FMT % v).encode() + seps[i % len(seps)]
                    for i, v in enumerate(np.asarray(values, dtype=np.float64).tolist()))


def assert_formats_like_percent(values, seps=(b"\n",)):
    values = np.asarray(values, dtype=np.float64)
    got, want = kernel_bytes(values, seps), reference_bytes(values, seps)
    if got != want:
        rows = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(b"\n"),
                                             want.split(b"\n")) if g != w]
        raise AssertionError(f"{len(rows)} values differ, e.g. {rows[:3]}")


def in_blocks(values, size=100_000):
    for start in range(0, len(values), size):
        assert_formats_like_percent(values[start:start + size])


def test_normals_match_percent_formatting(rng):
    in_blocks(rng.standard_normal(1_000_000))


def test_wide_exponents_match_percent_formatting(rng):
    sign = rng.choice([-1.0, 1.0], 1_000_000)
    in_blocks(sign * 10.0 ** rng.uniform(-40.0, 40.0, 1_000_000))


@pytest.mark.parametrize("sign_bit", [0, -2**63])
def test_random_bit_patterns_match_percent_formatting(rng, sign_bit):
    bits = rng.integers(0, 2**63, 1_000_000, dtype=np.int64) | np.int64(sign_bit)
    in_blocks(bits.view(np.float64))


def test_exact_ties_match_percent_formatting(rng):
    # x = k 2^(X-17) with k odd and 10^X <= x < 10^(X+1) is (2D + 1)/2
    # times 10^(X-16), D of 17 digits, as 2 x 10^(16-X) = k 5^(16-X) is
    # odd: a tie, rounded half-even (X = -8 gives the ties k 2^-25)
    ties = []
    for x in range(-8, 16):
        lo, hi = (-(-(2 ** (17 - x)) * 10 ** max(e, 0) // 10 ** max(-e, 0))
                  for e in (x, x + 1))
        k = rng.integers(lo // 2, min(hi, 2**53) // 2, 5000) * 2 + 1
        ties.append(np.ldexp(k[(k >= lo) & (k < hi)].astype(np.float64), x - 17))
    ties = np.concatenate(ties)
    assert ties.size > 100_000
    in_blocks(np.concatenate([ties, -ties]))


def test_edges_of_the_kernel_range_match_percent_formatting():
    powers = 10.0 ** np.arange(-323, 309)
    special = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
               np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                         2.225073858507201e-308, 1.7976931348623157e308, 1e-250, 1e250,
                         np.nextafter(1e-250, 0.0), np.nextafter(1e250, np.inf)]),
               np.ldexp(np.arange(1.0, 2000.0), -1074),           # subnormals
               np.arange(0.0, 20000.0, 10.0), 2.0 ** np.arange(0, 64)]
    values = np.concatenate(special)
    assert_formats_like_percent(np.concatenate([values, -values]))


def test_separators_are_joined_in_order(rng):
    # the VTK vector rows: "u v 0", the pairs split across chunk boundaries
    values = rng.standard_normal(2 * g17.CHUNK + 6)
    assert_formats_like_percent(values, (b" ", b" 0\n"))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 64), elements=st.floats(width=64)))
def test_any_float_array_matches_percent_formatting(values):
    assert_formats_like_percent(values)


# ------------------------------------------------------------ failed runs

SOLVER_RUN = """
[grid]
nx = 8
ny = 8
[scheme]
dt = 0.01
T = 0.05
[initial]
type = taylor-green
[output]
csv = rows.csv
"""


def test_solver_failure_keeps_the_rows_of_finished_steps(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SOLVER_RUN)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "full"), "--quiet"]) == 0
    full = (tmp_path / "full" / "rows.csv").read_bytes().splitlines(keepends=True)
    assert len(full) == 6

    solve = linalg.solve
    calls = []

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise NonConvergence("injected", 1.0, 7)
        return solve(*args, **kwargs)
    monkeypatch.setattr(linalg, "solve", failing_third)
    out = tmp_path / "cut"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "prediction solve failed at step 3" in capsys.readouterr().err
    assert (out / "rows.csv").read_bytes().splitlines(keepends=True) == full[:3]
    assert "solver failure" in (out / "PARTIAL_OUTPUT").read_text()


# ------------------------------------------------------------ import weight

MOVER_RUN = """
[grid]
nx = 16
ny = 16
[scheme]
dt = 0.02
T = 0.08
[obstacle]
shape = disk
radius = 0.15
center_x = 0.4
center_y = 0.5
vel_x = 0.5
omega = 1.0
chi_mode = fraction
[output]
dump_every = 2
"""


def loaded_after_run(tmp_path, ini_text, names):
    """The modules of names that a fresh interpreter has loaded after a
    `vppflow run` of ini_text, and the run's output directory."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini_text)
    out = tmp_path / "out"
    code = ("import sys; from vppflow.cli import main; "
            f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}, '--quiet']) == 0; "
            f"print(sorted(m for m in {names!r} if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return res.stdout.strip(), out


def test_a_dumping_run_imports_no_heavy_module(tmp_path):
    # the kernel's tables come from Python ints, not fractions or decimal,
    # and the run calls nothing that loads numpy.ma or numpy.random; each
    # costs a run milliseconds at its first use
    loaded, out = loaded_after_run(tmp_path, MOVER_RUN,
                                   ("fractions", "decimal", "numpy.ma", "numpy.random"))
    assert loaded == "[]"
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "fields_000000.vtk",
                                       "fields_000002.vtk", "fields_000004.vtk"]


def test_a_run_without_dumps_does_not_load_the_kernel(tmp_path):
    # loading g17, and compiling it where no bytecode is cached, costs a
    # run that writes only its CSV memory and time for nothing
    loaded, out = loaded_after_run(tmp_path, SOLVER_RUN, ("vppflow.g17",))
    assert loaded == "[]"
    assert os.listdir(out) == ["rows.csv"]
