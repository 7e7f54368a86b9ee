"""The benchmark's checks accept a real round and reject corrupted outputs.

    python3 -m pytest bench/test_checks.py

One mover-64 round (about 3 s) supplies the outputs; each test corrupts a
copy of them in one way and expects the check that guards it to fail.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run

MOVER = run.WORKLOADS["mover-64"]
H = 1.0 / MOVER["nx"]


@pytest.fixture(scope="module")
def clean_round(tmp_path_factory):
    round_dir = str(tmp_path_factory.mktemp("mover"))
    with open(os.path.join(round_dir, "run.ini"), "w", encoding="utf-8") as fh:
        fh.write(run.ini_text(MOVER))
    return round_dir, run.run_worker("run", round_dir, 0)


@pytest.fixture
def round_copy(clean_round, tmp_path):
    src, result = clean_round
    dst = str(tmp_path / "round")
    shutil.copytree(src, dst)
    return dst, result


def _state(round_dir):
    return dict(np.load(os.path.join(round_dir, "final_state.npz")))


def _rewrite_state(round_dir, state):
    np.savez(os.path.join(round_dir, "final_state.npz"), **state)


def _disk_faces(t):
    cx = MOVER["center"][0] + MOVER["velocity"][0] * t
    cy = MOVER["center"][1] + MOVER["velocity"][1] * t
    nx = MOVER["nx"]
    xu, yu = np.meshgrid(np.arange(nx + 1) * H, (np.arange(nx) + 0.5) * H, indexing="ij")
    xv, yv = np.meshgrid((np.arange(nx) + 0.5) * H, np.arange(nx + 1) * H, indexing="ij")
    return (np.hypot(xu - cx, yu - cy) <= run.RADIUS,
            np.hypot(xv - cx, yv - cy) <= run.RADIUS)


def test_clean_round_passes(round_copy):
    round_dir, result = round_copy
    run.check_round(MOVER, round_dir, result)


def test_scaled_div_norm_row_is_rejected(round_copy):
    round_dir, result = round_copy
    path = os.path.join(round_dir, "out", "diagnostics.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = lines[0].split(",").index("div_norm")
    fields = lines[5].split(",")
    fields[k] = "%.17g" % (float(fields[k]) * (1.0 + 1e-9))
    lines[5] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="row 5: div_norm"):
        run.check_round(MOVER, round_dir, result)


def test_missing_csv_row_is_rejected(round_copy):
    round_dir, result = round_copy
    path = os.path.join(round_dir, "out", "diagnostics.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed, match="rows, expected floor"):
        run.check_round(MOVER, round_dir, result)


def test_csv_row_with_missing_field_is_rejected(round_copy):
    round_dir, result = round_copy
    path = os.path.join(round_dir, "out", "diagnostics.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="missing field"):
        run.check_round(MOVER, round_dir, result)


def test_perturbed_v_hat_is_rejected(round_copy):
    round_dir, result = round_copy
    state = _state(round_dir)
    state["v_hat"] = state["v_hat"] * (1.0 + 1e-3)
    _rewrite_state(round_dir, state)
    with pytest.raises(checks.CheckFailed, match="correction residual"):
        run.check_round(MOVER, round_dir, result)


@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_core_velocity_off_by_one_percent_is_rejected(round_copy, factor):
    round_dir, _ = round_copy
    state = _state(round_dir)
    t = float(state["t"])
    args = (H, H, t, MOVER["center"], MOVER["velocity"], run.OMEGA, run.RADIUS,
            MOVER["core_tol"])
    checks.check_rigid_core(state["u"], state["v"], *args)
    in_u, in_v = _disk_faces(t)
    u = np.where(in_u, factor * state["u"], state["u"])
    v = np.where(in_v, factor * state["v"], state["v"])
    with pytest.raises(checks.CheckFailed, match="disk core error"):
        checks.check_rigid_core(u, v, *args)


def test_truncated_vtk_is_rejected(round_copy):
    round_dir, result = round_copy
    out = os.path.join(round_dir, "out")
    path = os.path.join(out, sorted(f for f in os.listdir(out) if f.endswith(".vtk"))[-1])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(checks.CheckFailed, match="lines, expected"):
        run.check_round(MOVER, round_dir, result)


def test_missing_vtk_is_rejected(round_copy):
    round_dir, result = round_copy
    out = os.path.join(round_dir, "out")
    os.remove(os.path.join(out, sorted(f for f in os.listdir(out) if f.endswith(".vtk"))[3]))
    with pytest.raises(checks.CheckFailed, match="VTK files, expected"):
        run.check_round(MOVER, round_dir, result)


def _criteria():
    details = {"A3": {"slope": 1.0}, "A4": {"errors": [1e-2, 1e-4, 1e-6, 1e-8]},
               "A7": {"two_snapshot_value": 0.5}}
    return [{"name": name, "passed": True, "details": details.get(name, {})}
            for name in checks.CRITERIA]


def test_all_passing_criteria_are_accepted():
    checks.check_verify(_criteria())


def test_fail_verdict_is_rejected():
    results = _criteria()
    results[4]["passed"] = False
    with pytest.raises(checks.CheckFailed, match=r"criteria failed: \['A5'\]"):
        checks.check_verify(results)


def test_pass_verdict_against_the_oracle_data_is_rejected():
    results = _criteria()
    results[3]["details"]["errors"] = [1e-2, 1e-4, 1e-4, 1e-8]
    with pytest.raises(checks.CheckFailed, match="A4 oracle errors"):
        checks.check_verify(results)


def test_missing_criterion_is_rejected():
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_verify(_criteria()[:-1])


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    bench = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
