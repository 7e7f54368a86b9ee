"""vppflow benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload rotor-128|mover-64|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. Each round is a fresh interpreter (bench/worker.py) that
sets up, makes the workload's main call once and exits. Rounds repeat
until the next one would end after S seconds (at least one round); every
round's outputs are checked (bench/checks.py) and then deleted.

With --trace 0 the last line of stdout is a JSON object holding the
medians over the rounds of the end-to-end metrics of BENCHMARK.json. With
--trace 1 the rounds run under the span tracer (bench/tracing.py) and the
object holds the medians of its per-layer metrics; the spans go to
.bench_out/. The workloads have no random inputs, so --seed only names the
files a run leaves in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from tracing import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# the settings shared by both flow workloads (README "Workloads")
DT, LAM, MU, ETA = 0.0078125, 1.0, 1e-2, 1e-6
RADIUS, OMEGA = 0.15, 1.0
CORRECTION_RTOL = 1e-10

# core_tol bounds the rigid-core error by a share of max|v_s|. Measured:
# 2.6e-4 on rotor-128 and 3.7e-3 on mover-64; disk velocities off by 1%
# give 1.1e-2 on mover-64.
WORKLOADS = {
    "rotor-128": {"nx": 128, "steps": 16, "center": (0.5, 0.5), "velocity": (0.0, 0.0),
                  "chi_mode": "binary", "dump_every": 0, "core_tol": 1e-3},
    "mover-64": {"nx": 64, "steps": 32, "center": (0.3, 0.5), "velocity": (0.6, 0.0),
                 "chi_mode": "fraction", "dump_every": 4, "core_tol": 6e-3},
    "verify": None,
}
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class RoundError(RuntimeError):
    """A worker exited with an error."""


def ini_text(w):
    return "\n".join([
        "[grid]", f"nx = {w['nx']}", f"ny = {w['nx']}",
        "[scheme]", f"dt = {DT!r}", f"T = {w['steps'] * DT!r}", f"lambda = {LAM!r}",
        f"eta = {ETA!r}", f"mu = {MU!r}",
        "[solver]", f"correction_rtol = {CORRECTION_RTOL!r}",
        "[obstacle]", "shape = disk", f"radius = {RADIUS!r}",
        f"center_x = {w['center'][0]!r}", f"center_y = {w['center'][1]!r}",
        f"vel_x = {w['velocity'][0]!r}", f"vel_y = {w['velocity'][1]!r}",
        f"omega = {OMEGA!r}", f"chi_mode = {w['chi_mode']}",
        "[output]", "csv = diagnostics.csv", f"dump_every = {w['dump_every']}",
        "",
    ])


def run_worker(kind, round_dir, trace, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--kind", kind,
           "--dir", round_dir, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(os.path.join(round_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def operations(w):
    """Operations in one round: time steps, or acceptance criteria."""
    return len(checks.CRITERIA) if w is None else w["steps"]


def new_round_dir(run_dir, name, w):
    round_dir = os.path.join(run_dir, name)
    os.makedirs(round_dir)
    if w is not None:
        with open(os.path.join(round_dir, "run.ini"), "w", encoding="utf-8") as fh:
            fh.write(ini_text(w))
    return round_dir


def check_round(w, round_dir, result):
    """Raise checks.CheckFailed unless the round's outputs are right."""
    try:
        if w is None:
            checks.check_verify(result["criteria"])
            return
        state = dict(np.load(os.path.join(round_dir, "final_state.npz")))
        n, h = w["steps"], 1.0 / w["nx"]
        header, rows = checks.read_csv(os.path.join(round_dir, str(state["csv"])))
        col = checks.check_csv(header, rows, n, DT, LAM * DT)
        last = {name: float(vals[-1]) for name, vals in col.items()}
        checks.check_final_state(state, last, h, h, LAM, CORRECTION_RTOL)
        checks.check_rigid_core(state["u"], state["v"], h, h, float(state["t"]),
                                w["center"], w["velocity"], OMEGA, RADIUS, w["core_tol"])
        if w["dump_every"]:
            checks.check_vtk_dumps(os.path.join(round_dir, "out"), n, w["dump_every"],
                                   w["nx"], w["nx"], h, h, DT, final=state)
    except (KeyError, ValueError, OSError) as exc:
        raise checks.CheckFailed(f"unreadable output: {exc!r}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vppflow", "__init__.py")):
        print(f"no vppflow sources under {os.path.join(ROOT, 'src')}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    kind = "verify" if w is None else "run"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)

    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    longest = 0.0
    try:
        while not rounds or time.perf_counter() - start + longest <= args.seconds:
            t0 = time.perf_counter()
            round_dir = new_round_dir(run_dir, f"round{len(rounds)}", w)
            attempted += operations(w)
            try:
                result = run_worker(kind, round_dir, args.trace)
            except (RoundError, subprocess.TimeoutExpired):
                failed += operations(w)
                raise
            check_round(w, round_dir, result)
            shutil.rmtree(round_dir)
            rounds.append(result)
            longest = max(longest, time.perf_counter() - t0)
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            round_dir = new_round_dir(run_dir, f"setup{len(setups)}", w)
            setups.append(run_worker(kind, round_dir, 0, setup_only=True)["setup_s"])
            shutil.rmtree(round_dir)
    except (RoundError, checks.CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    shutil.rmtree(run_dir)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        wanted = spec["per_layer"]
        names = [m["name"] for m in wanted]
        samples = {name: [] for name in names}
        for r in rounds:
            for name, value in layer_metrics(r["summary"], r["counters"], names).items():
                samples[name].append(value)
    else:
        wanted = spec["end_to_end"]
        samples = {name: [r[name] for r in rounds]
                   for name in ("run_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setups
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "setup_s": setups, "metrics": metrics,
                   "rounds": [{k: v for k, v in r.items() if k != "criteria"}
                              for r in rounds]}, fh)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
