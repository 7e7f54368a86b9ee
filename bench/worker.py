"""One benchmark round in a fresh interpreter.

    python3 bench/worker.py --kind run|verify --dir ROUND_DIR --trace 0|1 [--setup-only]

Set-up is timed from just before `import vppflow` until the inputs exist:
for `run`, the configuration ROUND_DIR/run.ini loaded with
`config.load_config_file`; for `verify`, the import of the acceptance
module. The main call is `experiments.run_single` or `acceptance.run_all`,
timed in wall time and in process CPU time (all threads). The round writes
ROUND_DIR/result.json and, for `run`, the final state to
ROUND_DIR/final_state.npz, after the timed region.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("run", "verify"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    if args.kind == "run":
        from vppflow import config, experiments
    else:
        from vppflow import acceptance
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    if args.kind == "run":
        cfg = config.load_config_file(os.path.join(args.dir, "run.ini"))
        out_dir = os.path.join(args.dir, "out")
        os.makedirs(out_dir, exist_ok=True)
    setup_s = time.perf_counter() - t0

    import vppflow
    if not os.path.abspath(vppflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported vppflow from {vppflow.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if not args.setup_only:
        c0, w0 = time.process_time(), time.perf_counter()
        if args.kind == "run":
            res = experiments.run_single(cfg, out_dir)
        else:
            crits = acceptance.run_all()
        result["run_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.kind == "run":
            _save_state(args.dir, res)
        else:
            result["criteria"] = [
                {"name": c.name, "passed": bool(c.passed), "summary": c.summary,
                 "elapsed": c.elapsed, "details": c.details} for c in crits]
    if tracer is not None:
        result["summary"] = tracer.summary()
        result["counters"] = tracer.counters
        result["spans"] = tracer.spans
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=_jsonable)


def _save_state(round_dir, res):
    import numpy as np
    st = res.run_result.final_state
    np.savez(os.path.join(round_dir, "final_state.npz"),
             u=st.v.u, v=st.v.v, u_hat=st.v_hat.u, v_hat=st.v_hat.v, p=st.p.p,
             n=st.n, t=st.t, csv=os.path.relpath(res.csv_path, round_dir))


def _jsonable(obj):
    """numpy scalars and arrays in the criteria's details."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


if __name__ == "__main__":
    main()
