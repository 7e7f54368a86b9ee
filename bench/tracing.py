"""Span tracing of vppflow's public functions, installed at run time.

The tracer wraps functions of the already imported vppflow modules: every
module-level name bound to a wrapped function is rebound to the wrapper,
so calls through `linalg.solve` and through a name imported with
`from .diagnostics import ...` are both seen. Nothing in the package's
files changes. A function that a later version no longer has is skipped
and its metrics read 0.

Each span records its name, start, end (perf_counter seconds) and the
index of its parent span. Spans stay in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute, span name). Class methods are given as "Class.method".
# linalg.solve, the two writers and acceptance.run_criterion are wrapped
# in Tracer.install, since they also name spans or count.
TARGETS = [
    ("vppflow.config", "load_config_file", "config.load_config_file"),
    ("vppflow.scheme", "step", "scheme.step"),
    ("vppflow.scheme", "predict", "scheme.predict"),
    ("vppflow.scheme", "correct", "scheme.correct"),
    ("vppflow.scheme", "update_pressure", "scheme.update_pressure"),
    ("vppflow.linalg", "assemble_prediction", "linalg.assemble_prediction"),
    ("vppflow.linalg", "convection_matrix", "linalg.convection_matrix"),
    ("vppflow.linalg", "assemble_correction", "linalg.assemble_correction"),
    ("vppflow.obstacle", "Obstacle.sample_chi_faces", "obstacle.sample_chi_faces"),
    ("vppflow.obstacle", "Obstacle.sample_solid_velocity", "obstacle.sample_solid_velocity"),
    ("vppflow.obstacle", "Obstacle.boundary_band", "obstacle.boundary_band"),
    ("vppflow.diagnostics", "make_record", "diagnostics.make_record"),
    ("vppflow.diagnostics", "slip_error", "diagnostics.slip_error"),
    ("vppflow.diagnostics", "penalization_energy", "diagnostics.penalization_energy"),
    ("vppflow.diagnostics", "nikolskii_translation", "diagnostics.nikolskii_translation"),
    ("vppflow.reference", "coupled_step", "reference.coupled_step"),
]

# solves are named after the scheme stage that encloses them
SOLVE_STAGES = {"scheme.predict": "linalg.solve.prediction",
                "scheme.correct": "linalg.solve.correction"}

class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def enclosing(self, names):
        for idx in reversed(self._stack):
            if self.spans[idx][0] in names:
                return self.spans[idx][0]
        return None

    def wrap(self, fn, name_of, after=None):
        """Wrapper recording one span per call.

        name_of is the span name, or a function of (args, kwargs) giving
        it; after(name, args, result) runs once the call has returned.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if callable(name_of) else name_of
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(name, args, result)
            return result
        return wrapper

    def install(self):
        """Wrap the targets in every loaded vppflow module."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "vppflow" or name.startswith("vppflow.")]
        wrapped = [(mod, attr, span, None) for mod, attr, span in TARGETS] + [
            ("vppflow.linalg", "solve",
             lambda a, k: SOLVE_STAGES.get(self.enclosing(SOLVE_STAGES), "linalg.solve.other"),
             lambda name, a, result: self.count(name + ".iters", int(result[1]))),
            ("vppflow.experiments", "write_vtk", "experiments.write_vtk", self._count_bytes),
            ("vppflow.experiments", "write_records_csv", "experiments.write_records_csv",
             self._count_bytes),
            ("vppflow.acceptance", "run_criterion",
             lambda a, k: "acceptance." + (a[0] if a else k["name"]), None),
        ]
        for mod_name, attr, span, after in wrapped:
            mod = sys.modules.get(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self.wrap(vars(cls)[meth], span, after))
                continue
            original = getattr(mod, attr, None)
            if original is not None:
                _rebind(mods, original, self.wrap(original, span, after))

    def _count_bytes(self, name, args, result):
        self.count("experiments.output_bytes", os.path.getsize(args[0]))

    # ------------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total ms and self ms (total minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            s["calls"] += 1
            s["total_ms"] += 1e3 * (end - start)
            s["self_ms"] += 1e3 * (end - start - child[k])
        return out

def _rebind(mods, original, wrapper):
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)


def layer_metrics(summary, counters, names):
    """Per-layer metrics of one round from its span summary and counters.

    `<span>.ms` and `<span>.s` are the span's total time, `<span>.calls`
    its call count, and any other name is a counter. A layer the round
    did not call reads 0.
    """
    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind == "ms":
            out[metric] = summary.get(base, {}).get("total_ms", 0.0)
        elif kind == "s":
            out[metric] = summary.get(base, {}).get("total_ms", 0.0) / 1e3
        elif kind == "calls":
            out[metric] = summary.get(base, {}).get("calls", 0)
        else:
            out[metric] = counters.get(metric, 0)
    return out
