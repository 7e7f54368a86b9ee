"""Every function the benchmark's span tracer wraps exists in the package.

bench/tracing.py skips a target it cannot find, so its per-layer metric
would read 0 without any error; this test makes a renamed or removed
target fail instead. Two targets name functions that have left src/ on
purpose: linalg.assemble_correction (now tests/oracles.py) and
linalg.convection_matrix (now tests/oracles.py; the step writes the
convection into the prediction operator).
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
import tracing  # noqa: E402

LEFT_SRC = {("vppflow.linalg", "assemble_correction"),
            ("vppflow.linalg", "convection_matrix")}


@pytest.mark.parametrize("module, attr, span", tracing.TARGETS,
                         ids=[span for _, _, span in tracing.TARGETS])
def test_trace_target_resolves(module, attr, span):
    mod = importlib.import_module(module)
    if (module, attr) in LEFT_SRC:
        assert not hasattr(mod, attr), f"{module}.{attr} is back: wrap it again"
        return
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), span
    else:
        assert callable(getattr(mod, attr, None)), span


def test_names_wrapped_in_install_resolve():
    # Tracer.install wraps these by name beside TARGETS
    from vppflow import acceptance, experiments, linalg
    for fn in (linalg.solve, experiments.write_vtk, experiments.write_records_csv,
               acceptance.run_criterion):
        assert callable(fn)
