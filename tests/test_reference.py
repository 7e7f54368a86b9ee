import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vppflow
from vppflow import diagnostics, operators, reference, scheme
from vppflow.grid import Grid, PressureField, VelocityField
from vppflow.manufactured import random_solenoidal
from vppflow.scheme import FlowState, SchemeParams


def zero_forcing_field(grid):
    return VelocityField.zeros(grid)


def test_zero_data_gives_zero_step():
    g = Grid(8, 8)
    params = SchemeParams(dt=0.05, t_final=0.1, mu=1.0)
    v, p = reference.coupled_step(VelocityField.zeros(g), zero_forcing_field(g),
                                  None, params)
    assert np.abs(v.u).max() == 0.0
    assert np.abs(p.p).max() == 0.0


def test_forced_box_step_is_divergence_free_and_symmetric():
    # constant horizontal force in a closed box: the step is linear in the
    # data (v0 = 0 kills the convection), so mirroring x and negating the
    # force maps the solution to itself: u is even and v odd across the
    # vertical midline
    g = Grid(8, 8)
    params = SchemeParams(dt=0.05, t_final=0.1, mu=1.0)
    f = VelocityField(g, np.ones(g.shape_u), np.zeros(g.shape_v))
    v, p = reference.coupled_step(VelocityField.zeros(g), f, None, params)
    assert diagnostics.l2_norm(operators.divergence(v)) <= 1e-10
    assert np.abs(v.u - v.u[::-1, :]).max() <= 1e-8
    assert np.abs(v.v + v.v[::-1, :]).max() <= 1e-8


def test_vpp_error_decreases_monotonically_with_eps(rng):
    g = Grid(8, 8)
    dt = 0.01
    v0 = random_solenoidal(g, rng, amplitude=0.01)
    p0 = PressureField.zeros(g)
    errs = []
    for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        params = SchemeParams(
            dt=dt, t_final=2 * dt, lam=eps / dt, mu=1e-3,
            prediction_rtol=1e-13, max_iter=50000)
        state = FlowState.initial(v0, p0)
        new, _ = scheme.step(state, lambda t, grid: VelocityField.zeros(grid),
                             None, params)
        v_ref, _ = reference.coupled_step(v0, zero_forcing_field(g), None, params)
        errs.append(math.sqrt(operators.inner(new.v - v_ref, new.v - v_ref)))
    # monotone decrease; at the smallest eps the per-decade change sits at
    # the iterative solvers' precision, hence the relative slack
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errs[:-1], errs[1:])), errs
    assert errs[-1] < errs[0]


def test_oracle_rejects_large_grids():
    g = Grid(48, 48)
    params = SchemeParams(dt=0.05, t_final=0.1)
    with pytest.raises(ValueError, match="restricted"):
        reference.coupled_step(VelocityField.zeros(g), zero_forcing_field(g),
                               None, params)


def test_oracle_pressure_is_mean_zero(rng):
    g = Grid(8, 8)
    params = SchemeParams(dt=0.02, t_final=0.1, mu=0.1)
    v0 = random_solenoidal(g, rng)
    _, p = reference.coupled_step(v0, zero_forcing_field(g), None, params)
    assert abs(p.p.mean()) <= 1e-12 * max(diagnostics.l2_norm(p), 1e-30)


@pytest.mark.parametrize("seed", range(12))
def test_dense_solve_matches_lapack(seed):
    # both are backward stable, so they agree to about cond * eps
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 201))
    mat = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    x = reference.solve_dense(mat, rhs)
    ref = np.linalg.solve(mat, rhs)
    tol = 1e-12 * max(1.0, np.linalg.cond(mat) / 1e3)
    assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


def test_dense_solve_pivots_past_a_zero_diagonal():
    mat = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [3.0, 1.0, 0.0]])
    rhs = np.array([1.0, 2.0, 3.0])
    assert np.allclose(mat @ reference.solve_dense(mat, rhs), rhs, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 4.0]],
                                 [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.0, 0.0, 5.0]]])
def test_dense_solve_rejects_singular_matrices(mat):
    mat = np.array(mat)
    with pytest.raises(np.linalg.LinAlgError):
        reference.solve_dense(mat, np.ones(mat.shape[0]))


ORACLE_SCRIPT = """
import sys
from vppflow import reference
from vppflow.grid import Grid, VelocityField
from vppflow.manufactured import NormalStream, random_solenoidal
from vppflow.scheme import SchemeParams
g = Grid(8, 8)
v0 = random_solenoidal(g, NormalStream(0), amplitude=0.01)
params = SchemeParams(dt=0.01, t_final=0.02, lam=1e-8, mu=1e-3)
v, p = reference.coupled_step(v0, VelocityField.zeros(g), None, params)
sys.stdout.buffer.write(v.u.tobytes() + v.v.tobytes() + p.p.tobytes())
"""


def test_oracle_does_not_depend_on_blas_thread_count():
    # the A4 oracle's solve, 8x8 as in the criterion; each run is a fresh
    # process because OpenBLAS reads the variable when it loads
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", ORACLE_SCRIPT], env=env,
                             capture_output=True, check=True, timeout=120)
        outputs.append(run.stdout)
    assert len(outputs[0]) == 8 * (9 * 8 + 8 * 9 + 8 * 8)
    assert outputs[0] == outputs[1]
