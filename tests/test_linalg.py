import dataclasses
import importlib.machinery
import inspect
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import vppflow
from oracles import (assemble_correction, bicgstab, convection_matrix, dirichlet_laplacian,
                     divergence_coo, divergence_matrix, from_scipy, gradient_matrix,
                     jacobi_bicgstab, strain_divergence, strain_energy_matrix,
                     strain_energy_reference, to_scipy, u_index, v_index)
from vppflow import linalg, operators, reference
from vppflow.grid import Grid, PressureField, VelocityField
from vppflow.linalg import NonConvergence, face_layout
from vppflow.obstacle import Obstacle
from vppflow.scheme import SchemeParams


def params_for(dt=0.05, mu=1e-2, lam=1.0, eta=1e-6):
    return SchemeParams(dt=dt, t_final=10 * dt, lam=lam, eta=eta, mu=mu)


def assembled(grid, params, adv, chi=None):
    """The prediction operator assembled into fresh buffers."""
    return linalg.assemble_prediction(linalg.PredictionBuffers(grid, params), adv, chi)


def random_packed(grid, rng):
    return rng.standard_normal(face_layout(grid).n)


# ----------------------------------------------------------------- layout

def test_pack_unpack_roundtrip(rng):
    g = Grid(6, 4)
    layout = face_layout(g)
    x = rng.standard_normal(layout.n)
    vel = layout.unpack(x)
    assert np.array_equal(layout.pack(vel), x)
    assert np.abs(vel.u[0, :]).max() == 0.0
    assert np.abs(vel.v[:, -1]).max() == 0.0


# --------------------------------------------------------------- prediction

def test_prediction_reduces_to_scaled_identity():
    # no advection, no obstacle, vanishing viscosity: operator = I/dt
    g = Grid(5, 5)
    params = params_for(dt=0.02, mu=1e-30)
    op = to_scipy(assembled(g, params, VelocityField.zeros(g)))
    eye = sp.identity(op.shape[0]) / params.dt
    assert abs(op - eye).max() <= 1e-12 / params.dt


def test_convection_quadratic_form_vanishes(rng):
    g = Grid(7, 6)
    layout = face_layout(g)
    for _ in range(20):
        adv = layout.unpack(rng.standard_normal(layout.n))
        c = to_scipy(convection_matrix(g, adv))
        w = rng.standard_normal(layout.n)
        quad = abs(w @ (c @ w))
        assert quad <= 1e-10 * (np.linalg.norm(c @ w) * np.linalg.norm(w) + 1e-30)


def _slow_convection_dense(grid, vel_prev):
    """Divergence-form flux matrix built entry by entry, then antisymmetrized.

    Independent of the vectorized assembly: plain loops over faces and an
    explicit dense transpose.
    """
    layout = face_layout(grid)
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    up, vp = vel_prev.u, vel_prev.v
    k = np.zeros((layout.n, layout.n))

    def uidx(i, j):
        return u_index(layout, i, j) if 1 <= i <= nx - 1 else None

    def vidx(i, j):
        return v_index(layout, i, j) if 1 <= j <= ny - 1 else None

    for i in range(1, nx):
        for j in range(ny):
            row = u_index(layout, i, j)
            uc_e = 0.5 * (up[i, j] + up[i + 1, j])
            uc_w = 0.5 * (up[i - 1, j] + up[i, j])
            for col, val in ((uidx(i, j), (uc_e - uc_w) / (2 * hx)),
                             (uidx(i + 1, j), uc_e / (2 * hx)),
                             (uidx(i - 1, j), -uc_w / (2 * hx))):
                if col is not None:
                    k[row, col] += val
            if j + 1 < ny:
                vn = 0.5 * (vp[i - 1, j + 1] + vp[i, j + 1])
                k[row, u_index(layout, i, j)] += vn / (2 * hy)
                k[row, u_index(layout, i, j + 1)] += vn / (2 * hy)
            if j > 0:
                vs = 0.5 * (vp[i - 1, j] + vp[i, j])
                k[row, u_index(layout, i, j)] -= vs / (2 * hy)
                k[row, u_index(layout, i, j - 1)] -= vs / (2 * hy)
    for i in range(nx):
        for j in range(1, ny):
            row = v_index(layout, i, j)
            vc_n = 0.5 * (vp[i, j] + vp[i, j + 1])
            vc_s = 0.5 * (vp[i, j - 1] + vp[i, j])
            for col, val in ((vidx(i, j), (vc_n - vc_s) / (2 * hy)),
                             (vidx(i, j + 1), vc_n / (2 * hy)),
                             (vidx(i, j - 1), -vc_s / (2 * hy))):
                if col is not None:
                    k[row, col] += val
            if i + 1 < nx:
                ue = 0.5 * (up[i + 1, j - 1] + up[i + 1, j])
                k[row, v_index(layout, i, j)] += ue / (2 * hx)
                k[row, v_index(layout, i + 1, j)] += ue / (2 * hx)
            if i > 0:
                uw = 0.5 * (up[i, j - 1] + up[i, j])
                k[row, v_index(layout, i, j)] -= uw / (2 * hx)
                k[row, v_index(layout, i - 1, j)] -= uw / (2 * hx)
    return 0.5 * (k - k.T)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 12),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       log10_mu=st.floats(-4.0, 0.0), log10_eta=st.floats(-8.0, 0.0),
       log10_dt=st.floats(-4.0, -1.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=1.0, log10_mu=-2.0, log10_eta=-6.0, log10_dt=-2.0, seed=0)
def test_prediction_assembly_on_the_strain_pattern(nx, ny, lx, ly, log10_mu, log10_eta,
                                                   log10_dt, seed):
    g = Grid(nx, ny, lx, ly)
    layout = face_layout(g)
    rng = np.random.default_rng(seed)
    adv = layout.unpack(rng.standard_normal(layout.n))
    params = SchemeParams(dt=10.0 ** log10_dt, t_final=1.0, eta=10.0 ** log10_eta,
                          mu=10.0 ** log10_mu)
    chi = rng.uniform(0.0, 1.0, layout.n)

    c = to_scipy(convection_matrix(g, adv))
    assert np.array_equal(c.toarray(), _slow_convection_dense(g, adv))

    s = strain_energy_matrix(g)
    a = assembled(g, params, adv, layout.unpack(chi))
    assert np.array_equal(a.indptr, s.indptr)
    assert np.array_equal(a.indices, s.indices)
    summed = c + params.mu * to_scipy(s) + sp.diags(1.0 / params.dt + chi / params.eta)
    assert np.array_equal(to_scipy(a).toarray(), summed.toarray())

    # the index arrays are the pattern cached per grid: in-place pattern edits
    # must fail instead of corrupting every later assembly
    with pytest.raises(ValueError):
        a.indices[0] = 1
    with pytest.raises(ValueError):
        a.indptr[-1] = 0
    again = assembled(g, params, adv, layout.unpack(chi))
    assert np.array_equal(to_scipy(again).toarray(), to_scipy(a).toarray())
    assert np.array_equal(again.indices, s.indices)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), log10_mu=st.floats(-5.0, 1.0))
@example(nx=2, ny=2, lx=1.0, ly=0.7, log10_mu=0.0)
@example(nx=9, ny=4, lx=2.5, ly=0.4, log10_mu=-2.0)
def test_closed_form_viscous_diagonal_is_that_of_mu_s(nx, ny, lx, ly, log10_mu):
    # the self slots are rebuilt from _strain_diagonal, not from a kept copy
    # of mu diag(S): it must be the diagonal of S scaled as data *= mu
    # scales it, bit for bit
    g = Grid(nx, ny, lx, ly)
    mu = 10.0 ** log10_mu
    scaled = strain_energy_matrix(g).data.copy()
    scaled *= mu
    read = np.concatenate([scaled[s] for s in linalg._nine_slot_pattern(g)[2]])
    closed = np.concatenate([plane.ravel() for plane in linalg._strain_diagonal(g, mu)])
    assert closed.tobytes() == read.tobytes()
    assert all(not plane.flags.writeable for plane in linalg._strain_diagonal(g, mu))


def self_slots(grid, data):
    """The self-slot entries of 9-slot data, in row order."""
    return np.concatenate([data[s] for s in linalg._nine_slot_pattern(grid)[2]])


def test_self_slots_are_rebuilt_only_for_another_chi(rng, monkeypatch):
    # assemble_prediction rewrites the self slots and Jacobi inverse only
    # when chi is not the object they were last built for; the buffers keep
    # that field itself and no packed copy of it or of mu diag(S)
    g = Grid(11, 7, 1.3, 0.8)
    layout = face_layout(g)
    params = params_for()
    chi = layout.unpack(rng.uniform(0.0, 1.0, layout.n))
    adv, adv_next = (layout.unpack(rng.standard_normal(layout.n)) for _ in range(2))
    builds = []
    jacobi = linalg._jacobi

    def counting(diagonal):
        builds.append(1)
        return jacobi(diagonal)
    monkeypatch.setattr(linalg, "_jacobi", counting)

    buffers = linalg.PredictionBuffers(g, params)
    linalg.assemble_prediction(buffers, adv, chi)
    assert buffers.chi is chi and len(builds) == 1
    # the same object: minv and the self slots are left as they are
    buffers.minv[:] = np.nan
    for s in linalg._nine_slot_pattern(g)[2]:
        buffers.data[s] = np.nan
    linalg.assemble_prediction(buffers, adv_next, chi)
    assert len(builds) == 1
    assert np.isnan(buffers.minv).all() and np.isnan(self_slots(g, buffers.data)).all()

    # another object with equal values: rebuilt, to the bits of fresh buffers
    equal = VelocityField(g, chi.u.copy(), chi.v.copy())
    a = linalg.assemble_prediction(buffers, adv_next, equal)
    assert len(builds) == 2 and buffers.chi is equal
    fresh_buffers = linalg.PredictionBuffers(g, params)
    fresh = linalg.assemble_prediction(fresh_buffers, adv_next, chi)
    assert a.data.tobytes() == fresh.data.tobytes()
    assert buffers.minv.tobytes() == fresh_buffers.minv.tobytes()
    assert self_slots(g, a.data).tobytes() == to_scipy(a).diagonal().tobytes()
    held = [value for value in vars(buffers).values() if isinstance(value, np.ndarray)]
    assert sorted(arr.size for arr in held) == [layout.n, 4 * layout.n, 9 * layout.n]

    # None -> field -> None rebuilds once at each change; fresh buffers
    # build for None too
    builds.clear()
    buffers = linalg.PredictionBuffers(g, params)
    for mask, total in ((None, 1), (None, 1), (chi, 2), (chi, 2), (None, 3), (None, 3)):
        a = linalg.assemble_prediction(buffers, adv, mask)
        assert len(builds) == total
        assert buffers.chi is mask
    no_obstacle = assembled(g, params, adv)
    assert a.data.tobytes() == no_obstacle.data.tobytes()


def folded(m):
    """Canonical copy of a 9-slot matrix: duplicates summed, zeros dropped."""
    f = m.copy()
    f.sum_duplicates()
    f.eliminate_zeros()
    return f


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, seed=0)
def test_nine_slot_layout(nx, ny, lx, ly, seed):
    # every row of S, C and the prediction operator holds nine slots: the
    # real couplings in increasing column order, and a missing wall
    # neighbour as an explicit zero at the row's own column
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    layout = face_layout(g)
    n = layout.n
    rng = np.random.default_rng(seed)
    adv = layout.unpack(rng.standard_normal(n))
    chi = layout.unpack(rng.uniform(0.0, 1.0, n))
    s = strain_energy_matrix(g)
    c = convection_matrix(g, adv)
    a = assembled(g, params_for(), adv, chi)

    assert np.array_equal(s.indptr, 9 * np.arange(n + 1))
    cols = s.indices.reshape(n, 9)
    rows = np.arange(n)[:, None]
    self_slot = np.where(rows < layout.nu, 2, 6)
    assert np.array_equal(np.take_along_axis(cols, self_slot, axis=1), rows)
    padded = (cols == rows) & (np.arange(9) != self_slot)
    for r in range(n):
        assert np.all(np.diff(cols[r][~padded[r]]) > 0)
    for m in (s, c, a):
        assert np.all(m.data.reshape(n, 9)[padded] == 0.0)

    for m in (c, a):
        assert np.shares_memory(m.indices, s.indices)
        assert np.shares_memory(m.indptr, s.indptr)
    for m in (s, c, a):
        for arr in (m.indptr, m.indices, m.data):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.data = m.data.copy()

    x = rng.standard_normal(n)
    for m in (s, c, a):
        assert np.array_equal(linalg._matvec(m, x), folded(to_scipy(m)) @ x)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0))
@example(nx=2, ny=2, lx=1.0, ly=0.7)
def test_in_place_strain_build_is_the_index_grid_build(nx, ny, lx, ly):
    # the slot planes written from arange index grids hold the bytes of the
    # stacked, padded int64 index grids they replace
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    s, ref = strain_energy_matrix(g), strain_energy_reference(g)
    assert s.shape == ref.shape
    for field in ("indptr", "indices", "data"):
        got, want = getattr(s, field), getattr(ref, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    rows = np.concatenate([ref.indices[s] for s in linalg._nine_slot_pattern(g)[2]])
    assert np.array_equal(rows, np.arange(ref.shape[0]))


def test_operator_builds_peak_close_to_what_they_keep():
    # S and the prediction buffers are written straight into the arrays
    # they keep: building them needs less than a quarter of one 9n float
    # array on top. The grid is one no other test builds
    g = Grid(96, 96)
    n = face_layout(g).n
    kept, excess = [], {}
    params = params_for()

    def prediction_buffers(grid):
        return linalg.PredictionBuffers(grid, params)
    tracemalloc.start()
    try:
        for build in (strain_energy_matrix, prediction_buffers):
            tracemalloc.reset_peak()
            kept.append(build(g))
            current, peak = tracemalloc.get_traced_memory()
            excess[build.__name__] = peak - current
    finally:
        tracemalloc.stop()
    assert max(excess.values()) < 9 * n * 8 / 4, excess


def test_prediction_matches_matrix_free_residual_oracle(rng):
    # residual map evaluated through independent code paths:
    # loop-built convection, the strain_divergence stencil, explicit masks
    g = Grid(4, 4, 1.1, 0.9)
    layout = face_layout(g)
    params = params_for(dt=0.04, mu=0.3, eta=1e-3)
    adv = layout.unpack(rng.standard_normal(layout.n))
    obstacle = Obstacle(radius=0.25, center=(0.5, 0.5))
    chi_u, chi_v = obstacle.sample_chi_faces(0.04, g)
    op = assembled(g, params, adv, VelocityField(g, chi_u, chi_v))

    c_dense = _slow_convection_dense(g, adv)

    for _ in range(5):
        x = rng.standard_normal(layout.n)
        w = layout.unpack(x)
        visc = strain_divergence(w, params.mu)
        residual = (x / params.dt
                    + c_dense @ x
                    - layout.pack(visc)
                    + layout.pack(VelocityField(g, chi_u * w.u, chi_v * w.v)) / params.eta)
        applied = to_scipy(op) @ x
        assert np.abs(applied - residual).max() <= 1e-10 * np.abs(residual).max()


def test_prediction_coercivity(rng):
    g = Grid(6, 6)
    layout = face_layout(g)
    params = params_for(dt=0.02, mu=0.05)
    adv = layout.unpack(rng.standard_normal(layout.n))
    op = to_scipy(assembled(g, params, adv))
    for _ in range(20):
        x = rng.standard_normal(layout.n)
        assert x @ (op @ x) >= (1.0 / params.dt) * (x @ x) * (1 - 1e-12)


def test_prediction_rejects_nonfinite_advecting_field():
    g = Grid(4, 4)
    bad = VelocityField.zeros(g)
    bad.u[2, 2] = np.nan
    with pytest.raises(ValueError):
        assembled(g, params_for(), bad)


def test_prediction_rejects_an_advecting_field_of_another_grid():
    # the same array shapes on another domain would assemble without error
    buffers = linalg.PredictionBuffers(Grid(4, 4), params_for())
    with pytest.raises(ValueError, match="buffers built for"):
        linalg.assemble_prediction(buffers, VelocityField.zeros(Grid(4, 4, lx=2.0)))


# --------------------------------------------------------------- correction

def test_correction_matches_operator_composition(rng):
    g = Grid(8, 8)
    layout = face_layout(g)
    params = params_for(dt=0.05, lam=0.8)
    op = assemble_correction(g, params)
    p = PressureField(g, rng.standard_normal(g.shape_p)).project_mean_zero()
    gp = operators.gradient(p)
    x = layout.pack(gp)
    applied = op @ x
    expect_field = ((params.epsilon / params.dt) * gp
                    - operators.gradient(operators.divergence(gp)))
    expect = layout.pack(expect_field)
    assert np.abs(applied - expect).max() <= 1e-12 * np.abs(expect).max()


def test_correction_symmetry_and_definiteness(rng):
    g = Grid(7, 5)
    op = assemble_correction(g, params_for(dt=0.03, lam=1.3))
    for _ in range(20):
        x = random_packed(g, rng)
        y = random_packed(g, rng)
        sym = abs(x @ (op @ y) - y @ (op @ x))
        assert sym <= 1e-12 * (np.linalg.norm(op @ x) * np.linalg.norm(y) + 1e-30)
        assert x @ (op @ x) > 0.0


def test_correction_rejects_nonpositive_epsilon():
    g = Grid(4, 4)

    class FakeParams:
        dt = 0.1
        epsilon = 0.0

    with pytest.raises(ValueError):
        assemble_correction(g, FakeParams())


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       log10_lam=st.floats(-8.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=1.0, log10_lam=-8.0, seed=0)
def test_solve_correction_is_exact_on_every_grid(nx, ny, lx, ly, log10_lam, seed):
    g = Grid(nx, ny, lx, ly)
    layout = face_layout(g)
    params = params_for(dt=1.0, lam=10.0 ** log10_lam)
    lam = params.epsilon / params.dt
    v_tilde = np.random.default_rng(seed).standard_normal(layout.n)
    v_hat = linalg.solve_correction(g, lam, v_tilde)

    a = assemble_correction(g, params)
    d = to_scipy(divergence_matrix(g))
    dtd = d.T @ (d @ v_tilde)
    assert np.linalg.norm(a @ v_hat + dtd) <= 1e-12 * np.linalg.norm(dtd)

    # v_hat is a discrete gradient, so its curl vanishes to roundoff
    scale = np.abs(v_hat).max() / min(g.hx, g.hy)
    assert np.abs(operators.curl(layout.unpack(v_hat))).max() <= 1e-12 * scale

    # a dense LU is a trustworthy second oracle only while lam keeps the
    # operator well conditioned; its forward error grows like cond * eps
    if lam >= 1e-2 and layout.n <= 400:
        ref = np.linalg.solve(a.toarray(), -dtd)
        cond = 1.0 + linalg.neumann_eigenvalues(g).max() / lam
        tol = 10.0 * cond * np.finfo(float).eps
        assert np.linalg.norm(v_hat - ref) <= tol * np.linalg.norm(ref)


def test_solve_correction_rejects_nonpositive_lambda():
    g = Grid(4, 4)
    with pytest.raises(ValueError):
        linalg.solve_correction(g, 0.0, random_packed(g, np.random.default_rng(0)))


# ------------------------------------------------------------------- solver

def test_solve_zero_rhs_returns_zero_without_iterating():
    g = Grid(6, 6)
    op = from_scipy(assemble_correction(g, params_for()))
    x, iters = jacobi_bicgstab(op, np.zeros(op.shape[0]), 1e-10, 10000)
    assert iters == 0
    assert np.abs(x).max() == 0.0


def test_solve_identity_in_one_iteration(rng):
    g = Grid(5, 5)
    n = face_layout(g).n
    b = rng.standard_normal(n)
    x, iters = jacobi_bicgstab(from_scipy(sp.identity(n, format="csr")), b, 1e-10, 10000)
    assert iters <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_solve_matches_dense_factorization(rng):
    g = Grid(8, 8)
    op = assemble_correction(g, params_for(dt=0.02))
    b = random_packed(g, rng)
    x, _ = jacobi_bicgstab(from_scipy(op), b, 1e-12, 10000)
    x_ref = np.linalg.solve(op.toarray(), b)
    assert np.abs(x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()


def test_solve_accepts_warm_start(rng):
    g = Grid(8, 8)
    op = assemble_correction(g, params_for(dt=0.02))
    b = random_packed(g, rng)
    x_ref = np.linalg.solve(op.toarray(), b)
    x, iters = jacobi_bicgstab(from_scipy(op), b, 1e-10, 10000, x0=x_ref)
    assert iters == 0
    assert np.allclose(x, x_ref)


def test_solve_reports_residual_on_nonconvergence(rng):
    g = Grid(8, 8)
    op = from_scipy(assemble_correction(g, params_for(dt=0.02)))
    b = random_packed(g, rng)
    with pytest.raises(NonConvergence) as excinfo:
        jacobi_bicgstab(op, b, 1e-14, 2)
    assert excinfo.value.residual > 0
    assert excinfo.value.iterations == 2


@pytest.mark.parametrize("case", ["rhs-nan", "rhs-inf", "x0-nan"])
def test_solve_stops_at_a_non_finite_residual(rng, case):
    # nan compares false with the tolerance, so without the finiteness test
    # a nan rhs ran all max_iter iterations before reporting it
    g = Grid(8, 8)
    buffers = linalg.PredictionBuffers(g, dataclasses.replace(params_for(), prediction_rtol=1e-10))
    a = linalg.assemble_prediction(buffers, VelocityField.zeros(g))
    b = random_packed(g, rng)
    x0 = None
    if case == "x0-nan":
        x0 = random_packed(g, rng)
        x0[5] = np.nan
    else:
        b[5] = np.nan if case == "rhs-nan" else np.inf
    with pytest.raises(NonConvergence, match="not finite") as excinfo:
        linalg.solve(buffers, b, x0)
    assert not np.isfinite(excinfo.value.residual)
    assert excinfo.value.iterations <= 1
    with pytest.raises(NonConvergence) as oracle_info:
        bicgstab(to_scipy(a), b, 1e-10, 20000, x0)
    assert oracle_info.value.iterations == excinfo.value.iterations


def _solver_case(nx, ny, lx, ly, log10_dt, log10_eta, log10_rtol, binary, warm, seed):
    """A prediction system on a random grid with a fraction or binary chi,
    started cold or from a random x0, and the buffers it is assembled in."""
    g = Grid(nx, ny, lx, ly)
    layout = face_layout(g)
    rng = np.random.default_rng(seed)
    params = SchemeParams(dt=10.0 ** log10_dt, t_final=1.0, eta=10.0 ** log10_eta,
                          prediction_rtol=10.0 ** log10_rtol, max_iter=500)
    adv = layout.unpack(rng.standard_normal(layout.n))
    chi = rng.uniform(0.0, 1.0, layout.n)
    if binary:
        chi = np.round(chi)
    buffers = linalg.PredictionBuffers(g, params)
    a = linalg.assemble_prediction(buffers, adv, layout.unpack(chi))
    b = rng.standard_normal(layout.n)
    x0 = rng.standard_normal(layout.n) if warm else None
    return a, b, params.prediction_rtol, params.max_iter, x0, buffers


def _assert_solve_matches_oracle(a, b, rtol, max_iter, x0, buffers):
    """linalg.solve, at the rtol and max_iter of the buffers' params, gives
    bitwise the x, the iteration count or the failure of the allocating
    reference; returns the reference's branch events."""
    events = []
    try:
        x_ref, iters_ref = bicgstab(to_scipy(a), b, rtol, max_iter, x0, events)
    except NonConvergence as exc:
        with pytest.raises(NonConvergence) as excinfo:
            linalg.solve(buffers, b, x0)
        assert excinfo.value.residual == exc.residual
        assert excinfo.value.iterations == exc.iterations
        return events
    x, iters = linalg.solve(buffers, b, x0)
    assert iters == iters_ref
    assert np.array_equal(x, x_ref)
    return events


# each reaches the half-step exit ||s|| <= tol; the warm ones also restart
# from the true residual, after the half step and after the full step
EXIT_CASES = [
    dict(nx=4, ny=3, lx=1.0, ly=0.8, log10_dt=-2, log10_eta=-6, log10_rtol=-10,
         binary=True, warm=False, seed=2),
    dict(nx=2, ny=2, lx=1.0, ly=0.8, log10_dt=-2, log10_eta=-8, log10_rtol=-11,
         binary=False, warm=True, seed=32),
    dict(nx=2, ny=3, lx=1.0, ly=0.8, log10_dt=-3, log10_eta=-8, log10_rtol=-9,
         binary=True, warm=True, seed=54),
]


def test_solver_cases_reach_both_exits():
    events = [_assert_solve_matches_oracle(*_solver_case(**case)) for case in EXIT_CASES]
    assert events[0] == ["s_exit"]
    assert events[1][:2] == ["s_exit", "restart"]
    assert events[2][0] == "restart"


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 12),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       log10_dt=st.floats(-4.0, -1.0), log10_eta=st.floats(-8.0, 0.0),
       log10_rtol=st.floats(-13.0, -6.0), binary=st.booleans(), warm=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_solve_is_bitwise_the_allocating_bicgstab(nx, ny, lx, ly, log10_dt, log10_eta,
                                                   log10_rtol, binary, warm, seed):
    _assert_solve_matches_oracle(*_solver_case(nx, ny, lx, ly, log10_dt, log10_eta,
                                               log10_rtol, binary, warm, seed))


def test_solve_leaves_its_inputs_alone(rng):
    # scheme.predict reuses the packed arrays of FlowState.earlier, so the
    # solver may neither write into rhs and x0 nor hand them back
    a, b, _, _, x0, buffers = _solver_case(6, 5, 1.0, 0.8, -2, -6, -8, False, True, 7)
    x_exact = np.linalg.solve(to_scipy(a).toarray(), b)
    for start in (None, x0, x_exact):
        rhs = b.copy()
        guess = None if start is None else start.copy()
        x, iters = linalg.solve(buffers, rhs, x0=guess)
        assert np.array_equal(rhs, b)
        assert not np.shares_memory(x, rhs)
        if start is not None:
            assert np.array_equal(guess, start)
            assert not np.shares_memory(x, guess)
    assert iters == 0        # the exact start returns at once, as a copy


def _prediction_case(rng, **params):
    """Buffers on an 8x8 grid holding an advecting prediction operator,
    with a right-hand side that takes 10 to 30 iterations."""
    g = Grid(8, 8)
    layout = face_layout(g)
    buffers = linalg.PredictionBuffers(g, dataclasses.replace(params_for(mu=0.5), **params))
    a = linalg.assemble_prediction(buffers, layout.unpack(rng.standard_normal(layout.n)))
    return a, buffers, rng.standard_normal(layout.n)


def test_solve_stops_at_the_max_iter_of_the_buffers_params(rng):
    _, buffers, b = _prediction_case(rng, prediction_rtol=1e-10)
    assert linalg.solve(buffers, b)[1] > 1
    _, buffers, b = _prediction_case(rng, prediction_rtol=1e-10, max_iter=1)
    with pytest.raises(NonConvergence) as excinfo:
        linalg.solve(buffers, b)
    assert excinfo.value.iterations == 1


def test_solve_stops_at_the_rtol_of_the_buffers_params(rng):
    # bitwise the BiCGStab at that rtol, and a looser rtol stops sooner
    counts = []
    for rtol in (1e-4, 1e-12):
        a, buffers, b = _prediction_case(rng, prediction_rtol=rtol)
        x, iters = linalg.solve(buffers, b)
        x_ref, iters_ref = linalg._bicgstab(a, b, rtol, buffers.params.max_iter, None,
                                            buffers.minv, np.empty((4, b.shape[0])))
        assert iters == iters_ref and x.tobytes() == x_ref.tobytes()
        counts.append(iters)
    assert 0 < counts[0] < counts[1]


def test_solve_with_buffers_matches_the_solve_without(rng):
    # the run's buffers carry the Jacobi inverse and work vectors of the
    # operator assembled into them
    g = Grid(7, 5, 1.1, 0.8)
    layout = face_layout(g)
    params = dataclasses.replace(params_for(), prediction_rtol=1e-10, max_iter=10000)
    adv = layout.unpack(rng.standard_normal(layout.n))
    buffers = linalg.PredictionBuffers(g, params)
    linalg.assemble_prediction(buffers, adv)
    b = rng.standard_normal(layout.n)
    x, iters = linalg.solve(buffers, b)
    x_ref, iters_ref = jacobi_bicgstab(assembled(g, params, adv), b, 1e-10, 10000)
    assert iters == iters_ref and np.array_equal(x, x_ref)


def _matvec_operators(grid, rng):
    layout = face_layout(grid)
    params = params_for()
    adv = layout.unpack(rng.standard_normal(layout.n))
    return {
        "S": strain_energy_matrix(grid),
        "prediction": assembled(grid, params, adv,
                                layout.unpack(rng.uniform(0.0, 1.0, layout.n))),
        "D": divergence_matrix(grid),
        "G": gradient_matrix(grid),
        "correction": from_scipy(assemble_correction(grid, params)),
        "identity": from_scipy(sp.identity(layout.n, format="csr")),
    }


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(2, 24), ny=st.integers(2, 24),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, seed=0)
def test_matvec_is_bitwise_the_scipy_product(nx, ny, lx, ly, seed):
    g = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    for name, a in _matvec_operators(g, rng).items():
        x = rng.standard_normal(a.shape[1])
        expect = to_scipy(a) @ x
        assert np.array_equal(linalg._matvec(a, x), expect), name
        if name in ("S", "prediction"):
            assert self_slots(g, a.data).tobytes() == to_scipy(a).diagonal().tobytes(), name
        assert a.toarray().tobytes() == to_scipy(a).toarray().tobytes(), name

        # a reused output is cleared first, not added to
        out = np.full(a.shape[0], np.nan)
        assert linalg._matvec(a, x, out) is out
        assert np.array_equal(out, expect), name

        strided = np.repeat(x, 2)[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(linalg._matvec(a, strided), expect), name

        wide = linalg.Csr(a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data,
                          a.shape)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        assert np.array_equal(linalg._matvec(wide, x), expect), name


def test_matvec_rejects_outputs_it_would_not_write():
    a = strain_energy_matrix(Grid(4, 3))
    n = a.shape[0]
    x = np.ones(n)
    for out in (np.zeros(n, dtype=np.float32), np.zeros(n + 1), np.zeros(2 * n)[::2],
                np.zeros((n, 1))):
        with pytest.raises(ValueError):
            linalg._matvec(a, x, out)
    for bad_x in (np.ones(n - 1), np.ones((n, 1))):
        with pytest.raises(ValueError):
            linalg._matvec(a, bad_x)


def test_csr_rejects_arrays_the_kernel_would_misread():
    # the kernel checks no structure: a short indptr or index array, or
    # index arrays of two integer types, must fail at construction
    a = divergence_matrix(Grid(3, 2))
    for indptr, indices, data, shape in (
            (a.indptr[:-1], a.indices, a.data, a.shape),
            (a.indptr, a.indices[:-1], a.data[:-1], a.shape),
            (a.indptr, a.indices, a.data[:-1], a.shape),
            (a.indptr, a.indices.astype(np.int64), a.data, a.shape),
            (a.indptr.astype(np.float64), a.indices.astype(np.float64), a.data, a.shape)):
        with pytest.raises(ValueError):
            linalg.Csr(indptr, indices, data, shape)


def test_scipy_private_api_is_imported_once():
    # the raw CSR kernel is the one private scipy dependency: loaded by file
    # path in _load_csr_matvec, and _matvec its one caller. No other source
    # line may name scipy, so a second dependency cannot creep in unseen
    src = os.path.dirname(vppflow.__file__)
    loader = inspect.getsource(linalg._load_csr_matvec).splitlines()
    hits, calls = [], []
    for root, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    for line in fh:
                        if "scipy" in line:
                            hits.append((name, line.rstrip("\n") in loader))
                        if re.search(r"\bcsr_matvec\(", line):
                            calls.append(name)
    assert hits and set(hits) == {("linalg.py", True)}
    assert calls == ["linalg.py"]
    assert linalg.csr_matvec.__module__ == "_sparsetools"


def test_kernel_load_names_the_path_it_searched(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError) as excinfo:
        linalg._load_csr_matvec()
    assert os.path.join("scipy", "sparse", "_sparsetools") in str(excinfo.value)
    assert ".missing" in str(excinfo.value)


def test_package_import_loads_no_scipy_module():
    code = ("import sys, vppflow, vppflow.experiments, vppflow.acceptance, vppflow.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


THREAD_SCRIPT = """
import os, sys
from vppflow import config, experiments
cfg = config.load_config("[grid]\\nnx = 16\\nny = 16\\n[scheme]\\ndt = 0.0078125\\n"
                         "T = 0.015625\\n[obstacle]\\nshape = disk\\nradius = 0.15\\n"
                         "center_x = 0.5\\ncenter_y = 0.5\\nomega = 1.0\\n")
assert len(experiments.run_single(cfg, sys.argv[1]).run_result.records) == 2
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("threads, expected", [(None, "1 1"), ("2", "2 2")],
                         ids=["unset", "explicit"])
def test_package_import_defaults_blas_to_one_thread(tmp_path, threads, expected):
    # no solve calls BLAS, so importing vppflow before numpy keeps OpenBLAS
    # from starting its helper thread; a value the caller set wins. The
    # pytest process has imported vppflow, so its own environment already
    # holds the default: the child's is rebuilt without the thread variables
    if threads is not None and (os.cpu_count() or 1) < 2:
        pytest.skip("needs two CPUs for a second OpenBLAS thread")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", THREAD_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == expected


def test_a4_loads_no_numpy_ma():
    # fit_exponent checks its abscissae without np.unique, which imports
    # numpy.ma (about a megabyte) on first use
    code = ("import sys; from vppflow import acceptance; acceptance.run_criterion('A4'); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_solver_config_validation():
    # the prediction solve's settings are SchemeParams fields
    for rtol in (0.0, 1.0):
        with pytest.raises(ValueError, match="prediction_rtol"):
            SchemeParams(dt=0.1, t_final=1.0, prediction_rtol=rtol)
    with pytest.raises(ValueError, match="max_iter"):
        SchemeParams(dt=0.1, t_final=1.0, max_iter=0)


# ------------------------------------------------------- viscous matrix

def test_viscous_matrix_matches_stencil_and_is_symmetric(rng):
    for dims in [(5, 3, 1.3, 0.7), (6, 6, 1.0, 1.0)]:
        g = Grid(*dims)
        layout = face_layout(g)
        s = to_scipy(strain_energy_matrix(g))
        assert abs(s - s.T).max() == 0.0
        mu = 0.42
        vel = layout.unpack(rng.standard_normal(layout.n))
        applied = -(mu * s) @ layout.pack(vel)
        stencil = layout.pack(strain_divergence(vel, mu))
        assert np.abs(applied - stencil).max() <= 1e-11 * np.abs(stencil).max()


# ------------------------------------------------------ operator identities

@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0))
@example(nx=2, ny=2, lx=1.0, ly=0.7)
def test_gradient_is_exactly_minus_divergence_transpose(nx, ny, lx, ly):
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    grad = to_scipy(gradient_matrix(g))
    d = to_scipy(divergence_matrix(g))
    assert grad.shape == d.T.shape
    assert (grad != -d.T).nnz == 0


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, seed=0)
def test_closed_form_divergence_and_gradient_are_the_canonical_csr(nx, ny, lx, ly, seed):
    # the closed forms store the arrays scipy's canonical build gives: the
    # COO triplets converted to CSR, and (-D^T) converted back to CSR
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    d_ref = divergence_coo(g)
    g_ref = (-d_ref.T).tocsr()
    rng = np.random.default_rng(seed)
    for a, ref in ((divergence_matrix(g), d_ref), (gradient_matrix(g), g_ref)):
        assert a.shape == ref.shape
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, field), getattr(ref, field)), field
        assert a.data.tobytes() == ref.data.tobytes()
        x = rng.standard_normal(a.shape[1])
        assert np.array_equal(linalg._matvec(a, x), ref @ x)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, seed=0)
def test_stencils_are_bitwise_the_oracle_csr_products(nx, ny, lx, ly, seed):
    # apply_divergence and apply_gradient sum each row from a zero in the
    # storage order of the canonical CSR row, so they give the oracle
    # matrices' products byte for byte, the sign of a zero included, one
    # vector or a batch at a time
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    for apply, a in ((linalg.apply_divergence, divergence_matrix(g)),
                     (linalg.apply_gradient, gradient_matrix(g))):
        batch = rng.standard_normal((3, 2, a.shape[1]))
        batch[0, 0] = 0.0
        batch[0, 1] = -0.0
        batch[1, 0] = np.where(rng.random(a.shape[1]) < 0.5, 0.0, -0.0)
        batch[1, 1] = 1.0      # terms that cancel exactly
        got = apply(g, batch)
        assert got.shape == batch.shape[:-1] + (a.shape[0],)
        for x, y in zip(batch.reshape(-1, a.shape[1]), got.reshape(-1, a.shape[0])):
            assert y.tobytes() == linalg._matvec(a, x).tobytes()
            assert apply(g, x).tobytes() == y.tobytes()

    # the dense D and G of identity blocks, as reference.coupled_step takes
    # them, on the grids it accepts
    if g.ncells <= reference.MAX_CELLS:
        n = face_layout(g).n
        d = linalg.apply_divergence(g, np.eye(n)).T
        grad = linalg.apply_gradient(g, np.eye(g.ncells)).T
        assert d.tobytes() == divergence_matrix(g).toarray().tobytes()
        assert grad.tobytes() == gradient_matrix(g).toarray().tobytes()
        assert np.array_equal(grad, -d.T)


def test_stencils_reject_vectors_of_another_grid():
    g = Grid(4, 3)
    n = face_layout(g).n
    for bad in (np.ones(n - 1), np.ones((2, n + 1))):
        with pytest.raises(ValueError):
            linalg.apply_divergence(g, bad)
    for bad in (np.ones(g.ncells + 1), np.ones((2, n))):
        with pytest.raises(ValueError):
            linalg.apply_gradient(g, bad)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(2, 40), ny=st.integers(2, 40),
       lx=st.floats(0.3, 3.0), ly=st.floats(0.3, 3.0),
       dyadic=st.booleans(), log2_hx=st.integers(-6, 1), log2_hy=st.integers(-6, 1))
@example(nx=2, ny=2, lx=1.0, ly=0.7, dyadic=False, log2_hx=0, log2_hy=0)
@example(nx=2, ny=2, lx=1.0, ly=0.7, dyadic=True, log2_hx=-1, log2_hy=-2)
def test_strain_matrix_is_dirichlet_laplacian_plus_grad_div(nx, ny, lx, ly, dyadic,
                                                            log2_hx, log2_hy):
    # S = blockdiag(L_u, L_v) + D^T D: the strain energy splits into the
    # componentwise Dirichlet Laplacians and the grad-div part. With
    # power-of-two spacings every coefficient is exact and so is the
    # identity; otherwise the two sides round 1/h and 1/h^2 differently
    if dyadic:
        lx, ly = nx * 2.0 ** log2_hx, ny * 2.0 ** log2_hy
    assume(lx != ly)
    g = Grid(nx, ny, lx, ly)
    s = to_scipy(strain_energy_matrix(g))
    d = to_scipy(divergence_matrix(g))
    ref = (sp.block_diag([dirichlet_laplacian(g, "u"),
                          dirichlet_laplacian(g, "v")]) + d.T @ d).tocsr()
    ref.sort_indices()
    s = folded(s)
    assert np.array_equal(s.indptr, ref.indptr)
    assert np.array_equal(s.indices, ref.indices)
    if dyadic:
        assert np.array_equal(s.data, ref.data)
    else:
        assert np.all(np.abs(s.data - ref.data) <= 4 * np.finfo(float).eps * np.abs(ref.data))
