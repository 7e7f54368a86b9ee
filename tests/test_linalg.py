import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import vppflow
from oracles import bicgstab, dirichlet_laplacian, strain_divergence
from vppflow import linalg, operators
from vppflow.grid import Grid, PressureField, VelocityField
from vppflow.linalg import NonConvergence, SolverConfig, face_layout
from vppflow.obstacle import Obstacle
from vppflow.scheme import SchemeParams


def params_for(dt=0.05, mu=1e-2, lam=1.0, eta=1e-6):
    return SchemeParams(dt=dt, t_final=10 * dt, lam=lam, eta=eta, mu=mu)


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
    op = linalg.assemble_prediction(g, params, VelocityField.zeros(g))
    eye = sp.identity(op.shape[0]) / params.dt
    assert abs(op - eye).max() <= 1e-12 / params.dt


def test_convection_quadratic_form_vanishes(rng):
    g = Grid(7, 6)
    layout = face_layout(g)
    for _ in range(20):
        adv = layout.unpack(rng.standard_normal(layout.n))
        c = linalg.convection_matrix(g, adv)
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
        return layout.u_index(i, j) if 1 <= i <= nx - 1 else None

    def vidx(i, j):
        return layout.v_index(i, j) if 1 <= j <= ny - 1 else None

    for i in range(1, nx):
        for j in range(ny):
            row = layout.u_index(i, j)
            uc_e = 0.5 * (up[i, j] + up[i + 1, j])
            uc_w = 0.5 * (up[i - 1, j] + up[i, j])
            for col, val in ((uidx(i, j), (uc_e - uc_w) / (2 * hx)),
                             (uidx(i + 1, j), uc_e / (2 * hx)),
                             (uidx(i - 1, j), -uc_w / (2 * hx))):
                if col is not None:
                    k[row, col] += val
            if j + 1 < ny:
                vn = 0.5 * (vp[i - 1, j + 1] + vp[i, j + 1])
                k[row, layout.u_index(i, j)] += vn / (2 * hy)
                k[row, layout.u_index(i, j + 1)] += vn / (2 * hy)
            if j > 0:
                vs = 0.5 * (vp[i - 1, j] + vp[i, j])
                k[row, layout.u_index(i, j)] -= vs / (2 * hy)
                k[row, layout.u_index(i, j - 1)] -= vs / (2 * hy)
    for i in range(nx):
        for j in range(1, ny):
            row = layout.v_index(i, j)
            vc_n = 0.5 * (vp[i, j] + vp[i, j + 1])
            vc_s = 0.5 * (vp[i, j - 1] + vp[i, j])
            for col, val in ((vidx(i, j), (vc_n - vc_s) / (2 * hy)),
                             (vidx(i, j + 1), vc_n / (2 * hy)),
                             (vidx(i, j - 1), -vc_s / (2 * hy))):
                if col is not None:
                    k[row, col] += val
            if i + 1 < nx:
                ue = 0.5 * (up[i + 1, j - 1] + up[i + 1, j])
                k[row, layout.v_index(i, j)] += ue / (2 * hx)
                k[row, layout.v_index(i + 1, j)] += ue / (2 * hx)
            if i > 0:
                uw = 0.5 * (up[i, j - 1] + up[i, j])
                k[row, layout.v_index(i, j)] -= uw / (2 * hx)
                k[row, layout.v_index(i - 1, j)] -= uw / (2 * hx)
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

    c = linalg.convection_matrix(g, adv)
    assert np.array_equal(c.toarray(), _slow_convection_dense(g, adv))

    s = linalg.strain_energy_matrix(g)
    a = linalg.assemble_prediction(g, params, adv, chi)
    assert np.array_equal(a.indptr, s.indptr)
    assert np.array_equal(a.indices, s.indices)
    summed = c + params.mu * s + sp.diags(1.0 / params.dt + chi / params.eta)
    assert np.array_equal(a.toarray(), summed.toarray())

    # the index arrays are shared with the cached S: in-place pattern edits
    # must fail instead of corrupting every later assembly
    with pytest.raises(ValueError):
        a.eliminate_zeros()
    again = linalg.assemble_prediction(g, params, adv, chi)
    assert np.array_equal(again.toarray(), a.toarray())
    assert np.array_equal(again.indices, s.indices)


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
    chi = rng.uniform(0.0, 1.0, n)
    s = linalg.strain_energy_matrix(g)
    c = linalg.convection_matrix(g, adv)
    a = linalg.assemble_prediction(g, params_for(), adv, chi)

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
        assert not m.indices.flags.writeable and not m.indptr.flags.writeable
        with pytest.raises(ValueError):
            m.eliminate_zeros()
        with pytest.raises(ValueError):
            m.sum_duplicates()

    x = rng.standard_normal(n)
    for m in (s, c, a):
        assert np.array_equal(m @ x, folded(m) @ x)


def test_prediction_matches_matrix_free_residual_oracle(rng):
    # residual map evaluated through independent code paths:
    # loop-built convection, the strain_divergence stencil, explicit masks
    g = Grid(4, 4, 1.1, 0.9)
    layout = face_layout(g)
    params = params_for(dt=0.04, mu=0.3, eta=1e-3)
    adv = layout.unpack(rng.standard_normal(layout.n))
    obstacle = Obstacle(radius=0.25, center=(0.5, 0.5), t_max=1.0)
    chi_u, chi_v = obstacle.sample_chi_faces(0.04, g)
    op = linalg.assemble_prediction(g, params, adv, linalg.penalization_diagonal(chi_u, chi_v))

    c_dense = _slow_convection_dense(g, adv)

    for _ in range(5):
        x = rng.standard_normal(layout.n)
        w = layout.unpack(x)
        visc = strain_divergence(w, params.mu)
        residual = (x / params.dt
                    + c_dense @ x
                    - layout.pack(visc)
                    + linalg.penalization_diagonal(chi_u, chi_v) * x / params.eta)
        applied = op @ x
        assert np.abs(applied - residual).max() <= 1e-10 * np.abs(residual).max()


def test_prediction_coercivity(rng):
    g = Grid(6, 6)
    layout = face_layout(g)
    params = params_for(dt=0.02, mu=0.05)
    adv = layout.unpack(rng.standard_normal(layout.n))
    op = linalg.assemble_prediction(g, params, adv)
    for _ in range(20):
        x = rng.standard_normal(layout.n)
        assert x @ (op @ x) >= (1.0 / params.dt) * (x @ x) * (1 - 1e-12)


def test_prediction_rejects_nonfinite_advecting_field():
    g = Grid(4, 4)
    bad = VelocityField.zeros(g)
    bad.u[2, 2] = np.nan
    with pytest.raises(ValueError):
        linalg.assemble_prediction(g, params_for(), bad)


# --------------------------------------------------------------- correction

def test_correction_matches_operator_composition(rng):
    g = Grid(8, 8)
    layout = face_layout(g)
    params = params_for(dt=0.05, lam=0.8)
    op = linalg.assemble_correction(g, params)
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
    op = linalg.assemble_correction(g, params_for(dt=0.03, lam=1.3))
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
        linalg.assemble_correction(g, FakeParams())


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

    a = linalg.assemble_correction(g, params)
    d = linalg.divergence_matrix(g)
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
    op = linalg.assemble_correction(g, params_for())
    x, iters = linalg.solve(op, np.zeros(op.shape[0]), SolverConfig())
    assert iters == 0
    assert np.abs(x).max() == 0.0


def test_solve_identity_in_one_iteration(rng):
    g = Grid(5, 5)
    n = face_layout(g).n
    b = rng.standard_normal(n)
    x, iters = linalg.solve(sp.identity(n, format="csr"), b, SolverConfig())
    assert iters <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_solve_matches_dense_factorization(rng):
    g = Grid(8, 8)
    op = linalg.assemble_correction(g, params_for(dt=0.02))
    b = random_packed(g, rng)
    x, _ = linalg.solve(op, b, SolverConfig(rtol=1e-12, max_iter=10000))
    x_ref = np.linalg.solve(op.toarray(), b)
    assert np.abs(x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()


def test_solve_accepts_warm_start(rng):
    g = Grid(8, 8)
    op = linalg.assemble_correction(g, params_for(dt=0.02))
    b = random_packed(g, rng)
    x_ref = np.linalg.solve(op.toarray(), b)
    x, iters = linalg.solve(op, b, SolverConfig(rtol=1e-10), x0=x_ref)
    assert iters == 0
    assert np.allclose(x, x_ref)


def test_solve_reports_residual_on_nonconvergence(rng):
    g = Grid(8, 8)
    op = linalg.assemble_correction(g, params_for(dt=0.02))
    b = random_packed(g, rng)
    with pytest.raises(NonConvergence) as excinfo:
        linalg.solve(op, b, SolverConfig(rtol=1e-14, max_iter=2))
    assert excinfo.value.residual > 0
    assert excinfo.value.iterations == 2


def _solver_case(nx, ny, lx, ly, log10_dt, log10_eta, log10_rtol, binary, warm, seed):
    """A prediction system on a random grid with a fraction or binary chi,
    started cold or from a random x0."""
    g = Grid(nx, ny, lx, ly)
    layout = face_layout(g)
    rng = np.random.default_rng(seed)
    params = SchemeParams(dt=10.0 ** log10_dt, t_final=1.0, eta=10.0 ** log10_eta)
    adv = layout.unpack(rng.standard_normal(layout.n))
    chi = rng.uniform(0.0, 1.0, layout.n)
    if binary:
        chi = np.round(chi)
    a = linalg.assemble_prediction(g, params, adv, chi)
    b = rng.standard_normal(layout.n)
    x0 = rng.standard_normal(layout.n) if warm else None
    return a, b, SolverConfig(rtol=10.0 ** log10_rtol, max_iter=500), x0


def _assert_solve_matches_oracle(a, b, cfg, x0):
    """linalg.solve gives bitwise the x, the iteration count or the failure
    of the allocating reference; returns the reference's branch events."""
    events = []
    try:
        x_ref, iters_ref = bicgstab(a, b, cfg, x0, events)
    except NonConvergence as exc:
        with pytest.raises(NonConvergence) as excinfo:
            linalg.solve(a, b, cfg, x0)
        assert excinfo.value.residual == exc.residual
        assert excinfo.value.iterations == exc.iterations
        return events
    x, iters = linalg.solve(a, b, cfg, x0)
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
    a, b, cfg, x0 = _solver_case(6, 5, 1.0, 0.8, -2, -6, -8, False, True, 7)
    x_exact = np.linalg.solve(a.toarray(), b)
    for start in (None, x0, x_exact):
        rhs = b.copy()
        guess = None if start is None else start.copy()
        x, iters = linalg.solve(a, rhs, cfg, x0=guess)
        assert np.array_equal(rhs, b)
        assert not np.shares_memory(x, rhs)
        if start is not None:
            assert np.array_equal(guess, start)
            assert not np.shares_memory(x, guess)
    assert iters == 0        # the exact start returns at once, as a copy


def test_solve_rejects_a_non_csr_operator():
    a = linalg.assemble_correction(Grid(4, 4), params_for())
    b = np.ones(a.shape[0])
    for bad in (a.tocsc(), a.tocoo(), a.toarray(), a.astype(np.float32)):
        with pytest.raises(TypeError):
            linalg.solve(bad, b, SolverConfig())


def _matvec_operators(grid, rng):
    layout = face_layout(grid)
    params = params_for()
    adv = layout.unpack(rng.standard_normal(layout.n))
    return {
        "S": linalg.strain_energy_matrix(grid),
        "prediction": linalg.assemble_prediction(grid, params, adv,
                                                 rng.uniform(0.0, 1.0, layout.n)),
        "D": linalg.divergence_matrix(grid),
        "G": linalg.gradient_matrix(grid),
        "correction": linalg.assemble_correction(grid, params),
        "identity": sp.identity(layout.n, format="csr"),
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
        expect = a @ x
        assert np.array_equal(linalg._matvec(a, x), expect), name

        # a reused output is cleared first, not added to
        out = np.full(a.shape[0], np.nan)
        assert linalg._matvec(a, x, out) is out
        assert np.array_equal(out, expect), name

        strided = np.repeat(x, 2)[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(linalg._matvec(a, strided), expect), name

        wide = a.copy()
        wide.indices = a.indices.astype(np.int64)
        wide.indptr = a.indptr.astype(np.int64)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        assert np.array_equal(linalg._matvec(wide, x), expect), name


def test_matvec_rejects_outputs_it_would_not_write():
    a = linalg.strain_energy_matrix(Grid(4, 3))
    n = a.shape[0]
    x = np.ones(n)
    for out in (np.zeros(n, dtype=np.float32), np.zeros(n + 1), np.zeros(2 * n)[::2],
                np.zeros((n, 1))):
        with pytest.raises(ValueError):
            linalg._matvec(a, x, out)
    for bad_x in (np.ones(n - 1), np.ones((n, 1))):
        with pytest.raises(ValueError):
            linalg._matvec(a, bad_x)


def test_scipy_private_api_is_imported_once():
    # the raw CSR kernel is the one private scipy dependency, and _matvec
    # its one caller: a second one must not creep in unseen
    src = os.path.dirname(vppflow.__file__)
    hits, calls = [], []
    for root, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    for line in fh:
                        if "scipy.sparse._" in line:
                            hits.append((name, line.strip()))
                        if "csr_matvec(" in line:
                            calls.append(name)
    assert hits == [("linalg.py", "from scipy.sparse._sparsetools import csr_matvec")]
    assert calls == ["linalg.py"]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rtol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


# ------------------------------------------------------- viscous matrix

def test_viscous_matrix_matches_stencil_and_is_symmetric(rng):
    for dims in [(5, 3, 1.3, 0.7), (6, 6, 1.0, 1.0)]:
        g = Grid(*dims)
        layout = face_layout(g)
        s = linalg.strain_energy_matrix(g)
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
    grad = linalg.gradient_matrix(g)
    d = linalg.divergence_matrix(g)
    assert grad.shape == d.T.shape
    assert (grad != -d.T).nnz == 0


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
    s = linalg.strain_energy_matrix(g)
    d = linalg.divergence_matrix(g)
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
