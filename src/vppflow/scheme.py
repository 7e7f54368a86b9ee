"""Three-stage vector penalty-projection time stepper.

Each step advances (v^n, p^n) to (v^{n+1}, p^{n+1}):

1. prediction: implicit momentum solve for the tentative velocity with
   the old pressure gradient on the right-hand side and homogeneous
   Dirichlet walls, started from the quadratic extrapolation in time of
   the last three tentative velocities,
2. correction: SPD grad-div solve for the incremental velocity with
   zero normal boundary values, exact by a DCT-II (linalg.solve_correction);
   v^{n+1} is the sum of the two,
3. pressure update: p^{n+1} = p^n - div(v^{n+1}) / eps, projected back
   to zero mean.

The penalty weight is always slaved to the time step, eps = lambda * dt.

What does not change from step to step is built once per run, in the
StepWorkspace that run passes to every step: the obstacle frame of a disk
that does not translate, and the prediction's linalg.PredictionBuffers,
the one owner of the run's grid and SchemeParams (the operator's data
with its Jacobi inverse diagonal and the solver's work vectors).
step called without a workspace builds a one-step one, so a single step,
a run and the reference comparisons share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg, operators
from .diagnostics import l2_norm, make_record
from .grid import Grid, PressureField, VelocityField, require_finite, require_int
from .linalg import NonConvergence
from .obstacle import ObstacleFrame


@dataclass(frozen=True)
class SchemeParams:
    """Time step, penalty ratios and prediction solver settings for one run."""

    dt: float
    t_final: float
    lam: float = 1.0
    eta: float = 1e-6
    mu: float = 1e-2
    prediction_rtol: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self):
        require_finite({"dt": self.dt, "T": self.t_final, "lambda": self.lam,
                        "eta": self.eta, "mu": self.mu})
        require_int({"max_iter": self.max_iter})
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.t_final < self.dt:
            raise ValueError(
                f"final time {self.t_final} shorter than one step dt={self.dt}")
        if not 0.0 < self.prediction_rtol < 1.0:
            raise ValueError(f"prediction_rtol must be in (0, 1), got {self.prediction_rtol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def epsilon(self) -> float:
        return self.lam * self.dt

    @property
    def n_steps(self) -> int:
        # T/dt for a decimal T = k dt can fall an ulp or two short of k, more
        # than an absolute fuzz covers once k is large: a fuzz of 4 ulps does
        q = self.t_final / self.dt
        return math.floor(q + 4 * math.ulp(q))


@dataclass
class FlowState:
    """Solution at the end of step n (t = n dt).

    earlier holds the packed tentative velocities of steps n-1 and n-2,
    newest first, as far as a prediction solve produced them: the initial
    velocity that FlowState.initial puts in v_tilde never enters it.
    scheme.step shifts it along; predict extrapolates its start from it.
    """

    n: int
    t: float
    v: VelocityField
    v_tilde: VelocityField
    v_hat: VelocityField
    p: PressureField
    earlier: tuple = ()

    @classmethod
    def initial(cls, v0: VelocityField, p0: PressureField) -> "FlowState":
        """The state at t = 0; v and v_tilde share v0: fields are value types."""
        return cls(n=0, t=0.0, v=v0, v_tilde=v0,
                   v_hat=VelocityField.zeros(v0.grid), p=p0.project_mean_zero())


class SolverFailure(RuntimeError):
    """A step's prediction solve failed; carries the step index.

    The prediction is the only iterative solve: the correction is exact.
    """

    def __init__(self, step_index, cause: NonConvergence):
        super().__init__(f"prediction solve failed at step {step_index}: {cause}")
        self.step_index = step_index
        self.cause = cause


@dataclass
class StepInfo:
    prediction_iterations: int = 0
    frame: ObstacleFrame | None = None   # the obstacle at t^{n+1}, if any
    divergence: PressureField | None = None   # div v^{n+1}


class StepWorkspace:
    """What the steps of one run reuse instead of rebuilding.

    A disk whose velocity is (0, 0) has center_at(t) == center bitwise, so
    its ObstacleFrame is the same at every step: it is sampled at the first
    step only. A translating disk is sampled at every step. prediction is
    the run's linalg.PredictionBuffers, which hold the grid and params the
    workspace is built for; as the same frame passes the same chi, the
    self slots of a still disk's operator are built once, those of a
    translating disk's at every step. One workspace serves one run: one
    grid, one SchemeParams and one obstacle (None without one).
    """

    def __init__(self, grid: Grid, params: SchemeParams, obstacle=None):
        self.obstacle = obstacle
        self.prediction = linalg.PredictionBuffers(grid, params)
        self._frame = None

    def frame_at(self, t: float) -> ObstacleFrame | None:
        """The obstacle at t; None without one."""
        if self._frame is None or self.obstacle.velocity != (0.0, 0.0):
            self._frame = ObstacleFrame.sample(self.obstacle, t, self.prediction.grid)
        return self._frame


def predict(state: FlowState, forcing: VelocityField, frame: ObstacleFrame | None,
            workspace: StepWorkspace, wall_slip=None):
    """Solve the implicit momentum prediction with the grid and params of
    workspace; returns (v_tilde, iterations).

    frame is the obstacle sampled at t^{n+1} (ObstacleFrame.sample), None
    without one; its face indicator enters the penalization diagonal
    and chi v_s / eta the right-hand side. The solve starts from the
    extrapolation in time of the tentative velocities v~^n = state.v_tilde
    and v~^{n-1}, v~^{n-2} = state.earlier: 3(v~^n - v~^{n-1}) + v~^{n-2}
    from step 4 on, 2 v~^n - v~^{n-1} at step 3, v~^1 at step 2 and v0 at
    step 1, so a run from rest starts from zero. v0 is not extrapolated
    from: it need not match the solid velocity the penalization imposes,
    and an impulsively started body would put such a start O(1) off inside
    the body. The stopping test stays relative to the right-hand side.
    wall_slip optionally prescribes tangential wall velocities (a
    linalg.WallSlip); the default is the homogeneous no-slip wall. The
    operator is assembled into the workspace's buffers and solved there.
    """
    buffers = workspace.prediction
    grid, params = buffers.grid, buffers.params
    layout = linalg.face_layout(grid)
    linalg.assemble_prediction(buffers, state.v, frame and frame.chi)

    rhs = layout.pack(forcing)
    rhs += (1.0 / params.dt) * layout.pack(state.v)
    rhs -= linalg.apply_gradient(grid, state.p.p.ravel())
    if frame is not None:
        chi, vs = frame.chi, frame.vs
        rhs += layout.pack(VelocityField(grid, chi.u * vs.u, chi.v * vs.v)) / params.eta
    if wall_slip is not None:
        rhs += linalg.boundary_rhs(grid, state.v, params.mu, wall_slip)
    x0 = layout.pack(state.v_tilde)
    if len(state.earlier) == 2:
        x0 -= state.earlier[0]
        x0 *= 3.0
        x0 += state.earlier[1]
    elif state.earlier:
        x0 *= 2.0
        x0 -= state.earlier[0]
    x, iters = linalg.solve(buffers, rhs, x0=x0)
    return layout.unpack(x), iters


def correct(v_tilde: VelocityField, params: SchemeParams):
    """Solve the grad-div correction exactly; returns v_hat."""
    grid = v_tilde.grid
    layout = linalg.face_layout(grid)
    x = linalg.solve_correction(grid, params.epsilon / params.dt, layout.pack(v_tilde))
    return layout.unpack(x)


def update_pressure(p_old: PressureField, div: PressureField,
                    params: SchemeParams) -> PressureField:
    """p_new = p_old - div/eps, projected to zero mean; div is div(v_new)."""
    p = PressureField(p_old.grid, p_old.p - div.p / params.epsilon)
    return p.project_mean_zero()


def step(state: FlowState, forcing_fn, obstacle, params: SchemeParams,
         wall_slip_fn=None, workspace: StepWorkspace | None = None):
    """Advance one time step; returns (new_state, StepInfo).

    forcing_fn(t, grid) -> VelocityField, sampled at t^{n+1}; likewise
    wall_slip_fn(t) -> linalg.WallSlip when tangential wall data moves.
    The obstacle is sampled at most once, at t^{n+1} (StepWorkspace.frame_at);
    the StepInfo carries that frame and div v^{n+1} on to the step's
    diagnostics. workspace must have been built for this grid, params and
    obstacle; a one-step one is built if None. The step is refused by count
    once state.n reaches params.n_steps: the summed state.t may drift past
    T by more than any fixed tolerance over a long run.
    """
    if state.n >= params.n_steps:
        raise ValueError(f"step {state.n + 1} past the final step: "
                         f"n_steps={params.n_steps}")
    grid = state.v.grid
    t_next = state.t + params.dt
    if workspace is None:
        workspace = StepWorkspace(grid, params, obstacle)
    elif ((workspace.prediction.grid, workspace.prediction.params, workspace.obstacle)
          != (grid, params, obstacle)):
        raise ValueError("workspace was built for another grid, params or obstacle")
    f_next = forcing_fn(t_next, grid)
    slip = wall_slip_fn(t_next) if wall_slip_fn is not None else None
    frame = workspace.frame_at(t_next)

    try:
        v_tilde, pred_iters = predict(state, f_next, frame, workspace, wall_slip=slip)
    except NonConvergence as exc:
        raise SolverFailure(state.n + 1, exc) from exc
    v_hat = correct(v_tilde, params)

    v_new = v_tilde + v_hat
    div = operators.divergence(v_new)
    p_new = update_pressure(state.p, div, params)
    earlier = ((linalg.face_layout(grid).pack(state.v_tilde),) + state.earlier[:1]
               if state.n else ())
    new_state = FlowState(n=state.n + 1, t=t_next, v=v_new, v_tilde=v_tilde,
                          v_hat=v_hat, p=p_new, earlier=earlier)
    return new_state, StepInfo(pred_iters, frame, div)


@dataclass
class RunResult:
    final_state: FlowState
    records: list
    initial_divergence: float


def run(v0: VelocityField, p0: PressureField, forcing_fn, obstacle,
        params: SchemeParams, record_sink=None, snapshot_sink=None,
        wall_slip_fn=None) -> RunResult:
    """Execute params.n_steps steps from (v0, p0).

    Per-step DiagnosticsRecord rows are collected and also streamed to
    record_sink(record) if given; snapshot_sink(state) receives every state
    including the initial one. Any initial divergence is reported in the
    result rather than rejected. The steps share one StepWorkspace.
    """
    grid = v0.grid
    if obstacle is not None:
        gap = obstacle.clearance(grid, params.t_final)
        if gap <= 0:
            raise ValueError(f"obstacle touches the boundary (clearance {gap:.3g})")

    state = FlowState.initial(v0, p0)
    del v0, p0          # held from here on by the initial state alone
    initial_div = l2_norm(operators.divergence(state.v))

    workspace = StepWorkspace(grid, params, obstacle)
    records = []
    if snapshot_sink is not None:
        snapshot_sink(state)
    for _ in range(params.n_steps):
        prev = state
        state, info = step(state, forcing_fn, obstacle, params,
                           wall_slip_fn=wall_slip_fn, workspace=workspace)
        rec = make_record(prev, state, info)
        records.append(rec)
        if record_sink is not None:
            record_sink(rec)
        if snapshot_sink is not None:
            snapshot_sink(state)
    return RunResult(final_state=state, records=records,
                     initial_divergence=initial_div)
