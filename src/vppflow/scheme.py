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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, operators
from .grid import PressureField, VelocityField
from .linalg import NonConvergence, SolverConfig
from .obstacle import ObstacleFrame


@dataclass(frozen=True)
class SchemeParams:
    """Time step, penalty ratios and prediction solver settings for one run."""

    dt: float
    t_final: float
    lam: float = 1.0
    eta: float = 1e-6
    mu: float = 1e-2
    prediction_solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(rtol=1e-8, max_iter=20000))

    def __post_init__(self):
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

    @property
    def epsilon(self) -> float:
        return self.lam * self.dt

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_final / self.dt + 1e-12))


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
        return cls(n=0, t=0.0, v=v0.copy(), v_tilde=v0.copy(),
                   v_hat=VelocityField.zeros(v0.grid), p=p0.project_mean_zero())


class SolverFailure(RuntimeError):
    """A step's prediction solve failed; carries the step index."""

    def __init__(self, stage, step_index, cause: NonConvergence):
        super().__init__(f"{stage} solve failed at step {step_index}: {cause}")
        self.stage = stage
        self.step_index = step_index
        self.cause = cause


@dataclass
class StepInfo:
    prediction_iterations: int = 0
    frame: ObstacleFrame | None = None   # the obstacle at t^{n+1}, if any


def predict(state: FlowState, forcing: VelocityField, frame: ObstacleFrame | None,
            params: SchemeParams, wall_slip=None):
    """Solve the implicit momentum prediction; returns (v_tilde, iterations).

    frame is the obstacle sampled at t^{n+1} (ObstacleFrame.sample), None
    without one; its face indicator and solid velocity are packed into the
    penalization diagonal and right-hand side. The solve starts from the
    extrapolation in time of the tentative velocities v~^n = state.v_tilde
    and v~^{n-1}, v~^{n-2} = state.earlier: 3(v~^n - v~^{n-1}) + v~^{n-2}
    from step 4 on, 2 v~^n - v~^{n-1} at step 3, v~^1 at step 2 and v0 at
    step 1, so a run from rest starts from zero. v0 is not extrapolated
    from: it need not match the solid velocity the penalization imposes,
    and an impulsively started body would put such a start O(1) off inside
    the body. The stopping test stays relative to the right-hand side.
    wall_slip optionally prescribes tangential wall velocities (a
    linalg.WallSlip); the default is the homogeneous no-slip wall.
    """
    grid = state.v.grid
    chi = None
    if frame is not None:
        chi = linalg.penalization_diagonal(frame.chi_u, frame.chi_v)
    op = linalg.assemble_prediction(grid, params, state.v, chi)
    layout = linalg.face_layout(grid)

    rhs_field = forcing + (1.0 / params.dt) * state.v
    grad_p = linalg._matvec(linalg.gradient_matrix(grid), state.p.p.ravel())
    rhs = layout.pack(rhs_field) - grad_p
    if chi is not None:
        rhs += chi * layout.pack(frame.vs) / params.eta
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
    x, iters = linalg.solve(op, rhs, params.prediction_solver, x0=x0)
    return layout.unpack(x), iters


def correct(v_tilde: VelocityField, params: SchemeParams):
    """Solve the grad-div correction exactly; returns v_hat."""
    grid = v_tilde.grid
    layout = linalg.face_layout(grid)
    x = linalg.solve_correction(grid, params.epsilon / params.dt, layout.pack(v_tilde))
    return layout.unpack(x)


def update_pressure(p_old: PressureField, v_new: VelocityField,
                    params: SchemeParams) -> PressureField:
    """p_new = p_old - div(v_new)/eps, projected to zero mean."""
    div = operators.divergence(v_new)
    p = PressureField(p_old.grid, p_old.p - div.data / params.epsilon)
    return p.project_mean_zero()


def step(state: FlowState, forcing_fn, obstacle, params: SchemeParams,
         wall_slip_fn=None):
    """Advance one time step; returns (new_state, StepInfo).

    forcing_fn(t, grid) -> VelocityField, sampled at t^{n+1}; likewise
    wall_slip_fn(t) -> linalg.WallSlip when tangential wall data moves.
    The obstacle is sampled once, at t^{n+1}; the StepInfo carries that
    frame on to the step's diagnostics.
    """
    grid = state.v.grid
    t_next = state.t + params.dt
    if t_next > params.t_final + 1e-12:
        raise ValueError(f"step past final time: t={t_next} > T={params.t_final}")
    f_next = forcing_fn(t_next, grid)
    slip = wall_slip_fn(t_next) if wall_slip_fn is not None else None
    frame = ObstacleFrame.sample(obstacle, t_next, grid)

    try:
        v_tilde, pred_iters = predict(state, f_next, frame, params, wall_slip=slip)
    except NonConvergence as exc:
        raise SolverFailure("prediction", state.n + 1, exc) from exc
    v_hat = correct(v_tilde, params)

    v_new = v_tilde + v_hat
    p_new = update_pressure(state.p, v_new, params)
    earlier = ((linalg.face_layout(grid).pack(state.v_tilde),) + state.earlier[:1]
               if state.n else ())
    new_state = FlowState(n=state.n + 1, t=t_next, v=v_new, v_tilde=v_tilde,
                          v_hat=v_hat, p=p_new, earlier=earlier)
    return new_state, StepInfo(pred_iters, frame)


@dataclass
class RunResult:
    final_state: FlowState
    records: list
    initial_divergence: float


def run(v0: VelocityField, p0: PressureField, forcing_fn, obstacle,
        params: SchemeParams, record_sink=None, snapshot_sink=None,
        wall_slip_fn=None) -> RunResult:
    """Execute floor(T/dt) steps from (v0, p0).

    Per-step DiagnosticsRecord rows are collected and also streamed to
    record_sink(record) if given; snapshot_sink(state) receives every state
    including the initial one. Any initial divergence is reported in the
    result rather than rejected.
    """
    from .diagnostics import make_record  # local import to avoid a cycle

    grid = v0.grid
    if obstacle is not None:
        gap = obstacle.clearance(grid, params.t_final)
        if gap <= 0:
            raise ValueError(f"obstacle touches the boundary (clearance {gap:.3g})")

    state = FlowState.initial(v0, p0)
    initial_div = float(np.sqrt(operators.cell_inner(
        operators.divergence(state.v), operators.divergence(state.v))))

    records = []
    if snapshot_sink is not None:
        snapshot_sink(state)
    for _ in range(params.n_steps):
        prev = state
        state, info = step(state, forcing_fn, obstacle, params,
                           wall_slip_fn=wall_slip_fn)
        rec = make_record(prev, state, info, obstacle, params)
        records.append(rec)
        if record_sink is not None:
            record_sink(rec)
        if snapshot_sink is not None:
            snapshot_sink(state)
    return RunResult(final_state=state, records=records,
                     initial_divergence=initial_div)
