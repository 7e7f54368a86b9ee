"""Measured quantities: norms, energy ledger, translation estimator, slip
error, and the log-log rates fitted to them.

Boundary integrals over the immersed circle are approximated by a
one-cell-diagonal band of cells, each weighted by cell area over band
width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import operators
from .grid import PressureField, VelocityField


def l2_norm(f) -> float:
    """Area-weighted L2 norm of a velocity or cell field."""
    if isinstance(f, VelocityField):
        return math.sqrt(operators.inner(f, f))
    if isinstance(f, PressureField):
        return math.sqrt(operators.cell_inner(f, f))
    raise TypeError(f"cannot take the L2 norm of {type(f).__name__}")


def kinetic_energy(vel: VelocityField) -> float:
    return 0.5 * operators.inner(vel, vel)


def velocity_grad_norm(vel: VelocityField) -> float:
    """Discrete H1 seminorm ||grad v|| with Dirichlet ghost closure: the
    tangential ghost beyond a wall is minus the value inside."""
    g = vel.grid
    u = np.concatenate([-vel.u[:, :1], vel.u, -vel.u[:, -1:]], axis=1)
    v = np.concatenate([-vel.v[:1, :], vel.v, -vel.v[-1:, :]], axis=0)
    s = (((vel.u[1:, :] - vel.u[:-1, :]) / g.hx) ** 2).sum()       # du/dx
    s += (((vel.v[:, 1:] - vel.v[:, :-1]) / g.hy) ** 2).sum()      # dv/dy
    s += (((u[:, 1:] - u[:, :-1]) / g.hy) ** 2).sum()              # du/dy
    s += (((v[1:, :] - v[:-1, :]) / g.hx) ** 2).sum()              # dv/dx
    return math.sqrt(g.cell_area * s)


def pressure_grad_norm(p: PressureField) -> float:
    return l2_norm(operators.gradient(p))


# ----------------------------------------------------------------------
# Translation estimator of a piecewise-constant-in-time series
# ----------------------------------------------------------------------

def nikolskii_translation(snapshots, dt: float, h: float) -> float:
    """Exact L1 time integral int_0^{T-h} ||u(t+h) - u(t)|| dt, T = n dt.

    The n snapshots u^k are read as u(t) = u^k on [k dt, (k+1) dt). With
    (m, r) = divmod(h, dt), so 0 <= r < dt, the shift t -> t + h moves
    t in [k dt, (k+1) dt) to u^{k+m} for a length dt - r and to u^{k+m+1}
    for a length r, so the integral is
        (dt - r) sum_k ||u^{k+m} - u^k|| + r sum_k ||u^{k+m+1} - u^k||
    over the k with both indices below n. The first sum is zero for m = 0.
    """
    n = len(snapshots)
    if not dt > 0:
        raise ValueError(f"dt must be positive; got dt={dt}")
    if n < 1:
        raise ValueError("the series needs at least one snapshot")
    if not 0 < h < n * dt:
        raise ValueError(f"offset h must lie in (0, T); got h={h}, T={n * dt}")
    m, r = divmod(h, dt)
    m = int(m)

    def jump_sum(lag):
        return sum(l2_norm(snapshots[k + lag] - snapshots[k]) for k in range(n - lag))

    total = (dt - r) * jump_sum(m) if m else 0.0
    if r:
        total += r * jump_sum(m + 1)
    return total


# ----------------------------------------------------------------------
# Log-log rates
# ----------------------------------------------------------------------

def fit_exponent(xs, ys):
    """Least-squares slope of log(y) vs log(x); returns (slope, residual).

    The residual is the RMS misfit of the fitted line in log space. Raises
    ValueError unless the xs are positive with at least two distinct values.
    The line is the closed form slope = sum(dx dy) / sum(dx^2) on the
    centered logs, in ufuncs and reductions: no LAPACK routine runs.
    """
    x = np.asarray(xs, dtype=float)
    # x.min() < x.max() rather than np.unique, which imports numpy.ma
    if x.size < 2 or np.any(x <= 0) or not x.min() < x.max():
        raise ValueError(f"need at least two distinct positive abscissae, got {list(xs)}")
    dy = np.log(np.asarray(ys, dtype=float))
    if dy.shape != x.shape:
        raise ValueError(f"need one ordinate per abscissa, got {dy.size} for {x.size}")
    dy -= dy.mean()
    dx = np.log(x)
    dx -= dx.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    misfit = dy - slope * dx
    return slope, math.sqrt(np.mean(misfit * misfit))


def observed_order(xs, ys):
    """Observed order of y(x) -> y(0) when the limit y(0) is unknown.

    Fits the log-log slope of the successive differences y_k - y_{k+1}
    against x_k, for xs ordered towards the limit (decreasing). For
    y = a x^s + c on a geometric xs the slope is s exactly, whatever c.
    Returns None when any difference is <= 0: the series then does not
    decrease monotonically towards its limit and has no order to report.
    """
    diffs = [a - b for a, b in zip(ys, ys[1:])]
    if any(d <= 0 for d in diffs):
        return None
    return fit_exponent(xs[:-1], diffs)[0]


# ----------------------------------------------------------------------
# Obstacle diagnostics
# ----------------------------------------------------------------------

def penalization_energy(vel: VelocityField, frame) -> float:
    """int chi |v - v_s|^2 over the faces used by the penalization term.

    frame is the ObstacleFrame the prediction was penalized with (the
    obstacle at the step's new time), None without an obstacle.
    """
    if frame is None:
        return 0.0
    g = vel.grid
    wu = g.u_face_weights()
    wv = g.v_face_weights()
    return float((wu * frame.chi.u * (vel.u - frame.vs.u) ** 2).sum()
                 + (wv * frame.chi.v * (vel.v - frame.vs.v) ** 2).sum())


def slip_error(vel: VelocityField, frame) -> float:
    """Band approximation of the boundary integral of |v - v_s|^2.

    frame is the step's ObstacleFrame, None without an obstacle. Its band
    cells, those within one diagonal of the circle, are weighted by cell
    area over the band width (two diagonals).
    """
    if frame is None:
        return 0.0
    g = vel.grid
    ii, jj = frame.band[:, 0], frame.band[:, 1]
    # operators.velocity_at_cell_centers, on the band cells only
    uc = 0.5 * (vel.u[ii + 1, jj] + vel.u[ii, jj])
    vc = 0.5 * (vel.v[ii, jj + 1] + vel.v[ii, jj])
    usol, vsol = frame.band_vs
    sq = (uc - usol) ** 2 + (vc - vsol) ** 2
    width = 2.0 * math.hypot(g.hx, g.hy)
    return float(sq.sum() * g.cell_area / width)


# ----------------------------------------------------------------------
# Per-step record and the energy ledger
# ----------------------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    n: int
    t: float
    kinetic_energy: float
    div_norm: float
    grad_norm: float
    pressure_norm: float
    pressure_grad_norm: float
    increment_norm: float
    pressure_increment_norm: float
    penalization_energy: float
    slip_error: float
    prediction_iterations: int
    correction_iterations: int

    def validate(self):
        for name in CSV_COLUMNS:
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"diagnostic {name} = {val} is not finite")
            if val < 0:
                raise ValueError(f"diagnostic {name} = {val} is negative")


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def make_record(prev, state, info) -> DiagnosticsRecord:
    """The record of the step from prev to state; info is its StepInfo,
    whose divergence and frame the step has already computed."""
    rec = DiagnosticsRecord(
        n=state.n,
        t=state.t,
        kinetic_energy=kinetic_energy(state.v),
        div_norm=l2_norm(info.divergence),
        grad_norm=velocity_grad_norm(state.v_tilde),
        pressure_norm=l2_norm(state.p),
        pressure_grad_norm=pressure_grad_norm(state.p),
        increment_norm=l2_norm(state.v_tilde - prev.v),
        pressure_increment_norm=l2_norm(state.p - prev.p),
        penalization_energy=penalization_energy(state.v_tilde, info.frame),
        slip_error=slip_error(state.v, info.frame),
        prediction_iterations=info.prediction_iterations,
        correction_iterations=0,   # the correction is solved exactly
    )
    rec.validate()
    return rec


@dataclass
class LedgerReport:
    """Accumulated stability ledger and its componentwise maxima."""

    max_total: float
    max_kinetic_increase: float
    all_finite: bool
    totals: dict


def energy_ledger_check(records, params, initial_kinetic: float) -> LedgerReport:
    """Accumulate the stability ledger over a run.

    At each n the ledger is ||v^n||^2 + dt*eps*||p^n||^2 + dt^2*||grad p^n||^2
    plus the running sums of increment, viscous, pressure-increment and
    penalization terms. max_kinetic_increase is the largest relative rise
    between consecutive kinetic energies, starting from initial_kinetic
    (a monotonicity check for unforced runs with a resting obstacle).
    """
    eps = params.epsilon
    dt = params.dt
    max_total = 0.0
    totals = {"increment": 0.0, "viscous": 0.0, "pressure_increment": 0.0,
              "penalization": 0.0}
    max_inc = 0.0
    prev_ke = initial_kinetic
    all_finite = True
    for rec in records:
        totals["increment"] += rec.increment_norm**2
        totals["viscous"] += params.mu * dt * rec.grad_norm**2
        totals["pressure_increment"] += eps * dt * rec.pressure_increment_norm**2
        totals["penalization"] += (2.0 / params.eta) * dt * rec.penalization_energy
        point = (2.0 * rec.kinetic_energy
                 + dt * eps * rec.pressure_norm**2
                 + dt**2 * rec.pressure_grad_norm**2)
        total = point + sum(totals.values())
        max_total = max(max_total, total)
        all_finite = all_finite and np.isfinite(total)
        if prev_ke > 0:
            max_inc = max(max_inc, (rec.kinetic_energy - prev_ke) / prev_ke)
        prev_ke = rec.kinetic_energy
    return LedgerReport(max_total=max_total, max_kinetic_increase=max_inc,
                        all_finite=all_finite, totals=totals)
