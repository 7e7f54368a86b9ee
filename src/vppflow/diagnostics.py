"""Measured quantities: norms, energy ledger, translation estimator, slip error.

The discrete H^-1 norm is realized through the homogeneous-Dirichlet
Poisson inverse: ||f||_{H^-1}^2 = (f, phi) with -Lap(phi) = f, per
component on the lattice carrying f, in closed form in the lattice's sine
eigenbasis (linalg.dirichlet_bases). Boundary integrals over the immersed
circle are approximated by a one-cell-diagonal band of cells, each
weighted by cell area over band width.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import linalg, operators
from .grid import Grid, PressureField, ScalarCellField, VelocityField


def l2_norm(f) -> float:
    """Area-weighted L2 norm of a field (velocity, pressure or scalar)."""
    if isinstance(f, VelocityField):
        return math.sqrt(operators.inner(f, f))
    if isinstance(f, (PressureField, ScalarCellField)):
        return math.sqrt(operators.cell_inner(f, f))
    raise TypeError(f"cannot take the L2 norm of {type(f).__name__}")


def kinetic_energy(vel: VelocityField) -> float:
    return 0.5 * operators.inner(vel, vel)


def velocity_grad_norm(vel: VelocityField) -> float:
    """Discrete H1 seminorm ||grad v|| with Dirichlet ghost closure."""
    g = vel.grid
    dudx = (vel.u[1:, :] - vel.u[:-1, :]) / g.hx
    dvdy = (vel.v[:, 1:] - vel.v[:, :-1]) / g.hy
    gam_u = np.empty((g.nx + 1, g.ny + 1))
    gam_u[:, 1:-1] = (vel.u[:, 1:] - vel.u[:, :-1]) / g.hy
    gam_u[:, 0] = 2.0 * vel.u[:, 0] / g.hy
    gam_u[:, -1] = -2.0 * vel.u[:, -1] / g.hy
    gam_v = np.empty((g.nx + 1, g.ny + 1))
    gam_v[1:-1, :] = (vel.v[1:, :] - vel.v[:-1, :]) / g.hx
    gam_v[0, :] = 2.0 * vel.v[0, :] / g.hx
    gam_v[-1, :] = -2.0 * vel.v[-1, :] / g.hx
    s = (np.sum(dudx**2) + np.sum(dvdy**2) + np.sum(gam_u**2) + np.sum(gam_v**2))
    return math.sqrt(g.cell_area * s)


def pressure_grad_norm(p: PressureField) -> float:
    return l2_norm(operators.gradient(p))


def h_minus1_norm(f) -> float:
    """Dual norm via the Dirichlet Poisson inverse, componentwise for vectors.

    In the sine basis of each lattice the Laplacian L is diagonal, so
    f^T L^{-1} f is a transform, a divide and a sum (Schumann & Sweet, 1976).
    """
    if isinstance(f, (ScalarCellField, PressureField)):
        parts = [("cell", f.data if isinstance(f, ScalarCellField) else f.p)]
    elif isinstance(f, VelocityField):
        parts = [("u", f.u[1:-1, :]), ("v", f.v[:, 1:-1])]
    else:
        raise TypeError(f"cannot take the H^-1 norm of {type(f).__name__}")
    total = 0.0
    for which, arr in parts:
        (qx, lam_x), (qy, lam_y) = linalg.dirichlet_bases(f.grid, which)
        c = qx.T @ arr @ qy
        total += np.sum(c * c / (lam_x[:, None] + lam_y[None, :]))
    return math.sqrt(f.grid.cell_area * total)


def poincare_constant(grid: Grid, which: str = "cell") -> float:
    """Constant C = 1/sqrt(lam_min) with ||f||_{H^-1} <= C ||f||_{L2} on
    this lattice; lam_min is the sum of the two axes' lowest modes."""
    (_, lam_x), (_, lam_y) = linalg.dirichlet_bases(grid, which)
    return 1.0 / math.sqrt(lam_x[0] + lam_y[0])


# ----------------------------------------------------------------------
# Piecewise-constant-in-time series and the translation estimator
# ----------------------------------------------------------------------

@dataclass
class FieldSeries:
    """Snapshots u^k at t^k = k dt, read as u(t) = u^k on [t^k, t^{k+1})."""

    dt: float
    snapshots: list

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.snapshots) < 1:
            raise ValueError("series needs at least one snapshot")

    @property
    def t_final(self) -> float:
        return self.dt * len(self.snapshots)

    def value_index(self, t: float) -> int:
        k = int(math.floor(t / self.dt + 1e-14))
        return min(max(k, 0), len(self.snapshots) - 1)


def nikolskii_translation(series: FieldSeries, h: float, norm=l2_norm,
                          form: str = "L1") -> float:
    """Exact time integral of the translated-difference norm.

    form="L1" returns int_0^{T-h} ||u(t+h) - u(t)|| dt; form="L2" returns
    the square root of the integral of the squared norm. Both are computed
    analytically from the overlap lengths of the piecewise-constant
    intervals, which covers the offsets below and above dt alike.
    """
    if form not in ("L1", "L2"):
        raise ValueError(f"unknown form {form!r}")
    t_end = series.t_final - h
    if h <= 0 or t_end <= 0:
        raise ValueError(f"offset h must lie in (0, T); got h={h}, T={series.t_final}")

    # breakpoints of t -> (u(t+h), u(t)) on [0, T-h]
    dt = series.dt
    n = len(series.snapshots)
    pts = {0.0, t_end}
    for k in range(n + 1):
        for cand in (k * dt, k * dt - h):
            if 0.0 < cand < t_end:
                pts.add(cand)
    pts = sorted(pts)

    norm_cache: dict[tuple[int, int], float] = {}

    def diff_norm(a: int, b: int) -> float:
        if a == b:
            return 0.0
        key = (a, b)
        if key not in norm_cache:
            norm_cache[key] = norm(series.snapshots[a] - series.snapshots[b])
        return norm_cache[key]

    total = 0.0
    for left, right in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (left + right)
        val = diff_norm(series.value_index(mid + h), series.value_index(mid))
        length = right - left
        total += length * (val * val if form == "L2" else val)
    return math.sqrt(total) if form == "L2" else total


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
    return float(np.sum(wu * frame.chi_u * (vel.u - frame.vs.u) ** 2)
                 + np.sum(wv * frame.chi_v * (vel.v - frame.vs.v) ** 2))


def slip_error(vel: VelocityField, obstacle, t: float) -> float:
    """Band approximation of the boundary integral of |v - v_s|^2.

    Cells within one diagonal of the circle are weighted by cell area over
    the band width (two diagonals). An empty band yields 0 with a warning.
    """
    if obstacle is None:
        return 0.0
    g = vel.grid
    band = obstacle.boundary_band(t, g)
    if band.shape[0] == 0:
        warnings.warn("slip_error: empty boundary band, reporting 0", stacklevel=2)
        return 0.0
    uc, vc = operators.velocity_at_cell_centers(vel)
    cx, cy = obstacle.center_at(t)
    x, y = g.cell_coords()
    usol = obstacle.velocity[0] - obstacle.omega * (y - cy)
    vsol = obstacle.velocity[1] + obstacle.omega * (x - cx)
    ii, jj = band[:, 0], band[:, 1]
    sq = (uc[ii, jj] - usol[ii, jj]) ** 2 + (vc[ii, jj] - vsol[ii, jj]) ** 2
    width = 2.0 * math.hypot(g.hx, g.hy)
    return float(np.sum(sq) * g.cell_area / width)


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
        for f in fields(self):
            val = getattr(self, f.name)
            if not np.isfinite(val):
                raise ValueError(f"diagnostic {f.name} = {val} is not finite")
            if val < 0:
                raise ValueError(f"diagnostic {f.name} = {val} is negative")


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def make_record(prev, state, info, obstacle, params) -> DiagnosticsRecord:
    rec = DiagnosticsRecord(
        n=state.n,
        t=state.t,
        kinetic_energy=kinetic_energy(state.v),
        div_norm=l2_norm(operators.divergence(state.v)),
        grad_norm=velocity_grad_norm(state.v_tilde),
        pressure_norm=l2_norm(state.p),
        pressure_grad_norm=pressure_grad_norm(state.p),
        increment_norm=l2_norm(state.v_tilde - prev.v),
        pressure_increment_norm=l2_norm(state.p - prev.p),
        penalization_energy=penalization_energy(state.v_tilde, info.frame),
        slip_error=slip_error(state.v, obstacle, state.t),
        prediction_iterations=info.prediction_iterations,
        correction_iterations=0,   # the correction is solved exactly
    )
    rec.validate()
    return rec


@dataclass
class LedgerReport:
    """Accumulated stability ledger and its componentwise maxima."""

    max_total: float
    final_total: float
    kinetic_monotone: bool
    max_kinetic_increase: float
    all_finite: bool
    totals: dict


def energy_ledger_check(records, params, initial_kinetic: float | None = None,
                        rel_tol: float = 1e-10) -> LedgerReport:
    """Accumulate the stability ledger over a run.

    At each n the ledger is ||v^n||^2 + dt*eps*||p^n||^2 + dt^2*||grad p^n||^2
    plus the running sums of increment, viscous, pressure-increment and
    penalization terms. The kinetic-monotone flag checks every consecutive
    pair of kinetic energies against rel_tol (meaningful for unforced runs
    with a resting obstacle).
    """
    eps = params.epsilon
    dt = params.dt
    max_total = 0.0
    totals = {"increment": 0.0, "viscous": 0.0, "pressure_increment": 0.0,
              "penalization": 0.0}
    max_inc = 0.0
    monotone = True
    prev_ke = initial_kinetic
    final_total = 0.0
    all_finite = True
    for rec in records:
        totals["increment"] += rec.increment_norm**2
        totals["viscous"] += params.mu * dt * rec.grad_norm**2
        totals["pressure_increment"] += eps * dt * rec.pressure_increment_norm**2
        totals["penalization"] += (2.0 / params.eta) * dt * rec.penalization_energy
        point = (2.0 * rec.kinetic_energy
                 + dt * eps * rec.pressure_norm**2
                 + dt**2 * rec.pressure_grad_norm**2)
        final_total = point + sum(totals.values())
        max_total = max(max_total, final_total)
        all_finite = all_finite and np.isfinite(final_total)
        if prev_ke is not None and prev_ke > 0:
            inc = (rec.kinetic_energy - prev_ke) / prev_ke
            max_inc = max(max_inc, inc)
            if inc > rel_tol:
                monotone = False
        prev_ke = rec.kinetic_energy
    return LedgerReport(max_total=max_total, final_total=final_total,
                        kinetic_monotone=monotone, max_kinetic_increase=max_inc,
                        all_finite=all_finite, totals=totals)
