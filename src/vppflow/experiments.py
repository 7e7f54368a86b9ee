"""Experiment drivers: single runs, parameter sweeps, and output emission.

All quantitative output goes through CSV with %.17g formatting, so a rerun
of the same configuration is byte-identical. Optional field dumps use the
legacy VTK STRUCTURED_POINTS ASCII layout documented in the README.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics, operators
from .config import RunConfig
from .grid import Grid, PressureField, VelocityField
from .manufactured import SpaceTimeError, taylor_green_pressure, taylor_green_velocity
from .scheme import RunResult, run

_FMT = "%.17g"


class OutputError(OSError):
    """Raised after writing the partial-output marker on I/O failure."""


def fit_exponent(xs, ys):
    """Least-squares slope of log(y) vs log(x); returns (slope, residual).

    The residual is the RMS misfit of the fitted line in log space. Raises
    ValueError unless the xs are positive with at least two distinct values.
    """
    x = np.asarray(xs, dtype=float)
    if np.any(x <= 0) or np.unique(x).size < 2:
        raise ValueError(f"need at least two distinct positive abscissae, got {list(xs)}")
    lx = np.log(x)
    ly = np.log(np.asarray(ys, dtype=float))
    coeffs = np.polyfit(lx, ly, 1)
    fit = np.polyval(coeffs, lx)
    residual = float(np.sqrt(np.mean((ly - fit) ** 2)))
    return float(coeffs[0]), residual


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
# Initial condition and forcing selectors
# ----------------------------------------------------------------------

def _load_fields(path, grid: Grid, names):
    """The arrays of the npz file at path that are among names, by name.

    Each is checked to have its grid shape (u faces, v faces or p cells)
    and only finite entries; u and v must be present. A failed check
    raises ValueError naming the file and the array.
    """
    shapes = {"u": grid.shape_u, "v": grid.shape_v, "p": grid.shape_p}
    out = {}
    with np.load(path) as data:
        for name in names:
            if name not in data:
                if name == "p":   # an initial pressure is optional
                    continue
                raise ValueError(f"{path}: no array {name!r}")
            arr = np.asarray(data[name], dtype=float)
            if arr.shape != shapes[name]:
                raise ValueError(f"{path}: array {name!r} has shape {arr.shape}, "
                                 f"expected {shapes[name]}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: array {name!r} has non-finite entries")
            out[name] = arr
    return out


def make_initial(cfg: RunConfig):
    grid, kind = cfg.grid, cfg.initial.kind
    if kind == "zero":
        return VelocityField.zeros(grid), PressureField.zeros(grid)
    if kind == "taylor-green":
        return (taylor_green_velocity(0.0, grid, cfg.params.mu),
                taylor_green_pressure(0.0, grid, cfg.params.mu))
    if kind == "file":
        data = _load_fields(dict(cfg.initial.options)["path"], grid, ("u", "v", "p"))
        vel = VelocityField(grid, data["u"], data["v"])
        p = PressureField(grid, data["p"]) if "p" in data else PressureField.zeros(grid)
        return vel, p.project_mean_zero()
    raise ValueError(f"unknown initial condition {kind!r}")


def make_forcing(cfg: RunConfig):
    kind = cfg.forcing.kind
    if kind in ("zero", "taylor-green"):
        # the manufactured vortex solves the unforced equations exactly;
        # its wall trace is supplied separately (make_wall_slip)
        return lambda t, grid: VelocityField.zeros(grid)
    if kind == "constant":
        opts = dict(cfg.forcing.options)
        fx, fy = opts.get("fx", 0.0), opts.get("fy", 0.0)

        def constant(t, grid):
            return VelocityField(grid, np.full(grid.shape_u, fx),
                                 np.full(grid.shape_v, fy))
        return constant
    if kind == "file":
        data = _load_fields(dict(cfg.forcing.options)["path"], cfg.grid, ("u", "v"))
        force = VelocityField(cfg.grid, data["u"], data["v"])
        return lambda t, grid: force
    raise ValueError(f"unknown forcing {kind!r}")


def make_wall_slip(cfg: RunConfig):
    """Wall-velocity function for the manufactured study, else None.

    Selecting the manufactured forcing means running the manufactured
    problem: zero body force plus the vortex's tangential wall trace.
    """
    if cfg.forcing.kind != "taylor-green":
        return None
    from .manufactured import taylor_green_wall_slip
    return lambda t: taylor_green_wall_slip(t, cfg.grid, cfg.params.mu)


# ----------------------------------------------------------------------
# Output writers
# ----------------------------------------------------------------------

def write_records_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(diagnostics.CSV_COLUMNS) + "\n")
        for rec in records:
            vals = [getattr(rec, c) for c in diagnostics.CSV_COLUMNS]
            fh.write(",".join(_FMT % v if isinstance(v, float) else str(v)
                              for v in vals) + "\n")


def write_vtk(path, state):
    """Legacy VTK STRUCTURED_POINTS ASCII dump of cell-centered fields.

    Each grid row j (x fastest) is formatted by one %-operation on its
    values as Python floats, which prints them exactly as _FMT does one
    by one; only a row at a time is converted, not the whole field.
    """
    grid = state.v.grid
    uc, vc = operators.velocity_at_cell_centers(state.v)
    uv = np.stack((uc, vc), axis=-1)
    scalar_row = (_FMT + "\n") * grid.nx
    vector_row = (_FMT + " " + _FMT + " 0\n") * grid.nx
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"vppflow step {state.n} t={_FMT % state.t}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx} {grid.ny} 1\n")
        fh.write(f"ORIGIN {_FMT % (grid.hx / 2)} {_FMT % (grid.hy / 2)} 0\n")
        fh.write(f"SPACING {_FMT % grid.hx} {_FMT % grid.hy} 1\n")
        fh.write(f"POINT_DATA {grid.ncells}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        for j in range(grid.ny):
            fh.write(scalar_row % tuple(state.p.p[:, j].tolist()))
        fh.write("VECTORS velocity double\n")
        for j in range(grid.ny):
            fh.write(vector_row % tuple(uv[:, j].ravel().tolist()))


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config: RunConfig
    run_result: RunResult
    csv_path: str
    manufactured_error: float | None = None


def run_single(cfg: RunConfig, out_dir: str, tag: str = "",
               quiet: bool = True) -> ExperimentResult:
    v0, p0 = make_initial(cfg)
    forcing = make_forcing(cfg)
    wall_slip = make_wall_slip(cfg)

    dump_every = cfg.output.dump_every
    os.makedirs(out_dir, exist_ok=True)
    csv_name = cfg.output.csv if not tag else f"{tag}_{cfg.output.csv}"
    csv_path = os.path.join(out_dir, csv_name)

    def dump_sink(state):
        if dump_every > 0 and state.n % dump_every == 0:
            write_vtk(os.path.join(out_dir, f"{tag or 'fields'}_{state.n:06d}.vtk"),
                      state)

    sinks = [dump_sink] if dump_every > 0 else []

    # manufactured studies accumulate the space-time velocity error
    error = None
    if cfg.initial.kind == "taylor-green":
        error = SpaceTimeError(cfg.grid, cfg.params.mu, cfg.params.dt)
        sinks.append(error)

    def snapshot_fanout(state):
        for s in sinks:
            s(state)

    try:
        result = run(v0, p0, forcing, cfg.obstacle, cfg.params,
                     snapshot_sink=snapshot_fanout if sinks else None,
                     wall_slip_fn=wall_slip)
        write_records_csv(csv_path, result.records)
    except OSError as exc:
        marker = os.path.join(out_dir, "PARTIAL_OUTPUT")
        try:
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write(f"experiment aborted mid-output: {exc}\n")
        except OSError:
            pass
        raise OutputError(f"I/O failure while writing results: {exc}") from exc
    if not quiet:
        print(f"wrote {csv_path} ({len(result.records)} steps, "
              f"initial divergence {result.initial_divergence:.3e})")
    manufactured_error = error.value() if error is not None else None
    return ExperimentResult(cfg, result, csv_path, manufactured_error)


_SUMMARY_COLUMNS = [
    "parameter", "value", "dt", "eps", "eta", "steps",
    "final_kinetic_energy", "final_div_norm", "final_pressure_norm",
    "time_integrated_div", "accumulated_slip", "accumulated_penalization",
]


def run_sweep(cfg: RunConfig, out_dir: str, quiet: bool = True):
    """Run every sweep member and write a per-run plus a summary CSV.

    The summary carries one row per run and, in extra columns, the fitted
    log-log exponents of the time-integrated divergence and of the
    accumulated slip error against eps (dt/lambda sweeps) or eta (eta
    sweeps). A sweep whose eps or eta take fewer than two distinct values
    has no exponents.
    """
    if cfg.sweep is None:
        raise ValueError("configuration has no [sweep] section")
    members = cfg.sweep_configs()
    rows = []
    results = []
    for idx, member in enumerate(members):
        tag = f"{cfg.sweep.parameter}{idx}"
        res = run_single(member, out_dir, tag=tag, quiet=quiet)
        recs = res.run_result.records
        dt = member.params.dt
        div_l2t = math.sqrt(sum(dt * r.div_norm**2 for r in recs))
        slip = sum(dt * r.slip_error for r in recs)
        pen = sum(dt * r.penalization_energy for r in recs)
        last = recs[-1]
        row = {
            "parameter": cfg.sweep.parameter,
            "value": getattr(member.params, cfg.sweep.param_field),
            "dt": dt,
            "eps": member.params.epsilon,
            "eta": member.params.eta,
            "steps": len(recs),
            "final_kinetic_energy": last.kinetic_energy,
            "final_div_norm": last.div_norm,
            "final_pressure_norm": last.pressure_norm,
            "time_integrated_div": div_l2t,
            "accumulated_slip": slip,
            "accumulated_penalization": pen,
        }
        if res.manufactured_error is not None:
            row["manufactured_error"] = res.manufactured_error
        rows.append(row)
        results.append(res)

    xs = [row["eps" if cfg.sweep.parameter in ("dt", "lambda") else "eta"]
          for row in rows]
    exponents = {}
    if len(set(xs)) >= 2:
        ys = [row["time_integrated_div"] for row in rows]
        if all(y > 0 for y in ys):
            exponents["div_exponent"], exponents["div_fit_residual"] = fit_exponent(xs, ys)
        ys = [row["accumulated_slip"] for row in rows]
        if all(y > 0 for y in ys):
            exponents["slip_exponent"], exponents["slip_fit_residual"] = fit_exponent(xs, ys)
        if all("manufactured_error" in row for row in rows):
            ys = [row["manufactured_error"] for row in rows]
            if all(y > 0 for y in ys) and cfg.sweep.parameter == "dt":
                (exponents["manufactured_error_exponent"],
                 exponents["manufactured_error_fit_residual"]) = \
                    fit_exponent([row["dt"] for row in rows], ys)

    summary = os.path.join(out_dir, "sweep_summary.csv")
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        cols = list(_SUMMARY_COLUMNS)
        if all("manufactured_error" in row for row in rows):
            cols.append("manufactured_error")
        cols += sorted(exponents)
        fh.write(",".join(cols) + "\n")
        for row in rows:
            vals = [row[c] if c in row else exponents[c] for c in cols]
            fh.write(",".join(_FMT % v if isinstance(v, float) else str(v)
                              for v in vals) + "\n")
    if not quiet:
        print(f"wrote {summary}")
        for key, val in exponents.items():
            print(f"  {key} = {val:.4f}")
    return results, rows, exponents
