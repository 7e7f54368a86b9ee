"""Experiment drivers: single runs, parameter sweeps, and output emission.

All quantitative output goes through CSV with %.17g formatting, so a rerun
of the same configuration is byte-identical. Optional field dumps use the
legacy VTK STRUCTURED_POINTS ASCII layout documented in the README; their
fields are printed as %.17g by a vectorized kernel (g17).
"""

from __future__ import annotations

import math
import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import diagnostics, operators
from .config import RunConfig
from .diagnostics import fit_exponent
from .grid import Grid, PressureField, VelocityField
from .manufactured import (SpaceTimeError, taylor_green_pressure, taylor_green_velocity,
                           taylor_green_wall_slip)
from .scheme import RunResult, SolverFailure, run

_FMT = "%.17g"


class OutputError(OSError):
    """Raised after writing the partial-output marker on I/O failure."""


# ----------------------------------------------------------------------
# Initial condition and forcing selectors
# ----------------------------------------------------------------------

def _load_fields(path, grid: Grid, names):
    """The arrays of the npz file at path that are among names, by name.

    Each is checked to have its grid shape (u faces, v faces or p cells)
    and only finite entries; u and v must be present. A file that cannot be
    opened raises OSError; a file that is no npz archive, a member numpy
    cannot load and a failed check raise ValueError naming the file.
    """
    shapes = {"u": grid.shape_u, "v": grid.shape_v, "p": grid.shape_p}
    try:
        with np.load(path) as data:
            found = {name: np.asarray(data[name], dtype=float)
                     for name in names if name in data}
    # a .npy file loads as an array, which refuses the with statement
    # (TypeError); a cut or corrupt zip raises BadZipFile or zlib.error, an
    # empty file EOFError; a member numpy refuses to load or to read as
    # floats raises ValueError or TypeError. OSError passes: exit code 3.
    except (zipfile.BadZipFile, zlib.error, EOFError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read as an npz archive: {exc}") from exc
    for name in names:
        if name not in found:
            if name == "p":   # an initial pressure is optional
                continue
            raise ValueError(f"{path}: no array {name!r}")
        arr = found[name]
        if arr.shape != shapes[name]:
            raise ValueError(f"{path}: array {name!r} has shape {arr.shape}, "
                             f"expected {shapes[name]}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {name!r} has non-finite entries")
    return found


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
    return lambda t: taylor_green_wall_slip(t, cfg.grid, cfg.params.mu)


# ----------------------------------------------------------------------
# Output writers
# ----------------------------------------------------------------------

def _csv_line(values) -> str:
    """One CSV row: floats as _FMT, everything else as str."""
    return ",".join(_FMT % v if isinstance(v, float) else str(v) for v in values) + "\n"


def write_records_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(diagnostics.CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(_csv_line(getattr(rec, c) for c in diagnostics.CSV_COLUMNS))


def write_vtk(path, state):
    """Legacy VTK STRUCTURED_POINTS ASCII dump of cell-centered fields.

    Each value is printed as _FMT prints it, in grid rows j with x fastest;
    the fields are formatted by g17.write a chunk at a time.
    """
    from . import g17     # loaded at the first dump, not by runs that dump nothing
    grid = state.v.grid
    uc, vc = operators.velocity_at_cell_centers(state.v)
    header = (
        "# vtk DataFile Version 3.0\n"
        f"vppflow step {state.n} t={_FMT % state.t}\n"
        "ASCII\n"
        "DATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {grid.nx} {grid.ny} 1\n"
        f"ORIGIN {_FMT % (grid.hx / 2)} {_FMT % (grid.hy / 2)} 0\n"
        f"SPACING {_FMT % grid.hx} {_FMT % grid.hy} 1\n"
        f"POINT_DATA {grid.ncells}\n"
        "SCALARS pressure double 1\nLOOKUP_TABLE default\n")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        g17.write(fh, state.p.p.T.ravel(), (b"\n",))
        fh.write(b"VECTORS velocity double\n")
        g17.write(fh, np.stack((uc.T, vc.T), axis=-1).ravel(), (b" ", b" 0\n"))


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
    initial = list(make_initial(cfg))   # popped into run's call: only its state keeps them
    forcing = make_forcing(cfg)
    wall_slip = make_wall_slip(cfg)

    dump_every = cfg.output.dump_every
    os.makedirs(out_dir, exist_ok=True)
    csv_dir, csv_base = os.path.split(cfg.output.csv)
    csv_path = os.path.join(out_dir, csv_dir, f"{tag}_{csv_base}" if tag else csv_base)

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

    finished = []       # the records of the steps done, kept if a solve fails
    try:
        existed = os.path.exists(csv_path)
        open(csv_path, "a", encoding="utf-8").close()   # an unwritable CSV fails before a step
        if not existed:
            os.remove(csv_path)
        try:
            result = run(initial.pop(0), initial.pop(), forcing, cfg.obstacle, cfg.params,
                         record_sink=finished.append,
                         snapshot_sink=snapshot_fanout if sinks else None,
                         wall_slip_fn=wall_slip)
        except SolverFailure as exc:
            write_records_csv(csv_path, finished)
            _mark_partial_output(out_dir, f"run stopped by a solver failure: {exc}")
            raise
        write_records_csv(csv_path, result.records)
    except OSError as exc:
        _mark_partial_output(out_dir, f"experiment aborted mid-output: {exc}")
        raise OutputError(f"I/O failure while writing results: {exc}") from exc
    if not quiet:
        print(f"wrote {csv_path} ({len(result.records)} steps, "
              f"initial divergence {result.initial_divergence:.3e})")
    manufactured_error = error.value() if error is not None else None
    return ExperimentResult(cfg, result, csv_path, manufactured_error)


def _mark_partial_output(out_dir, reason):
    """Leave a PARTIAL_OUTPUT file saying why in out_dir, if it can be written."""
    try:
        with open(os.path.join(out_dir, "PARTIAL_OUTPUT"), "w", encoding="utf-8") as fh:
            fh.write(reason + "\n")
    except OSError:
        pass


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
            fh.write(_csv_line(row[c] if c in row else exponents[c] for c in cols))
    if not quiet:
        print(f"wrote {summary}")
        for key, val in exponents.items():
            print(f"  {key} = {val:.4f}")
    return results, rows, exponents
