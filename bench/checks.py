"""Correctness checks on the outputs of one benchmark round.

Every check uses properties of the penalty-projection scheme and this
file's own MAC stencils (plain numpy on the staggered arrays), never
`vppflow.operators`, so a fault in the program's stencils cannot hide
itself. Each check raises CheckFailed with the measured numbers.

Array layout (as documented in the program's README): u has shape
(nx+1, ny) on vertical faces, v has shape (nx, ny+1) on horizontal faces,
pressure (nx, ny) at cell centres; axis 0 is x.
"""

from __future__ import annotations

import math
import os

import numpy as np

CSV_COLUMNS = [
    "n", "t", "kinetic_energy", "div_norm", "grad_norm", "pressure_norm",
    "pressure_grad_norm", "increment_norm", "pressure_increment_norm",
    "penalization_energy", "slip_error", "prediction_iterations",
    "correction_iterations",
]

# div_norm = eps * pressure_increment_norm holds up to the rounding of
# p - div/eps; the largest deviation measured on both flow workloads is
# 4e-16 relative.
DIV_PRESSURE_RTOL = 1e-12
# the CG stops once its true residual is below rtol; recomputing that
# residual with other stencils only adds rounding
CORRECTION_SLACK = 2.0


class CheckFailed(AssertionError):
    """An output violates a property of the method."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# MAC stencils
# ----------------------------------------------------------------------

def divergence(u, v, hx, hy):
    return (u[1:, :] - u[:-1, :]) / hx + (v[:, 1:] - v[:, :-1]) / hy


def gradient_interior(p, hx, hy):
    """Gradient of a cell field on the interior faces (boundary faces carry none)."""
    return (p[1:, :] - p[:-1, :]) / hx, (p[:, 1:] - p[:, :-1]) / hy


def cell_centre_velocity(u, v):
    return 0.5 * (u[1:, :] + u[:-1, :]), 0.5 * (v[:, 1:] + v[:, :-1])


def kinetic_energy(u, v, hx, hy):
    """0.5 * sum of face weights * speed^2; boundary faces count half."""
    wu = np.ones(u.shape)
    wu[[0, -1], :] = 0.5
    wv = np.ones(v.shape)
    wv[:, [0, -1]] = 0.5
    return 0.5 * hx * hy * float(np.sum(wu * u * u) + np.sum(wv * v * v))


def cell_l2(a, hx, hy):
    return math.sqrt(hx * hy * float(np.sum(a * a)))


def _rel_close(measured, expected, rtol, what):
    scale = max(abs(expected), abs(measured), 1e-300)
    _require(abs(measured - expected) <= rtol * scale,
             f"{what}: {measured!r} vs {expected!r} (rtol {rtol:g})")


# ----------------------------------------------------------------------
# Per-step CSV
# ----------------------------------------------------------------------

def read_csv(path):
    """Header and float rows of the per-step CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) >= 1, f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), f"{path}: a row has a missing field")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def check_csv(header, rows, n_steps, dt, eps):
    """Row count, time column, sign and the divergence/pressure identity.

    The pressure update p^{n+1} = p^n - div(v^{n+1})/eps is projected to
    zero mean; the discrete divergence already has zero mean, so
    ||div v^{n+1}|| = eps ||p^{n+1} - p^n|| on every row.
    """
    _require(header == CSV_COLUMNS, f"CSV header {header} != {CSV_COLUMNS}")
    _require(rows.shape[0] == n_steps,
             f"CSV has {rows.shape[0]} rows, expected floor(T/dt) = {n_steps}")
    _require(bool(np.all(np.isfinite(rows))), "CSV has a non-finite entry")
    _require(bool(np.all(rows >= 0.0)), "CSV has a negative entry")
    col = {name: rows[:, k] for k, name in enumerate(header)}
    steps = np.arange(1, n_steps + 1)
    _require(bool(np.all(col["n"] == steps)), "CSV column n is not 1..N")
    _require(bool(np.all(np.abs(col["t"] - steps * dt) <= 1e-12 * steps * dt)),
             "CSV column t is not n * dt")
    for k in range(n_steps):
        _rel_close(col["div_norm"][k], eps * col["pressure_increment_norm"][k],
                   DIV_PRESSURE_RTOL,
                   f"row {k + 1}: div_norm vs eps * pressure_increment_norm")
    return col


# ----------------------------------------------------------------------
# Final state
# ----------------------------------------------------------------------

def check_final_state(state, last_row, hx, hy, lam, correction_rtol):
    """The final state against the last CSV row and the correction equation.

    state holds the arrays u, v (v^{n+1}), u_hat, v_hat (the correction)
    and p. The correction solves lam v_hat - G D (v_hat + v_tilde) = 0, so
    lam v_hat = G D v^{n+1} on the interior faces, up to the CG residual
    rtol * ||G D v_tilde||.
    """
    u, v, p = state["u"], state["v"], state["p"]
    u_hat, v_hat = state["u_hat"], state["v_hat"]
    _require(all(bool(np.all(np.isfinite(a))) for a in (u, v, p, u_hat, v_hat)),
             "final state has a non-finite entry")
    for name, edge in (("u", u[[0, -1], :]), ("v", v[:, [0, -1]]),
                       ("u_hat", u_hat[[0, -1], :]), ("v_hat", v_hat[:, [0, -1]])):
        _require(bool(np.all(edge == 0.0)), f"{name} has a nonzero normal wall value")

    div = divergence(u, v, hx, hy)
    face_scale = max(float(np.abs(u).max()), float(np.abs(v).max())) / min(hx, hy)
    _require(abs(float(div.mean())) <= 1e-12 * face_scale,
             f"discrete divergence mean {div.mean():.3e} is not zero "
             f"(face scale {face_scale:.3e})")
    _require(abs(float(p.mean())) <= 1e-12 * max(float(np.abs(p).max()), 1e-300),
             f"pressure mean {p.mean():.3e} is not zero")

    _rel_close(kinetic_energy(u, v, hx, hy), last_row["kinetic_energy"], 1e-10,
               "kinetic energy of the final state vs the last CSV row")
    _rel_close(cell_l2(div, hx, hy), last_row["div_norm"], 1e-8,
               "divergence norm of the final state vs the last CSV row")
    _rel_close(cell_l2(p, hx, hy), last_row["pressure_norm"], 1e-10,
               "pressure norm of the final state vs the last CSV row")

    gu, gv = gradient_interior(div, hx, hy)
    res_u = lam * u_hat[1:-1, :] - gu
    res_v = lam * v_hat[:, 1:-1] - gv
    res = math.sqrt(float(np.sum(res_u**2) + np.sum(res_v**2)))
    tu, tv = gradient_interior(divergence(u - u_hat, v - v_hat, hx, hy), hx, hy)
    rhs = math.sqrt(float(np.sum(tu**2) + np.sum(tv**2)))
    bound = CORRECTION_SLACK * correction_rtol * rhs
    _require(res <= bound,
             f"correction residual ||lam v_hat - G D v|| = {res:.3e} exceeds "
             f"{CORRECTION_SLACK:g} * rtol * ||G D v_tilde|| = {bound:.3e}")


def check_rigid_core(u, v, hx, hy, t, center, velocity, omega, radius, rel_tol):
    """Cells at least 2h inside the disk move with the rigid velocity v_s.

    The error max |v - v_s| over the core is measured against max |v_s|
    over the disk.
    """
    nx, ny = u.shape[0] - 1, v.shape[1] - 1
    x = (np.arange(nx) + 0.5) * hx
    y = (np.arange(ny) + 0.5) * hy
    x, y = np.meshgrid(x, y, indexing="ij")
    cx, cy = center[0] + velocity[0] * t, center[1] + velocity[1] * t
    dist = np.hypot(x - cx, y - cy)
    core = dist <= radius - 2.0 * max(hx, hy)
    _require(bool(core.any()), "disk core holds no cell")
    us = velocity[0] - omega * (y - cy)
    vs = velocity[1] + omega * (x - cx)
    uc, vc = cell_centre_velocity(u, v)
    err = float(np.hypot(uc - us, vc - vs)[core].max())
    vs_max = float(np.hypot(us, vs)[dist <= radius].max())
    _require(err <= rel_tol * vs_max,
             f"disk core error {err:.3e} exceeds {rel_tol:g} * max|v_s| = "
             f"{rel_tol * vs_max:.3e}")


# ----------------------------------------------------------------------
# VTK dumps
# ----------------------------------------------------------------------

def _g(x):
    return "%.17g" % x


def check_vtk_file(path, nx, ny, hx, hy, dt):
    """Layout of one legacy VTK dump; returns (n, pressure, uc, vc)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    ncell = nx * ny
    _require(len(lines) == 11 + 2 * ncell + 1 and lines[-1] == "",
             f"{path}: {len(lines)} lines, expected {11 + 2 * ncell} and a final newline")
    head = lines[1].split()
    _require(len(head) == 4 and head[:2] == ["vppflow", "step"] and head[3].startswith("t="),
             f"{path}: title line {lines[1]!r}")
    n = int(head[2])
    _rel_close(float(head[3][2:]), n * dt, 1e-12, f"{path}: dump time")
    expected = {
        0: "# vtk DataFile Version 3.0",
        2: "ASCII",
        3: "DATASET STRUCTURED_POINTS",
        4: f"DIMENSIONS {nx} {ny} 1",
        5: f"ORIGIN {_g(hx / 2)} {_g(hy / 2)} 0",
        6: f"SPACING {_g(hx)} {_g(hy)} 1",
        7: f"POINT_DATA {ncell}",
        8: "SCALARS pressure double 1",
        9: "LOOKUP_TABLE default",
        10 + ncell: "VECTORS velocity double",
    }
    for k, text in expected.items():
        _require(lines[k] == text, f"{path}: line {k + 1} is {lines[k]!r}, expected {text!r}")
    pressure = np.array([float(s) for s in lines[10:10 + ncell]])
    vec = np.array([[float(s) for s in line.split()] for line in lines[11 + ncell:11 + 2 * ncell]])
    _require(vec.shape == (ncell, 3) and bool(np.all(vec[:, 2] == 0.0)),
             f"{path}: velocity lines are not 'u v 0'")
    # x runs fastest: line index = j * nx + i
    p, uc, vc = (a.reshape(ny, nx).T for a in (pressure, vec[:, 0], vec[:, 1]))
    return n, p, uc, vc


def check_vtk_dumps(out_dir, n_steps, dump_every, nx, ny, hx, hy, dt, final=None):
    """One dump per step divisible by dump_every, the initial state included.

    When the last step is a dump step, its fields must equal the final
    state exactly (%.17g round-trips).
    """
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".vtk"))
    want = list(range(0, n_steps + 1, dump_every))
    _require(len(files) == len(want), f"{len(files)} VTK files, expected {len(want)}")
    dumps = {}
    for name in files:
        n, p, uc, vc = check_vtk_file(os.path.join(out_dir, name), nx, ny, hx, hy, dt)
        dumps[n] = (p, uc, vc)
    _require(sorted(dumps) == want, f"VTK steps {sorted(dumps)}, expected {want}")
    if final is not None and n_steps in dumps:
        p, uc, vc = dumps[n_steps]
        fuc, fvc = cell_centre_velocity(final["u"], final["v"])
        _require(bool(np.array_equal(p, final["p"])) and bool(np.array_equal(uc, fuc))
                 and bool(np.array_equal(vc, fvc)),
                 f"VTK step {n_steps} does not hold the final state")


# ----------------------------------------------------------------------
# Acceptance criteria
# ----------------------------------------------------------------------

CRITERIA = [f"A{k}" for k in range(1, 9)]


def check_verify(results):
    """All eight criteria pass; A3, A4 and A7 are re-judged from their data.

    results is a list of dicts with name, passed and details. A4 compares
    with the dense coupled oracle, A3 with the manufactured solution and
    A7 with a hand-computed value, so their verdicts do not rest on the
    iterative solvers alone.
    """
    names = [r["name"] for r in results]
    _require(names == CRITERIA, f"criteria {names}, expected {CRITERIA}")
    failed = [r["name"] for r in results if not r["passed"]]
    _require(not failed, f"criteria failed: {failed}")
    by_name = {r["name"]: r["details"] for r in results}
    errs = by_name["A4"]["errors"]
    _require(all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] <= 1e-5,
             f"A4 oracle errors {errs} are not strictly decreasing to <= 1e-5")
    _require(by_name["A3"]["slope"] >= 0.8,
             f"A3 temporal order {by_name['A3']['slope']} < 0.8")
    _require(abs(by_name["A7"]["two_snapshot_value"] - 0.5) <= 1e-14,
             f"A7 two-snapshot value {by_name['A7']['two_snapshot_value']!r} != 0.5")
