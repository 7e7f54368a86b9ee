"""Run configuration: INI-style key-value sections, validated into RunConfig.

The divergence penalty is never a free input: only the ratio lambda is
accepted and eps = lambda * dt is derived per run, also inside sweeps.
Defaults applied during parsing are echoed so a run log shows the full
effective configuration.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

from .linalg import SolverConfig
from .obstacle import Obstacle
from .scheme import SchemeParams


class ConfigError(ValueError):
    """Invalid or unparsable run configuration; message names the field."""


_KNOWN_SECTIONS = {"grid", "scheme", "solver", "initial", "forcing",
                   "obstacle", "output", "sweep"}

_DEFAULTS = {
    ("grid", "lx"): "1.0",
    ("grid", "ly"): "1.0",
    ("scheme", "lambda"): "1.0",
    ("scheme", "eta"): "1e-6",
    ("scheme", "mu"): "1e-2",
    ("solver", "prediction_rtol"): "1e-8",
    ("solver", "correction_rtol"): "1e-10",
    ("solver", "max_iter"): "20000",
    ("initial", "type"): "zero",
    ("forcing", "type"): "zero",
    ("obstacle", "shape"): "none",
    ("obstacle", "chi_mode"): "binary",
    ("output", "csv"): "diagnostics.csv",
    ("output", "dump_every"): "0",
    ("output", "retain_snapshots"): "false",
}


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0


@dataclass(frozen=True)
class SelectorSpec:
    kind: str
    options: tuple = ()       # sorted (key, value) pairs for extra fields


@dataclass(frozen=True)
class ObstacleSpec:
    shape: str = "none"
    radius: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    omega: float = 0.0
    chi_mode: str = "binary"


@dataclass(frozen=True)
class OutputSpec:
    csv: str = "diagnostics.csv"
    dump_every: int = 0
    retain_snapshots: bool = False


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    dt: float
    t_final: float
    lam: float
    eta: float
    mu: float
    prediction_rtol: float
    correction_rtol: float
    max_iter: int
    initial: SelectorSpec
    forcing: SelectorSpec
    obstacle: ObstacleSpec
    output: OutputSpec
    sweep: SweepSpec | None = None
    defaulted: tuple[str, ...] = ()

    @property
    def epsilon(self) -> float:
        return self.lam * self.dt

    def scheme_params(self) -> SchemeParams:
        """Scheme parameters of the run.

        correction_rtol reaches no solver: the correction is solved exactly
        (linalg.solve_correction). It is still accepted, validated and
        echoed, so existing configuration files keep loading.
        """
        return SchemeParams(
            dt=self.dt, t_final=self.t_final, lam=self.lam, eta=self.eta,
            mu=self.mu,
            prediction_solver=SolverConfig(rtol=self.prediction_rtol,
                                           max_iter=self.max_iter),
        )

    def make_obstacle(self) -> Obstacle:
        o = self.obstacle
        return Obstacle(shape=o.shape, radius=o.radius, center=o.center,
                        velocity=o.velocity, omega=o.omega,
                        t_max=self.t_final, chi_mode=o.chi_mode)

    def sweep_configs(self) -> list["RunConfig"]:
        """Expand the sweep into standalone configs (eps re-derived per run)."""
        if self.sweep is None:
            return [self]
        out = []
        for val in self.sweep.values:
            if self.sweep.parameter == "dt":
                cfg = replace(self, dt=val, sweep=None)
            elif self.sweep.parameter == "eta":
                cfg = replace(self, eta=val, sweep=None)
            elif self.sweep.parameter == "lambda":
                cfg = replace(self, lam=val, sweep=None)
            else:
                raise ConfigError(f"sweep parameter {self.sweep.parameter!r} "
                                  "must be dt, eta or lambda")
            out.append(cfg)
        return out

    def echo(self) -> str:
        lines = ["effective configuration:"]
        lines.append(f"  grid: {self.grid.nx}x{self.grid.ny} on "
                     f"{self.grid.lx}x{self.grid.ly}")
        lines.append(f"  scheme: dt={self.dt} T={self.t_final} lambda={self.lam} "
                     f"eps={self.epsilon} eta={self.eta} mu={self.mu}")
        lines.append(f"  solver: prediction_rtol={self.prediction_rtol} max_iter={self.max_iter} "
                     f"correction_rtol={self.correction_rtol} (no effect: exact correction)")
        lines.append(f"  initial: {self.initial.kind}  forcing: {self.forcing.kind}")
        lines.append(f"  obstacle: {self.obstacle.shape}")
        if self.sweep:
            lines.append(f"  sweep: {self.sweep.parameter} over {list(self.sweep.values)}")
        if self.defaulted:
            lines.append("  defaulted: " + ", ".join(self.defaulted))
        return "\n".join(lines)


def _get(parser, section, key, defaulted, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key), False
    if (section, key) in _DEFAULTS:
        defaulted.append(f"{section}.{key}={_DEFAULTS[(section, key)]}")
        return _DEFAULTS[(section, key)], True
    if required:
        raise ConfigError(f"missing required field [{section}] {key}")
    return None, False


def _as_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"field [{section}] {key} = {raw!r} is not a number") from None


def _as_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field [{section}] {key} = {raw!r} is not an integer") from None


def load_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        where = f" (line {lineno})" if lineno else ""
        raise ConfigError(f"config parse error{where}: {exc.message}") from exc

    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    defaulted: list[str] = []

    if not parser.has_section("grid"):
        raise ConfigError("missing required section [grid]")
    if not parser.has_section("scheme"):
        raise ConfigError("missing required section [scheme]")
    if parser.has_option("scheme", "epsilon") or parser.has_option("scheme", "eps"):
        raise ConfigError("epsilon is not a free parameter; set [scheme] lambda "
                          "instead (eps = lambda * dt is derived)")

    nx = _as_int("grid", "nx", _get(parser, "grid", "nx", defaulted, required=True)[0])
    ny = _as_int("grid", "ny", _get(parser, "grid", "ny", defaulted, required=True)[0])
    lx = _as_float("grid", "lx", _get(parser, "grid", "lx", defaulted)[0])
    ly = _as_float("grid", "ly", _get(parser, "grid", "ly", defaulted)[0])
    if nx < 2 or ny < 2:
        raise ConfigError(f"field [grid] nx/ny must be >= 2, got {nx}x{ny}")

    dt = _as_float("scheme", "dt", _get(parser, "scheme", "dt", defaulted, required=True)[0])
    t_final = _as_float("scheme", "T", _get(parser, "scheme", "T", defaulted, required=True)[0])
    lam = _as_float("scheme", "lambda", _get(parser, "scheme", "lambda", defaulted)[0])
    eta = _as_float("scheme", "eta", _get(parser, "scheme", "eta", defaulted)[0])
    mu = _as_float("scheme", "mu", _get(parser, "scheme", "mu", defaulted)[0])
    for name, val in (("dt", dt), ("T", t_final), ("lambda", lam),
                      ("eta", eta), ("mu", mu)):
        if val <= 0:
            raise ConfigError(f"field [scheme] {name} must be positive, got {val}")
    if t_final < dt:
        raise ConfigError(f"field [scheme] T={t_final} is shorter than one step dt={dt}")

    pr = _as_float("solver", "prediction_rtol",
                   _get(parser, "solver", "prediction_rtol", defaulted)[0])
    cr = _as_float("solver", "correction_rtol",
                   _get(parser, "solver", "correction_rtol", defaulted)[0])
    if not 0.0 < cr < 1.0:
        raise ConfigError(f"field [solver] correction_rtol must be in (0, 1), got {cr}")
    mi = _as_int("solver", "max_iter", _get(parser, "solver", "max_iter", defaulted)[0])

    init_kind, _ = _get(parser, "initial", "type", defaulted)
    if init_kind not in ("zero", "taylor-green", "file"):
        raise ConfigError(f"field [initial] type = {init_kind!r} must be "
                          "zero, taylor-green or file")
    init_opts = []
    if init_kind == "file":
        path, _ = _get(parser, "initial", "path", defaulted)
        if path is None:
            raise ConfigError("field [initial] path is required for type = file")
        init_opts.append(("path", path))

    forcing_kind, _ = _get(parser, "forcing", "type", defaulted)
    if forcing_kind not in ("zero", "constant", "taylor-green", "file"):
        raise ConfigError(f"field [forcing] type = {forcing_kind!r} must be "
                          "zero, constant, taylor-green or file")
    forcing_opts = []
    if forcing_kind == "constant":
        fx = _as_float("forcing", "fx", _get(parser, "forcing", "fx", defaulted)[0] or "0")
        fy = _as_float("forcing", "fy", _get(parser, "forcing", "fy", defaulted)[0] or "0")
        forcing_opts += [("fx", fx), ("fy", fy)]
    if forcing_kind == "file":
        path, _ = _get(parser, "forcing", "path", defaulted)
        if path is None:
            raise ConfigError("field [forcing] path is required for type = file")
        forcing_opts.append(("path", path))

    shape, _ = _get(parser, "obstacle", "shape", defaulted)
    if shape not in ("none", "disk"):
        raise ConfigError(f"field [obstacle] shape = {shape!r} must be none or disk")
    chi_mode, _ = _get(parser, "obstacle", "chi_mode", defaulted)
    obstacle = ObstacleSpec(shape="none", chi_mode=chi_mode)
    if shape == "disk":
        radius = _as_float("obstacle", "radius",
                           _get(parser, "obstacle", "radius", defaulted, required=True)[0])
        if radius <= 0:
            raise ConfigError("field [obstacle] radius must be positive")
        cx = _as_float("obstacle", "center_x",
                       _get(parser, "obstacle", "center_x", defaulted, required=True)[0])
        cy = _as_float("obstacle", "center_y",
                       _get(parser, "obstacle", "center_y", defaulted, required=True)[0])
        vx = _as_float("obstacle", "vel_x", _get(parser, "obstacle", "vel_x", defaulted)[0] or "0")
        vy = _as_float("obstacle", "vel_y", _get(parser, "obstacle", "vel_y", defaulted)[0] or "0")
        om = _as_float("obstacle", "omega", _get(parser, "obstacle", "omega", defaulted)[0] or "0")
        obstacle = ObstacleSpec(shape="disk", radius=radius, center=(cx, cy),
                                velocity=(vx, vy), omega=om, chi_mode=chi_mode)

    csv_path, _ = _get(parser, "output", "csv", defaulted)
    dump_every = _as_int("output", "dump_every",
                         _get(parser, "output", "dump_every", defaulted)[0])
    retain_raw, _ = _get(parser, "output", "retain_snapshots", defaulted)
    retain = str(retain_raw).strip().lower() in ("1", "true", "yes", "on")
    output = OutputSpec(csv=csv_path, dump_every=dump_every, retain_snapshots=retain)

    sweep = None
    if parser.has_section("sweep"):
        pname, _ = _get(parser, "sweep", "parameter", defaulted)
        if pname is None:
            raise ConfigError("field [sweep] parameter is required")
        if pname not in ("dt", "eta", "lambda"):
            raise ConfigError(f"field [sweep] parameter = {pname!r} must be "
                              "dt, eta or lambda")
        raw_vals, _ = _get(parser, "sweep", "values", defaulted)
        if raw_vals is None:
            raise ConfigError("field [sweep] values is required")
        try:
            values = tuple(float(v) for v in raw_vals.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"field [sweep] values = {raw_vals!r} "
                              "must be a list of numbers") from None
        if not values or any(v <= 0 for v in values):
            raise ConfigError("field [sweep] values must be positive numbers")
        sweep = SweepSpec(parameter=pname, values=values)

    cfg = RunConfig(
        grid=GridSpec(nx=nx, ny=ny, lx=lx, ly=ly),
        dt=dt, t_final=t_final, lam=lam, eta=eta, mu=mu,
        prediction_rtol=pr, correction_rtol=cr, max_iter=mi,
        initial=SelectorSpec(init_kind, tuple(init_opts)),
        forcing=SelectorSpec(forcing_kind, tuple(forcing_opts)),
        obstacle=obstacle, output=output, sweep=sweep,
        defaulted=tuple(defaulted),
    )
    # surface invalid dt/T/eta/mu combinations through SchemeParams validation
    try:
        cfg.scheme_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
