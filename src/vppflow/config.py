"""Run configuration: INI-style key-value sections, parsed into domain objects.

[grid] becomes a Grid, [scheme] and [solver] one SchemeParams, and
[obstacle] an Obstacle (None for shape = none). Each is built once while
parsing, and its own constructor holds the range checks: a ValueError it
raises becomes a ConfigError naming the section and its keys. Every member
of a [sweep] is built too, so a configuration that loads can run them all.

The divergence penalty is never a free input: only the ratio lambda is
accepted and eps = lambda * dt is derived per run, also inside sweeps.
Unknown sections and keys are rejected. [solver] correction_rtol is still
accepted and range-checked so existing files keep loading, but no solver
reads it: the correction is solved exactly. Defaults applied during
parsing are echoed so a run log shows the full effective configuration.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

from .grid import Grid
from .linalg import SolverConfig
from .obstacle import Obstacle
from .scheme import SchemeParams


class ConfigError(ValueError):
    """Invalid or unparsable run configuration; message names the field."""


# ConfigParser lower-cases keys, so [scheme] T is read as t
_KEYS = {
    "grid": ("nx", "ny", "lx", "ly"),
    "scheme": ("dt", "t", "lambda", "eta", "mu"),
    "solver": ("prediction_rtol", "correction_rtol", "max_iter"),
    "initial": ("type", "path"),
    "forcing": ("type", "fx", "fy", "path"),
    "obstacle": ("shape", "radius", "center_x", "center_y", "vel_x", "vel_y",
                 "omega", "chi_mode"),
    "output": ("csv", "dump_every"),
    "sweep": ("parameter", "values"),
}

_DEFAULTS = {
    ("grid", "lx"): "1.0",
    ("grid", "ly"): "1.0",
    ("scheme", "lambda"): "1.0",
    ("scheme", "eta"): "1e-6",
    ("scheme", "mu"): "1e-2",
    ("solver", "prediction_rtol"): "1e-8",
    ("solver", "max_iter"): "20000",
    ("initial", "type"): "zero",
    ("forcing", "type"): "zero",
    ("obstacle", "shape"): "none",
    ("obstacle", "chi_mode"): "binary",
    ("output", "csv"): "diagnostics.csv",
    ("output", "dump_every"): "0",
}


@dataclass(frozen=True)
class SelectorSpec:
    kind: str
    options: tuple = ()       # sorted (key, value) pairs for extra fields


@dataclass(frozen=True)
class OutputSpec:
    csv: str = "diagnostics.csv"
    dump_every: int = 0


@dataclass(frozen=True)
class SweepSpec:
    parameter: str            # dt, eta or lambda
    values: tuple[float, ...]

    @property
    def param_field(self) -> str:
        """The SchemeParams field the sweep varies."""
        return "lam" if self.parameter == "lambda" else self.parameter


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: SchemeParams
    obstacle: Obstacle | None
    initial: SelectorSpec
    forcing: SelectorSpec
    output: OutputSpec
    sweep: SweepSpec | None = None
    defaulted: tuple[str, ...] = ()

    def sweep_configs(self) -> list["RunConfig"]:
        """Expand the sweep into standalone configs (eps re-derived per run)."""
        if self.sweep is None:
            return [self]
        return [replace(self, params=replace(self.params, **{self.sweep.param_field: val}),
                        sweep=None)
                for val in self.sweep.values]

    def echo(self) -> str:
        g, p = self.grid, self.params
        lines = [
            "effective configuration:",
            f"  grid: {g.nx}x{g.ny} on {g.lx}x{g.ly}",
            f"  scheme: dt={p.dt} T={p.t_final} lambda={p.lam} "
            f"eps={p.epsilon} eta={p.eta} mu={p.mu}",
            f"  solver: prediction_rtol={p.prediction_solver.rtol} "
            f"max_iter={p.prediction_solver.max_iter}",
            f"  initial: {self.initial.kind}  forcing: {self.forcing.kind}",
            f"  obstacle: {'none' if self.obstacle is None else 'disk'}",
        ]
        if self.sweep:
            lines.append(f"  sweep: {self.sweep.parameter} over {list(self.sweep.values)}")
        if self.defaulted:
            lines.append("  defaulted: " + ", ".join(self.defaulted))
        return "\n".join(lines)


def _get(parser, section, key, defaulted, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if (section, key) in _DEFAULTS:
        defaulted.append(f"{section}.{key}={_DEFAULTS[(section, key)]}")
        return _DEFAULTS[(section, key)]
    if required:
        raise ConfigError(f"missing required field [{section}] {key}")
    return None


def _number(convert, section, key, raw):
    try:
        return convert(raw)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"field [{section}] {key} = {raw!r} is not {kind}") from None


def _domain(where, build, *args, **kwargs):
    """build(*args, **kwargs); its ValueError becomes a ConfigError naming where."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"field {where}: {exc}") from exc


def load_config(text: str) -> RunConfig:
    """Parse a configuration document into the domain objects of one run."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        where = f" (line {lineno})" if lineno else ""
        raise ConfigError(f"config parse error{where}: {exc.message}") from exc

    if parser.has_option("scheme", "epsilon") or parser.has_option("scheme", "eps"):
        raise ConfigError("epsilon is not a free parameter; set [scheme] lambda "
                          "instead (eps = lambda * dt is derived)")
    if parser.defaults():   # its keys would reach every section
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown field [{section}] {key}")
    if not parser.has_section("grid"):
        raise ConfigError("missing required section [grid]")
    if not parser.has_section("scheme"):
        raise ConfigError("missing required section [scheme]")

    defaulted: list[str] = []

    def get(section, key, required=False):
        return _get(parser, section, key, defaulted, required)

    def num(section, key, convert=float, required=False, default=None):
        raw = get(section, key, required)
        return default if raw is None else _number(convert, section, key, raw)

    grid = _domain("[grid] nx/ny/lx/ly", Grid,
                   num("grid", "nx", int, required=True), num("grid", "ny", int, required=True),
                   num("grid", "lx"), num("grid", "ly"))

    scheme = dict(dt=num("scheme", "dt", required=True),
                  t_final=num("scheme", "T", required=True),
                  lam=num("scheme", "lambda"), eta=num("scheme", "eta"), mu=num("scheme", "mu"))
    solver = _domain("[solver] prediction_rtol/max_iter", SolverConfig,
                     rtol=num("solver", "prediction_rtol"),
                     max_iter=num("solver", "max_iter", int))
    if parser.has_option("solver", "correction_rtol"):
        _domain("[solver] correction_rtol", SolverConfig,
                rtol=num("solver", "correction_rtol"))
    params = _domain("[scheme] dt/T/lambda/eta/mu", SchemeParams,
                     prediction_solver=solver, **scheme)

    init_kind = get("initial", "type")
    if init_kind not in ("zero", "taylor-green", "file"):
        raise ConfigError(f"field [initial] type = {init_kind!r} must be "
                          "zero, taylor-green or file")
    init_opts = []
    if init_kind == "file":
        init_opts.append(("path", get("initial", "path", required=True)))

    forcing_kind = get("forcing", "type")
    if forcing_kind not in ("zero", "constant", "taylor-green", "file"):
        raise ConfigError(f"field [forcing] type = {forcing_kind!r} must be "
                          "zero, constant, taylor-green or file")
    forcing_opts = []
    if forcing_kind == "constant":
        forcing_opts += [("fx", num("forcing", "fx", default=0.0)),
                         ("fy", num("forcing", "fy", default=0.0))]
    if forcing_kind == "file":
        forcing_opts.append(("path", get("forcing", "path", required=True)))

    shape = get("obstacle", "shape")
    if shape not in ("none", "disk"):
        raise ConfigError(f"field [obstacle] shape = {shape!r} must be none or disk")
    obstacle = None
    if shape == "disk":
        obstacle = _domain(
            "[obstacle] radius/chi_mode", Obstacle,
            radius=num("obstacle", "radius", required=True),
            center=(num("obstacle", "center_x", required=True),
                    num("obstacle", "center_y", required=True)),
            velocity=(num("obstacle", "vel_x", default=0.0),
                      num("obstacle", "vel_y", default=0.0)),
            omega=num("obstacle", "omega", default=0.0),
            t_max=params.t_final, chi_mode=get("obstacle", "chi_mode"))

    csv_name = get("output", "csv")
    dump_every = num("output", "dump_every", int)
    if dump_every < 0:
        raise ConfigError(f"field [output] dump_every must be >= 0, got {dump_every}")
    output = OutputSpec(csv=csv_name, dump_every=dump_every)

    sweep = None
    if parser.has_section("sweep"):
        pname = get("sweep", "parameter", required=True)
        if pname not in ("dt", "eta", "lambda"):
            raise ConfigError(f"field [sweep] parameter = {pname!r} must be "
                              "dt, eta or lambda")
        raw_vals = get("sweep", "values", required=True)
        try:
            values = tuple(float(v) for v in raw_vals.replace(",", " ").split())
        except ValueError:
            values = ()
        if not values:
            raise ConfigError(f"field [sweep] values = {raw_vals!r} "
                              "must be a list of numbers")
        sweep = SweepSpec(parameter=pname, values=values)

    cfg = RunConfig(
        grid=grid, params=params, obstacle=obstacle,
        initial=SelectorSpec(init_kind, tuple(init_opts)),
        forcing=SelectorSpec(forcing_kind, tuple(forcing_opts)),
        output=output, sweep=sweep, defaulted=tuple(defaulted),
    )
    _domain("[sweep] values", cfg.sweep_configs)
    return cfg


def load_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
