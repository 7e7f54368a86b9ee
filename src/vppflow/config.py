"""Run configuration: INI-style key-value sections, parsed into domain objects.

[grid] becomes a Grid, [scheme] and [solver] one SchemeParams, [obstacle]
an Obstacle (None for shape = none) and [output] an OutputSpec, each built
once from the keys the file sets: every other field keeps its type's
default, and the type's constructor holds the range checks. A ValueError
it raises becomes a ConfigError naming the section and its keys. Every
member of a [sweep] is built too, a disk must clear the walls over each
member's run, and a taylor-green initial state or forcing needs the unit
square, so a configuration that loads can run them all.

The divergence penalty is never a free input: only the ratio lambda is
accepted and eps = lambda * dt is derived per run, also inside sweeps.
Unknown sections and keys are rejected, and so is a key that its
section's type or shape does not read. [solver] correction_rtol is still
accepted and range-checked so existing files keep loading, but no solver
reads it: the correction is solved exactly. The echo shows every
effective value and names the keys that took a default.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

from .grid import Grid, require_finite
from .manufactured import require_unit_square
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

# the INI keys whose constructor field is named otherwise
_FIELD = {"T": "t_final", "lambda": "lam"}

# the selectors; every other default belongs to the type its section builds
_DEFAULTS = {
    ("initial", "type"): "zero",
    ("forcing", "type"): "zero",
    ("obstacle", "shape"): "none",
}


@dataclass(frozen=True)
class SelectorSpec:
    kind: str
    options: tuple = ()       # sorted (key, value) pairs for extra fields


@dataclass(frozen=True)
class OutputSpec:
    csv: str = "diagnostics.csv"
    dump_every: int = 0       # a VTK snapshot every k steps; 0 = never

    def __post_init__(self):
        if not self.csv:
            raise ValueError("csv must name a file")
        if self.dump_every < 0:
            raise ValueError(f"dump_every must be >= 0, got {self.dump_every}")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str            # dt, eta or lambda
    values: tuple[float, ...]

    @property
    def param_field(self) -> str:
        """The SchemeParams field the sweep varies."""
        return _FIELD.get(self.parameter, self.parameter)


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
        g, p, o = self.grid, self.params, self.obstacle
        lines = [
            "effective configuration:",
            f"  grid: {g.nx}x{g.ny} on {g.lx}x{g.ly}",
            f"  scheme: dt={p.dt} T={p.t_final} lambda={p.lam} "
            f"eps={p.epsilon} eta={p.eta} mu={p.mu}",
            f"  solver: prediction_rtol={p.prediction_rtol} max_iter={p.max_iter}",
            f"  initial: {self.initial.kind}  forcing: {self.forcing.kind}",
            "  obstacle: none" if o is None else
            f"  obstacle: disk radius={o.radius} center={o.center} velocity={o.velocity} "
            f"omega={o.omega} chi_mode={o.chi_mode}",
            f"  output: csv={self.output.csv} dump_every={self.output.dump_every}",
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
        defaulted.append(f"{section}.{key}")
        return _DEFAULTS[(section, key)]
    if required:
        raise ConfigError(f"missing required field [{section}] {key}")
    return None


def _value(convert, section, key, raw):
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

    def num(section, key, default=None):
        raw = get(section, key)
        return default if raw is None else _value(float, section, key, raw)

    def unread(section, selector, kind, read=()):
        """Reject a key of section that neither selects nor is read by kind."""
        for key in _KEYS[section]:
            if key != selector and key not in read and parser.has_option(section, key):
                raise ConfigError(f"field [{section}] {key} is set, but {selector} = {kind}")

    def given(section, spec, required=()):
        """Constructor keywords from the keys of section the file sets; spec
        maps each key to its conversion. A key left out keeps its type's
        default and, unless required, is named in defaulted."""
        kwargs = {}
        for key, convert in spec.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                kwargs[_FIELD.get(key, key)] = _value(convert, section, key, raw)
            elif key in required:
                raise ConfigError(f"missing required field [{section}] {key}")
            else:
                defaulted.append(f"{section}.{key}")
        return kwargs

    grid = _domain("[grid] nx/ny/lx/ly", Grid, **given(
        "grid", {"nx": int, "ny": int, "lx": float, "ly": float}, required=("nx", "ny")))

    scheme = given("scheme", dict.fromkeys(("dt", "T", "lambda", "eta", "mu"), float),
                   required=("dt", "T"))
    solver = given("solver", {"prediction_rtol": float, "max_iter": int})
    correction_rtol = num("solver", "correction_rtol")
    if correction_rtol is not None and not 0.0 < correction_rtol < 1.0:
        raise ConfigError(f"field [solver] correction_rtol must be in (0, 1), "
                          f"got {correction_rtol}")
    params = _domain("[scheme] dt/T/lambda/eta/mu, [solver] prediction_rtol/max_iter",
                     SchemeParams, **scheme, **solver)

    init_kind = get("initial", "type")
    if init_kind not in ("zero", "taylor-green", "file"):
        raise ConfigError(f"field [initial] type = {init_kind!r} must be "
                          "zero, taylor-green or file")
    init_opts = []
    if init_kind == "file":
        init_opts.append(("path", get("initial", "path", required=True)))
    unread("initial", "type", init_kind, dict(init_opts))

    forcing_kind = get("forcing", "type")
    if forcing_kind not in ("zero", "constant", "taylor-green", "file"):
        raise ConfigError(f"field [forcing] type = {forcing_kind!r} must be "
                          "zero, constant, taylor-green or file")
    forcing_opts = []
    if forcing_kind == "constant":
        forcing_opts += [("fx", num("forcing", "fx", default=0.0)),
                         ("fy", num("forcing", "fy", default=0.0))]
        _domain("[forcing] fx/fy", require_finite, dict(forcing_opts))
    if forcing_kind == "file":
        forcing_opts.append(("path", get("forcing", "path", required=True)))
    unread("forcing", "type", forcing_kind, dict(forcing_opts))
    for section, kind in (("initial", init_kind), ("forcing", forcing_kind)):
        if kind == "taylor-green":
            _domain(f"[{section}] type = taylor-green", require_unit_square, grid)

    shape = get("obstacle", "shape")
    if shape not in ("none", "disk"):
        raise ConfigError(f"field [obstacle] shape = {shape!r} must be none or disk")
    obstacle = None
    if shape == "none":
        unread("obstacle", "shape", shape)
    else:
        disk = given("obstacle", dict.fromkeys(
            ("radius", "center_x", "center_y", "vel_x", "vel_y", "omega"), float)
            | {"chi_mode": str}, required=("radius", "center_x", "center_y"))
        disk["center"] = (disk.pop("center_x"), disk.pop("center_y"))
        if "vel_x" in disk or "vel_y" in disk:
            disk["velocity"] = (disk.pop("vel_x", Obstacle.velocity[0]),
                                disk.pop("vel_y", Obstacle.velocity[1]))
        obstacle = _domain("[obstacle] radius/chi_mode/center_x/center_y/vel_x/vel_y/omega",
                           Obstacle, **disk)

    output = _domain("[output] dump_every/csv", OutputSpec,
                     **given("output", {"csv": str, "dump_every": int}))

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
    for member in _domain("[sweep] values", cfg.sweep_configs):
        if obstacle is not None:
            gap = obstacle.clearance(grid, member.params.t_final)
            if gap <= 0:
                raise ConfigError(f"field [obstacle]: the disk touches the boundary by "
                                  f"T = {member.params.t_final} (clearance {gap:.3g})")
    return cfg


def load_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
