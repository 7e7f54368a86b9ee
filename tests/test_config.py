import pytest

from vppflow.config import ConfigError, OutputSpec, load_config
from vppflow.grid import Grid
from vppflow.obstacle import Obstacle
from vppflow.scheme import SchemeParams

MINIMAL = """
[grid]
nx = 16
ny = 16

[scheme]
dt = 0.01
T = 0.1
"""


def test_minimal_config_gets_documented_defaults():
    cfg = load_config(MINIMAL)
    assert cfg.params.lam == 1.0
    assert cfg.params.eta == 1e-6
    assert cfg.params.mu == 1e-2
    assert cfg.initial.kind == "zero"
    assert cfg.forcing.kind == "zero"
    assert cfg.obstacle is None
    assert cfg.params.epsilon == pytest.approx(1.0 * 0.01)
    # config restates no default: each comes from the type the section builds
    assert cfg.grid == Grid(16, 16)
    assert cfg.params == SchemeParams(dt=0.01, t_final=0.1)
    assert cfg.output == OutputSpec()
    # every applied default is echoed
    assert any("scheme.lambda" in d for d in cfg.defaulted)
    assert any("scheme.eta" in d for d in cfg.defaulted)
    assert "lambda=1.0" in cfg.echo()


def test_correction_rtol_is_still_accepted_and_validated():
    # the correction is solved exactly, but existing files keep loading
    load_config(MINIMAL + "\n[solver]\ncorrection_rtol = 1e-9\n")
    with pytest.raises(ConfigError, match="correction_rtol"):
        load_config(MINIMAL + "\n[solver]\ncorrection_rtol = 2\n")


@pytest.mark.parametrize("text, field", [
    (MINIMAL.replace("T = 0.1", "T = 0.1\nviscosity = 0.5"), r"\[scheme\] viscosity"),
    (MINIMAL + "\n[output]\nretain_snapshots = true\n", r"\[output\] retain_snapshots"),
    (MINIMAL + "\n[solver]\ncorrection_tol = 1e-9\n", r"\[solver\] correction_tol"),
], ids=["viscosity", "retain_snapshots", "correction_tol"])
def test_unknown_key_rejected(text, field):
    with pytest.raises(ConfigError, match="unknown field " + field):
        load_config(text)


def test_negative_dump_every_rejected():
    with pytest.raises(ConfigError, match=r"\[output\] dump_every"):
        load_config(MINIMAL + "\n[output]\ndump_every = -1\n")


def test_explicit_epsilon_is_rejected():
    text = MINIMAL + "\n[solver]\n"
    bad = text.replace("dt = 0.01", "dt = 0.01\nepsilon = 1e-4")
    with pytest.raises(ConfigError, match="lambda"):
        load_config(bad)


def test_sweep_expansion_keeps_eps_slaved_to_dt():
    text = MINIMAL + """
[sweep]
parameter = dt
values = 0.025 0.0125 0.00625 0.003125
"""
    cfg = load_config(text)
    members = cfg.sweep_configs()
    assert len(members) == 4
    for member, dt in zip(members, (0.025, 0.0125, 0.00625, 0.003125)):
        assert member.params.dt == dt
        assert member.params.epsilon == pytest.approx(member.params.lam * dt)
        assert member.sweep is None


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line"):
        load_config("[grid]\nnx = 8\nny 8\n[scheme]\ndt=0.1\nT=1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(MINIMAL + "\n[turbulence]\nmodel = none\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config("[DEFAULT]\nmu = 0.5\n" + MINIMAL)


def test_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"\[scheme\] dt"):
        load_config(MINIMAL.replace("dt = 0.01", "dt = -0.01"))
    with pytest.raises(ConfigError, match=r"\[grid\] nx"):
        load_config(MINIMAL.replace("nx = 16", "nx = one"))
    with pytest.raises(ConfigError, match="shorter than one step"):
        load_config(MINIMAL.replace("T = 0.1", "T = 0.001"))
    with pytest.raises(ConfigError, match="missing required"):
        load_config("[grid]\nnx = 8\nny = 8\n[scheme]\ndt = 0.01\n")
    # the manufactured vortex is defined on the unit square only
    with pytest.raises(ConfigError, match=r"\[initial\] type = taylor-green"):
        load_config(MINIMAL.replace("ny = 16", "ny = 16\nlx = 2")
                    + "[initial]\ntype = taylor-green\n")
    with pytest.raises(ConfigError, match=r"\[forcing\] type = taylor-green"):
        load_config(MINIMAL.replace("ny = 16", "ny = 16\nly = 0.5")
                    + "[forcing]\ntype = taylor-green\n")
    # a key its section's type does not read
    with pytest.raises(ConfigError, match=r"\[initial\] path is set, but type = zero"):
        load_config(MINIMAL + "[initial]\npath = state.npz\n")
    with pytest.raises(ConfigError, match=r"\[forcing\] fx is set, but type = zero"):
        load_config(MINIMAL + "[forcing]\nfx = 3\n")
    with pytest.raises(ConfigError, match=r"\[forcing\] path is set, but type = constant"):
        load_config(MINIMAL + "[forcing]\ntype = constant\npath = f.npz\n")
    with pytest.raises(ConfigError, match=r"\[forcing\] fy is set, but type = file"):
        load_config(MINIMAL + "[forcing]\ntype = file\npath = f.npz\nfy = 1\n")
    with pytest.raises(ConfigError, match=r"\[output\] dump_every/csv: csv must name a file"):
        load_config(MINIMAL + "[output]\ncsv =\n")


def test_obstacle_section_parsing():
    text = MINIMAL + """
[obstacle]
shape = disk
radius = 0.15
center_x = 0.5
center_y = 0.5
vel_y = 0.25
omega = 1.0
"""
    cfg = load_config(text)
    obs = cfg.obstacle
    assert obs.radius == 0.15
    assert obs.omega == 1.0
    # the keys left out take Obstacle's defaults
    assert obs.velocity == (Obstacle.velocity[0], 0.25)
    assert obs.chi_mode == Obstacle.chi_mode
    assert "obstacle.chi_mode" in cfg.defaulted


DISK = MINIMAL + """
[obstacle]
shape = disk
radius = 0.15
center_x = 0.5
center_y = 0.5
"""


@pytest.mark.parametrize("line, bad, message", [
    ("dt = 0.01", "dt = nan", r"\[scheme\] dt/.*: dt must be finite"),
    ("T = 0.1", "T = inf", r"\[scheme\] dt/T/.*: T must be finite"),
    ("T = 0.1", "T = 0.1\neta = nan", r"\[scheme\] .*eta.*: eta must be finite"),
    ("T = 0.1", "T = 0.1\nmu = nan", r"\[scheme\] .*mu.*: mu must be finite"),
    ("T = 0.1", "T = 0.1\nmu = inf", r"\[scheme\] .*mu.*: mu must be finite"),
    ("T = 0.1", "T = 0.1\nlambda = nan", r"\[scheme\] .*lambda.*: lambda must be finite"),
    ("ny = 16", "ny = 16\nlx = nan", r"\[grid\] .*lx.*: lx must be finite"),
    ("radius = 0.15", "radius = nan", r"\[obstacle\] radius.*: radius must be finite"),
    ("center_x = 0.5", "center_x = nan", r"\[obstacle\] .*center_x.*: center must be finite"),
    ("center_y = 0.5", "center_y = 0.5\n[forcing]\ntype = constant\nfx = nan",
     r"\[forcing\] fx/fy: fx must be finite"),
    ("center_y = 0.5", "center_y = 0.5\n[forcing]\ntype = constant\nfx = 1\nfy = -inf",
     r"\[forcing\] fx/fy: fy must be finite"),
], ids=["dt-nan", "T-inf", "eta-nan", "mu-nan", "mu-inf", "lambda-nan", "lx-nan",
        "radius-nan", "center_x-nan", "fx-nan", "fy-inf"])
def test_non_finite_values_rejected(line, bad, message):
    # x <= 0 is false for nan, so the range checks alone let it through
    with pytest.raises(ConfigError, match=message):
        load_config(DISK.replace(line, bad))


def test_obstacle_requires_radius():
    with pytest.raises(ConfigError, match="radius"):
        load_config(MINIMAL + "\n[obstacle]\nshape = disk\ncenter_x=0.5\ncenter_y=0.5\n")


def test_file_selector_requires_path():
    with pytest.raises(ConfigError, match="path"):
        load_config(MINIMAL + "\n[initial]\ntype = file\n")


def test_taylor_green_selector_accepted():
    cfg = load_config(MINIMAL + "\n[initial]\ntype = taylor-green\n"
                      "[forcing]\ntype = taylor-green\n")
    assert cfg.initial.kind == "taylor-green"
    assert cfg.forcing.kind == "taylor-green"


def test_sweep_validation():
    with pytest.raises(ConfigError, match="parameter"):
        load_config(MINIMAL + "\n[sweep]\nparameter = nu\nvalues = 1 2\n")
    with pytest.raises(ConfigError, match="values"):
        load_config(MINIMAL + "\n[sweep]\nparameter = eta\nvalues = 1e-3 -1e-4\n")
