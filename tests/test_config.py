import pytest

from vppflow.config import ConfigError, load_config

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


def test_obstacle_section_parsing():
    text = MINIMAL + """
[obstacle]
shape = disk
radius = 0.15
center_x = 0.5
center_y = 0.5
omega = 1.0
"""
    obs = load_config(text).obstacle
    assert obs.radius == 0.15
    assert obs.omega == 1.0
    assert obs.t_max == 0.1


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
