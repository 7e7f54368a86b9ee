import os
import subprocess
import sys

import numpy as np
import pytest

import vppflow
from vppflow import scheme
from vppflow.cli import main
from vppflow.diagnostics import CSV_COLUMNS

ZERO_RUN = """
[grid]
nx = 8
ny = 8

[scheme]
dt = 0.01
T = 0.1
"""

SWEEP = """
[grid]
nx = 16
ny = 16

[scheme]
dt = 0.025
T = 0.2
mu = 0.05

[initial]
type = taylor-green

[sweep]
parameter = dt
values = 0.025 0.0125 0.00625 0.003125
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_zero_run_writes_all_zero_csv(tmp_path):
    cfg = write(tmp_path, "run.ini", ZERO_RUN)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    csv_path = os.path.join(out, "diagnostics.csv")
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 10
    for line in lines[1:]:
        fields = line.split(",")
        # all diagnostic columns (everything after n, t) are exactly zero
        assert all(float(v) == 0.0 for v in fields[2:])


def test_identical_config_gives_bit_identical_output(tmp_path):
    cfg = write(tmp_path, "run.ini", """
[grid]
nx = 16
ny = 16
[scheme]
dt = 0.02
T = 0.1
mu = 0.05
[initial]
type = taylor-green
""")
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", out2, "--quiet"]) == 0
    b1 = open(os.path.join(out1, "diagnostics.csv"), "rb").read()
    b2 = open(os.path.join(out2, "diagnostics.csv"), "rb").read()
    assert b1 == b2


def test_csv_does_not_depend_on_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product across its threads only above 10 000
    # elements, so the grid must have more packed faces than that (80^2
    # gives 12 640); each run is a fresh process because OpenBLAS reads
    # the variable when it loads. The "1" run is the count importing
    # vppflow sets by default, the "2" run an explicit override of it
    cfg = write(tmp_path, "rotor.ini", """
[grid]
nx = 80
ny = 80
[scheme]
dt = 0.0078125
T = 0.0234375
[obstacle]
shape = disk
radius = 0.15
center_x = 0.5
center_y = 0.5
omega = 1.0
""")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    csvs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "vppflow.cli", "run", "--config", cfg,
                        "--out", out, "--quiet"], env=env, check=True, timeout=120)
        csvs.append(open(os.path.join(out, "diagnostics.csv"), "rb").read())
    assert csvs[0] == csvs[1]


def test_dt_sweep_writes_summary_with_exponent(tmp_path):
    cfg = write(tmp_path, "sweep.ini", SWEEP)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = open(os.path.join(out, "sweep_summary.csv")).read().strip().splitlines()
    header = lines[0].split(",")
    assert "div_exponent" in header
    assert len(lines) == 1 + 4
    # per-run CSVs exist and are independent
    assert os.path.exists(os.path.join(out, "dt0_diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "dt3_diagnostics.csv"))


def test_sweep_with_repeated_values_omits_exponents(tmp_path):
    cfg = write(tmp_path, "repeat.ini", ZERO_RUN.replace("T = 0.1", "T = 0.04") + """
[initial]
type = taylor-green
[sweep]
parameter = dt
values = 0.02 0.02
""")
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = open(os.path.join(out, "sweep_summary.csv")).read().strip().splitlines()
    assert len(lines) == 1 + 2
    assert not any(col.endswith(("_exponent", "_fit_residual"))
                   for col in lines[0].split(","))


def test_manufactured_study_sweep_emits_error_table(tmp_path):
    # selecting the manufactured initial data and forcing turns a dt sweep
    # into a convergence study: the summary carries the space-time error
    # against the exact vortex and its fitted temporal exponent
    cfg = write(tmp_path, "study.ini", """
[grid]
nx = 16
ny = 16
[scheme]
dt = 0.025
T = 0.1
mu = 0.1
[initial]
type = taylor-green
[forcing]
type = taylor-green
[sweep]
parameter = dt
values = 0.025 0.0125 0.00625
""")
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = open(os.path.join(out, "sweep_summary.csv")).read().strip().splitlines()
    header = lines[0].split(",")
    assert "manufactured_error" in header
    assert "manufactured_error_exponent" in header
    idx = header.index("manufactured_error")
    errs = [float(ln.split(",")[idx]) for ln in lines[1:]]
    assert all(e > 0 for e in errs)
    assert errs[0] > errs[-1]


def test_sweep_members_match_standalone_runs(tmp_path):
    # sweep isolation: each member produces exactly the rows a standalone
    # run of the same configuration produces
    cfg = write(tmp_path, "sweep.ini", SWEEP)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out, "--quiet"]) == 0
    single = write(tmp_path, "single.ini",
                   SWEEP.replace("dt = 0.025", "dt = 0.0125").split("[sweep]")[0])
    out_single = str(tmp_path / "single")
    assert main(["run", "--config", single, "--out", out_single, "--quiet"]) == 0
    member = open(os.path.join(out, "dt1_diagnostics.csv"), "rb").read()
    standalone = open(os.path.join(out_single, "diagnostics.csv"), "rb").read()
    assert member == standalone


def test_sweep_tags_the_base_name_of_a_csv_path(tmp_path):
    cfg = write(tmp_path, "sweep.ini", ZERO_RUN + "[output]\ncsv = sub/d.csv\n"
                "[sweep]\nparameter = dt\nvalues = 0.01 0.02\n")
    out = tmp_path / "o"
    (out / "sub").mkdir(parents=True)
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sorted(os.listdir(out / "sub")) == ["dt0_d.csv", "dt1_d.csv"]
    assert sorted(os.listdir(out)) == ["sub", "sweep_summary.csv"]


def test_print_config_echoes_and_exits_zero(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", ZERO_RUN)
    assert main(["print-config", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "effective configuration" in out
    assert "defaulted" in out
    assert "obstacle: none" in out
    assert "output: csv=diagnostics.csv dump_every=0" in out


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", ZERO_RUN.replace("dt = 0.01", "dt = -1"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_file_exits_three(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 3


def test_solver_failure_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "hard.ini", """
[grid]
nx = 16
ny = 16
[scheme]
dt = 0.01
T = 0.05
mu = 1.0
[initial]
type = taylor-green
[solver]
max_iter = 1
prediction_rtol = 1e-12
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "prediction solve failed at step 1" in err


def test_run_verb_rejects_sweep_configs(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.ini", SWEEP)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_verify_subset_prints_pass_lines(tmp_path, capsys):
    assert main(["verify", "--criteria", "A8"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] A8" in out


def test_verify_rejects_unknown_criteria_before_running_any(capsys):
    assert main(["verify", "--criteria", "A8", "A9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown criteria A9" in captured.err
    assert "A1 A2 A3 A4 A5 A6 A7 A8" in captured.err


@pytest.mark.parametrize("argv", [["run"], ["bogus"], ["verify", "--quiet"],
                                  ["print-config", "--config", "x.ini", "--quiet"]])
def test_usage_errors_exit_one(argv, capsys):
    # exit 2 is a solver failure; argparse's own usage exit is mapped to 1
    assert main(argv) == 1
    assert "usage: vppflow" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: vppflow" in capsys.readouterr().out


def test_verify_verb_loads_no_run_configuration_code():
    # main imports config and experiments only for the verbs that read a file
    modules = ("configparser", "vppflow.config", "vppflow.experiments")
    code = ("import sys; from vppflow.cli import main; "
            "rc = main(['verify', '--criteria', 'A1']); "
            f"print(rc, [m for m in {modules!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(vppflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_vtk_dump_layout(tmp_path):
    cfg = write(tmp_path, "dump.ini", """
[grid]
nx = 4
ny = 4
[scheme]
dt = 0.05
T = 0.1
[output]
dump_every = 1
""")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    path = os.path.join(out, "fields_000001.vtk")
    lines = open(path).read().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 4 4 1"
    assert lines[7].startswith("POINT_DATA 16")
    assert "SCALARS pressure double 1" in lines
    assert "VECTORS velocity double" in lines


def test_vtk_rows_match_per_value_formatting(tmp_path):
    # the row-at-a-time writer must print each value as %.17g of the
    # float itself, in the documented order (j outer, x fastest)
    import numpy as np
    from vppflow import operators
    from vppflow.experiments import _FMT, write_vtk
    from vppflow.grid import Grid, PressureField, VelocityField
    from vppflow.scheme import FlowState

    g = Grid(5, 3, 1.0, 0.6)
    special = [-0.0, 1e-300, 1e300, 1.0, 3.0, -7.0, 2.0**53, 0.1, -1e-300,
               -2.5, 1 / 3, 12345678.0, -1e300, 5e-324, 0.0]
    p = PressureField(g, np.array(special).reshape(g.shape_p))
    # u constant along x and v constant along y: the cell averages keep
    # the special values exactly
    u = np.repeat(np.array([[-0.0, 1e300, 1e-300]]), g.nx + 1, axis=0)
    v = np.repeat(np.array([[1.0, -0.0, 7.0, 1e-300, 2.0**52]]).T, g.ny + 1, axis=1)
    vel = VelocityField(g, u, v)
    state = FlowState(n=3, t=0.1, v=vel, v_tilde=vel, v_hat=vel, p=p)
    path = tmp_path / "f.vtk"
    write_vtk(str(path), state)

    def f(x):
        return _FMT % float(x)

    uc, vc = operators.velocity_at_cell_centers(vel)
    expected = ["# vtk DataFile Version 3.0", f"vppflow step 3 t={f(0.1)}", "ASCII",
                "DATASET STRUCTURED_POINTS", "DIMENSIONS 5 3 1",
                f"ORIGIN {f(g.hx / 2)} {f(g.hy / 2)} 0", f"SPACING {f(g.hx)} {f(g.hy)} 1",
                "POINT_DATA 15", "SCALARS pressure double 1", "LOOKUP_TABLE default"]
    expected += [f(p.p[i, j]) for j in range(g.ny) for i in range(g.nx)]
    expected.append("VECTORS velocity double")
    expected += [f"{f(uc[i, j])} {f(vc[i, j])} 0"
                 for j in range(g.ny) for i in range(g.nx)]
    text = path.read_text()
    assert text.endswith("\n")
    assert text.splitlines() == expected
    assert {f(x) for x in (-0.0, 1e-300, 1e300, 1.0, 2.0**53)} <= set(text.split())


def test_file_initial_condition_roundtrip(tmp_path):
    import numpy as np
    from vppflow.grid import Grid
    from vppflow.manufactured import random_solenoidal

    g = Grid(8, 8)
    vel = random_solenoidal(g, np.random.default_rng(5))
    npz = tmp_path / "init.npz"
    np.savez(npz, u=vel.u, v=vel.v, p=np.zeros(g.shape_p))
    cfg = write(tmp_path, "file.ini", f"""
[grid]
nx = 8
ny = 8
[scheme]
dt = 0.01
T = 0.05
[initial]
type = file
path = {npz}
""")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = open(os.path.join(out, "diagnostics.csv")).read().strip().splitlines()
    assert len(lines) == 1 + 5
    # the loaded field actually drives the run: nonzero kinetic energy
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["kinetic_energy"]) > 0.0


def test_io_failure_leaves_partial_output_marker(tmp_path):
    # CSV path points into a missing subdirectory: the write fails, the
    # run aborts with exit code 3 and drops a marker in the out dir
    cfg = write(tmp_path, "run.ini", ZERO_RUN + "\n[output]\ncsv = missing_dir/diag.csv\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 3
    assert os.path.exists(os.path.join(out, "PARTIAL_OUTPUT"))


@pytest.mark.parametrize("csv", [".", "nodir/x.csv"], ids=["directory", "missing-dir"])
def test_unwritable_csv_exits_three_before_any_step(tmp_path, capsys, monkeypatch, csv):
    # the CSV path is checked once the output directory is known, before
    # the first step: no step runs, no row or VTK dump is written, and the
    # message names the path
    steps = []
    step = scheme.step
    monkeypatch.setattr(scheme, "step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
    cfg = write(tmp_path, "run.ini", ZERO_RUN + f"\n[output]\ncsv = {csv}\ndump_every = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert steps == []
    assert sorted(os.listdir(out)) == ["PARTIAL_OUTPUT"]
    assert os.path.join(str(out), csv) in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    (ZERO_RUN + "[obstacle]\nshape = disk\nradius = 0.2\ncenter_x = 0.5\n"
     "center_y = 0.5\nchi_mode = fractoin\n", "[obstacle] radius/chi_mode"),
    (ZERO_RUN + "[solver]\nprediction_rtol = 2\n", "[solver] prediction_rtol"),
    (ZERO_RUN + "[obstacle]\nshape = disk\nradius = 0\ncenter_x = 0.5\n"
     "center_y = 0.5\n", "[obstacle] radius"),
    (ZERO_RUN.replace("nx = 8", "nx = 1"), "[grid]"),
    # the disk moves from the centre to the right wall by T = 0.5
    (ZERO_RUN.replace("dt = 0.01", "dt = 0.1").replace("T = 0.1", "T = 0.5")
     + "[obstacle]\nshape = disk\nradius = 0.15\ncenter_x = 0.5\ncenter_y = 0.5\n"
     "vel_x = 1\n", "[obstacle]"),
    (ZERO_RUN + "[forcing]\ntype = constant\nfx = nan\n", "[forcing] fx"),
], ids=["chi_mode", "prediction_rtol", "radius", "nx", "wall", "forcing-nan"])
def test_print_config_rejects_invalid_domain_values(tmp_path, capsys, text, named):
    cfg = write(tmp_path, "bad.ini", text)
    assert main(["print-config", "--config", cfg]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("chi_mode", "fractoin"), ("radius", "-1")])
def test_obstacle_keys_without_a_disk_are_rejected(tmp_path, capsys, key, value):
    # with shape = none (the default) no Obstacle is built to check them
    cfg = write(tmp_path, "bad.ini", ZERO_RUN + f"[obstacle]\n{key} = {value}\n")
    assert main(["print-config", "--config", cfg]) == 1
    assert f"[obstacle] {key}" in capsys.readouterr().err


def test_sweep_member_longer_than_run_is_rejected_before_any_output(tmp_path, capsys):
    # dt = 0.5 exceeds T = 0.1: the second member could not take one step
    cfg = write(tmp_path, "sweep.ini",
                ZERO_RUN + "[sweep]\nparameter = dt\nvalues = 0.01 0.5\n")
    assert main(["print-config", "--config", cfg]) == 1
    assert "[sweep] values" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section, name, spoil", [
    ("initial", "u", lambda a: a[:-1]),
    ("initial", "p", lambda a: a + np.inf),
    ("forcing", "v", lambda a: a * np.nan),
])
def test_bad_field_file_exits_one_naming_file_and_array(tmp_path, capsys,
                                                        section, name, spoil):
    from vppflow.grid import Grid

    g = Grid(8, 8)
    arrays = {"u": np.zeros(g.shape_u), "v": np.zeros(g.shape_v), "p": np.zeros(g.shape_p)}
    arrays[name] = spoil(arrays[name])
    npz = tmp_path / "fields.npz"
    np.savez(npz, **arrays)
    cfg = write(tmp_path, "run.ini", ZERO_RUN + f"[{section}]\ntype = file\npath = {npz}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(npz) in err
    assert f"array {name!r}" in err


def _cut_npz(path):
    np.savez(path, u=np.zeros(3))
    path.write_bytes(path.read_bytes()[:40])


@pytest.mark.parametrize("name, make", [
    ("fields.npy", lambda path: np.save(path, np.zeros(3))),
    ("fields.npz", _cut_npz),
    ("fields.npz", lambda path: path.write_text("u = 0\n")),
    ("fields.npz", lambda path: np.savez(path, u=np.array([None], dtype=object))),
], ids=["npy", "cut-zip", "text", "object-member"])
def test_unreadable_field_file_exits_one_naming_file(tmp_path, capsys, name, make):
    path = tmp_path / name
    make(path)
    cfg = write(tmp_path, "run.ini", ZERO_RUN + f"[initial]\ntype = file\npath = {path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"validation error: {path}: " in err
    assert "Traceback" not in err


def test_missing_field_file_exits_three(tmp_path, capsys):
    path = tmp_path / "absent.npz"
    cfg = write(tmp_path, "run.ini", ZERO_RUN + f"[forcing]\ntype = file\npath = {path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert str(path) in capsys.readouterr().err
