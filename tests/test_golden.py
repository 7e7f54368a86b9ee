"""Golden-bytes gate: SHA-256 hashes of the per-step CSVs of six small runs
and of the VTK field dumps of one of them.

A pure refactor keeps every hash. A change that moves the output on
purpose replaces the hashes in the same commit and names, in CHANGES.md,
which columns move and by how much. The assertion message lists the
hashes the code under test produced.
"""

import hashlib
import os

import pytest

from vppflow.cli import main

ROTOR = """
[grid]
nx = 32
ny = 32
[scheme]
dt = 0.015625
T = 0.125
[obstacle]
shape = disk
radius = 0.15
center_x = 0.5
center_y = 0.5
omega = 1.0
chi_mode = {mode}
"""

CASES = {
    "zero": ("run", """
[grid]
nx = 8
ny = 8
[scheme]
dt = 0.01
T = 0.1
"""),
    "taylor-green-dt-sweep": ("sweep", """
[grid]
nx = 16
ny = 16
[scheme]
dt = 0.025
T = 0.1
mu = 0.05
[initial]
type = taylor-green
[forcing]
type = taylor-green
[sweep]
parameter = dt
values = 0.025 0.0125 0.00625
"""),
    "rotor-binary": ("run", ROTOR.format(mode="binary")),
    "rotor-fraction": ("run", ROTOR.format(mode="fraction")),
    "constant-forcing": ("run", """
[grid]
nx = 16
ny = 12
lx = 1.0
ly = 0.75
[scheme]
dt = 0.02
T = 0.2
[forcing]
type = constant
fx = 1.0
fy = -0.5
"""),
    # non-square, so an nx/ny swap in the dump's row loop changes the bytes
    "vtk-mover": ("run", """
[grid]
nx = 16
ny = 12
lx = 1.0
ly = 0.75
[scheme]
dt = 0.02
T = 0.1
[obstacle]
shape = disk
radius = 0.15
center_x = 0.45
center_y = 0.375
vel_x = 0.5
vel_y = 0.25
omega = 2.0
chi_mode = fraction
[output]
dump_every = 2
"""),
}

GOLDEN = {
    "zero": {
        "diagnostics.csv":
            "82e0173ac92b5eb71d0c101de32095bb8243cd2f726ed5beb97e2687e3f98bd0",
    },
    "taylor-green-dt-sweep": {
        "dt0_diagnostics.csv":
            "fa7ade9cd1e8adbe0f95d8cc264873b7d3b665f287197c08ff127b4ab8a50bc6",
        "dt1_diagnostics.csv":
            "f693b8d3ad9f00cc60e59bb912801f6cfb3a811b368f8b5546c12c4d25eaa2ca",
        "dt2_diagnostics.csv":
            "bc5997085d9ce512c3150819c15094ba3cf5ff074b6f82c2d83d5e51667c2160",
    },
    "rotor-binary": {
        "diagnostics.csv":
            "4590f111aa76626cf1e95f7b9b86504871821126efc26f1a4a849a0775281b22",
    },
    "rotor-fraction": {
        "diagnostics.csv":
            "0bb59020cf0cc7a60e5e9b3dcdb6a29c7edf2057506259046f22a4dec12ccc0e",
    },
    "constant-forcing": {
        "diagnostics.csv":
            "5cf06cf1930b511e6b0cebe71b76b48f048bdc87f9d074a98509655c6f605c1d",
    },
    "vtk-mover": {
        "diagnostics.csv":
            "b30944812b781f599a588a9615c52ff00719318a4ec9a8c9bd58a26b62a8d8fd",
        "fields_000000.vtk":
            "b679145e032c6e7a0b195d02821b7d04d26177bd3cc1fd60eda7fbdc0c563f16",
        "fields_000002.vtk":
            "e1fdd3ef40cecc0144867471bb690681010229cb29a898d3539c78f31206141e",
        "fields_000004.vtk":
            "1bdc17ef37d1c8cda5a555d9eaad52a2ad7d83ef90bd4c4c49127e7baa25f59a",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_per_step_csv_bytes_match_golden_hashes(case, tmp_path):
    verb, text = CASES[case]
    cfg = tmp_path / "case.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in sorted(os.listdir(out))
              if name.endswith(("diagnostics.csv", ".vtk"))}
    assert hashes == GOLDEN[case]
