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
            "7805b353364e1b186b3640fd3b339e6fc4b83e1e4636b1ec9f748630bc0b1b1c",
        "dt1_diagnostics.csv":
            "5d488369a7991c5e7103908874956c0566e71d7b1ac57d8060ded0c20ea57398",
        "dt2_diagnostics.csv":
            "01f6e3b55e3e35d8e024c9738b444a69c4de47988980e60e1d20769b468a109b",
    },
    "rotor-binary": {
        "diagnostics.csv":
            "0c7124b14559eac87fdf7f7816d91bcb484ed91afeea69e4f0aa63c3d8f59d1d",
    },
    "rotor-fraction": {
        "diagnostics.csv":
            "440eb88ad6dce9613ac184d079b5ea0f19d30d996f91e353faa6f984027a941e",
    },
    "constant-forcing": {
        "diagnostics.csv":
            "156e8d783416bcfe7ccf240c0a67e0147f79c8b27d31121a6a89ebc9831edcd3",
    },
    "vtk-mover": {
        "diagnostics.csv":
            "9853007c7cd47203b8262aee26528bd90da800cb96aa2e98c2c65bc1e3aecb9b",
        "fields_000000.vtk":
            "b679145e032c6e7a0b195d02821b7d04d26177bd3cc1fd60eda7fbdc0c563f16",
        "fields_000002.vtk":
            "e1fdd3ef40cecc0144867471bb690681010229cb29a898d3539c78f31206141e",
        "fields_000004.vtk":
            "b0ff01e3b5f3bc766dfd7eb9d6e7f636e50b0a6481e0afd2241a1c1b851083c7",
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
