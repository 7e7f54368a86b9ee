import math

import numpy as np
import pytest

from vppflow import operators
from vppflow.grid import Grid
from vppflow.obstacle import Obstacle, ObstacleFrame


def test_half_cell_disk_marks_exactly_one_cell():
    g = Grid(9, 9)  # odd count puts a cell center at the domain center
    obs = Obstacle(radius=0.5 * g.hx, center=(0.5, 0.5))
    chi = obs.sample_chi(0.0, g)
    assert chi.sum() == 1.0
    assert chi[4, 4] == 1.0


@pytest.mark.parametrize("mode", ["binary", "fraction"])
def test_disk_area_within_perimeter_band(mode):
    g = Grid(64, 64)
    r = 0.2
    obs = Obstacle(radius=r, center=(0.5, 0.5), chi_mode=mode)
    chi = obs.sample_chi(0.0, g)
    area = chi.sum() * g.cell_area
    tol = 4.0 * math.pi * r * g.hx
    assert abs(area - math.pi * r**2) <= tol
    if mode == "fraction":
        # subsampled fractions resolve the boundary much tighter
        assert abs(area - math.pi * r**2) <= 0.1 * tol


def test_chi_value_ranges():
    g = Grid(32, 32)
    binary = Obstacle(radius=0.21, center=(0.45, 0.55))
    vals = np.unique(binary.sample_chi(0.0, g))
    assert set(vals).issubset({0.0, 1.0})
    frac = Obstacle(radius=0.21, center=(0.45, 0.55), chi_mode="fraction")
    data = frac.sample_chi(0.0, g)
    assert data.min() >= 0.0 and data.max() <= 1.0
    assert np.any((data > 0.0) & (data < 1.0))


def test_solid_velocity_pure_translation():
    g = Grid(8, 8)
    obs = Obstacle(radius=0.1, center=(0.3, 0.3), velocity=(1.0, 0.0))
    vs = obs.sample_solid_velocity(0.25, g)
    assert np.allclose(vs.u, 1.0)
    assert np.abs(vs.v).max() == 0.0


def test_rigid_rotation_is_discretely_divergence_free():
    g = Grid(16, 16)
    obs = Obstacle(radius=0.2, center=(0.5, 0.5), omega=1.0)
    vs = obs.sample_solid_velocity(0.0, g)
    assert np.abs(operators.divergence(vs).p).max() <= 1e-12


def test_combined_motion_matches_analytic_formula(rng):
    g = Grid(12, 10)
    obs = Obstacle(radius=0.1, center=(0.4, 0.5),
                   velocity=(0.2, -0.1), omega=0.7)
    t = 0.5
    vs = obs.sample_solid_velocity(t, g)
    cx, cy = 0.4 + 0.2 * t, 0.5 - 0.1 * t
    xu, yu = g.u_coords()
    xv, yv = g.v_coords()
    for _ in range(10):
        i, j = rng.integers(0, g.nx + 1), rng.integers(0, g.ny)
        assert vs.u[i, j] == pytest.approx(0.2 - 0.7 * (yu[i, j] - cy), abs=1e-14)
        i, j = rng.integers(0, g.nx), rng.integers(0, g.ny + 1)
        assert vs.v[i, j] == pytest.approx(-0.1 + 0.7 * (xv[i, j] - cx), abs=1e-14)
    # the faces and the band share the one rigid-body formula, bit for bit
    assert np.array_equal(obs.rigid_velocity(t, xu, yu)[0], vs.u)
    assert np.array_equal(obs.rigid_velocity(t, xv, yv)[1], vs.v)


def test_boundary_band_count_and_definition():
    g = Grid(64, 64)
    r = 10 * g.hx
    obs = Obstacle(radius=r, center=(0.5, 0.5))
    band = obs.boundary_band(0.0, g)
    circ_cells = 2 * math.pi * r / g.hx
    assert 0.5 * circ_cells <= band.shape[0] <= 4.0 * circ_cells
    x, y = g.cell_coords()
    diag = math.hypot(g.hx, g.hy)
    for i, j in band:
        dist = math.hypot(x[i, j] - 0.5, y[i, j] - 0.5)
        assert abs(dist - r) <= diag + 1e-14


def test_trajectory_continuity():
    obs = Obstacle(radius=0.05, center=(0.3, 0.4), velocity=(0.6, -0.8))
    speed = math.hypot(*obs.velocity)
    for t in np.linspace(0.0, 1.5, 7):
        for delta in (1e-3, 0.05, 0.3):
            c0 = np.array(obs.center_at(t))
            c1 = np.array(obs.center_at(t + delta))
            assert np.linalg.norm(c1 - c0) <= speed * delta + 1e-14


def test_clearance_accounts_for_translation():
    g = Grid(8, 8)
    obs = Obstacle(radius=0.2, center=(0.5, 0.5), velocity=(0.4, 0.0))
    # at t=1 the center is at x=0.9, so the disk pokes through the wall
    assert obs.clearance(g, 1.0) < 0
    assert obs.clearance(g, 0.5) > 0


@pytest.mark.parametrize("mode", ["binary", "fraction"])
def test_open_mesh_sampling_is_bitwise_the_full_mesh_sampling(mode):
    # the samplers broadcast the 1-D coordinate vectors; per cell or face
    # that is the arithmetic of the full meshgrids, so the bits are theirs
    g = Grid(37, 23, 1.3, 0.8)
    obs = Obstacle(radius=0.15, center=(0.3, 0.45), velocity=(0.6, -0.1), omega=1.3,
                   chi_mode=mode)
    t = 0.37
    x, y = g.cell_coords()
    full = (obs._indicator(t, x, y) if mode == "binary"
            else obs._fraction(t, x, y, g.hx, g.hy))
    assert obs.sample_chi(t, g).tobytes() == full.tobytes()
    if mode == "binary":
        chi_u, chi_v = obs.sample_chi_faces(t, g)
        assert chi_u.tobytes() == obs._indicator(t, *g.u_coords()).tobytes()
        assert chi_v.tobytes() == obs._indicator(t, *g.v_coords()).tobytes()
    frame = ObstacleFrame.sample(obs, t, g)
    ii, jj = frame.band[:, 0], frame.band[:, 1]
    for got, want in zip(frame.band_vs, obs.rigid_velocity(t, x[ii, jj], y[ii, jj])):
        assert got.tobytes() == want.tobytes()
