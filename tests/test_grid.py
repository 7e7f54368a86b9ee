import numpy as np
import pytest

import vppflow
from vppflow.grid import Grid, PressureField, VelocityField


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 8)
    with pytest.raises(ValueError):
        Grid(8, 1)
    with pytest.raises(ValueError):
        Grid(8, 8, lx=-1.0)
    # sizes must be integers, numpy ones included: a float size used to be
    # accepted and fail at the first allocation with a TypeError
    for nx, ny, name in ((16.5, 16, "nx"), (16, 8.0, "ny"), ("16", 16, "nx")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Grid(nx, ny)
    assert Grid(np.int64(16), np.int32(8)).shape_u == (17, 8)


def test_grid_spacings_and_shapes():
    g = Grid(5, 3, 2.0, 0.6)
    assert g.hx == pytest.approx(0.4)
    assert g.hy == pytest.approx(0.2)
    assert g.shape_u == (6, 3)
    assert g.shape_v == (5, 4)
    assert g.shape_p == (5, 3)


def test_face_weights_sum_to_area():
    g = Grid(7, 4, 1.3, 0.9)
    assert g.u_face_weights().sum() == pytest.approx(g.lx * g.ly)
    assert g.v_face_weights().sum() == pytest.approx(g.lx * g.ly)


def test_field_shape_checks():
    g = Grid(4, 4)
    with pytest.raises(ValueError):
        VelocityField(g, np.zeros((4, 4)), np.zeros(g.shape_v))
    with pytest.raises(ValueError):
        PressureField(g, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        PressureField(g, np.zeros((4, 5)))


def test_pressure_mean_zero_projection(rng):
    g = Grid(9, 6)
    p = PressureField(g, rng.standard_normal(g.shape_p) + 3.7)
    q = p.project_mean_zero()
    # mean must vanish relative to the field's L2 size
    l2 = np.sqrt(g.cell_area * np.sum(q.p**2))
    assert abs(np.sum(q.p) * g.cell_area) <= 1e-12 * max(l2, 1e-30)


def test_velocity_arithmetic(rng):
    g = Grid(4, 5)
    a = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
    b = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
    c = a + 2.0 * b - b
    assert np.allclose(c.u, a.u + b.u)
    assert np.allclose(c.v, a.v + b.v)


def test_package_exports_resolve():
    # a stale name in __all__ would otherwise fail only at a user's import
    assert [name for name in vppflow.__all__ if not hasattr(vppflow, name)] == []


def test_open_meshes_broadcast_to_the_full_meshes():
    g = Grid(5, 3, 1.3, 0.7)
    for coords, shape in ((g.cell_coords, g.shape_p), (g.u_coords, g.shape_u),
                          (g.v_coords, g.shape_v)):
        x, y = coords(sparse=True)
        assert x.shape == (shape[0], 1) and y.shape == (1, shape[1])
        for open_mesh, full in zip((x, y), coords()):
            assert np.broadcast_to(open_mesh, shape).tobytes() == full.tobytes()
