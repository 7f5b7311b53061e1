"""Finite spaces, raster regions, hulls, boundaries, sampling, PGM I/O."""

import numpy as np
import pytest
from scipy import ndimage

import shilov as sh
from shilov.spaces import FOUR_CONNECTED, boundary_mask


def components(mask: np.ndarray) -> int:
    _, n = ndimage.label(mask, structure=FOUR_CONNECTED)
    return n


def curve_components(mask: np.ndarray) -> int:
    # thin diagonal curves are connected in the 8-neighbor sense
    _, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    return n


# --- metrics -----------------------------------------------------------------


def test_metric_two_points():
    X = sh.FiniteSpace(("a", "b"), metric=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sh.validate_metric(X).passed


def test_metric_positivity_violation():
    d = np.zeros((2, 2))
    X = sh.FiniteSpace(("a", "b"), metric=d)
    report = sh.validate_metric(X)
    assert not report.check("positivity").passed


def test_metric_triangle_violation():
    d = np.array([[0, 1, 3.5], [1, 0, 1], [3.5, 1, 0]], dtype=float)
    X = sh.FiniteSpace(("a", "b", "c"), metric=d)
    report = sh.validate_metric(X)
    check = report.check("triangle")
    assert not check.passed
    assert "a" in check.detail and "c" in check.detail


def test_euclidean_default():
    X = sh.FiniteSpace(("a", "b"), np.array([0.0 + 0j, 3.0 + 4j]))
    assert X.distance_matrix()[0, 1] == pytest.approx(5.0)


# --- rasterization -----------------------------------------------------------


def test_disk_simply_connected():
    R = sh.raster_from_shape(sh.Disk(0, 1), 16)
    assert components(R.grid) == 1
    assert components(~R.grid) == 1  # no holes


def test_annulus_has_hole():
    R = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    assert components(R.grid) == 1
    assert components(~R.grid) == 2


def test_two_disjoint_disks():
    R = sh.raster_from_shape([sh.Disk(-2, 0.7), sh.Disk(2, 0.7)], 16)
    assert components(R.grid) == 2


def test_margin_enforced():
    grid = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValueError):
        sh.RasterRegion(grid, 0j, 0.1)


def test_bad_annulus_rejected():
    with pytest.raises(ValueError):
        sh.Annulus(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        sh.raster_from_shape(sh.Disk(0, 1), 4)


# --- hulls -------------------------------------------------------------------


def test_hull_fills_annulus_to_disk():
    for resolution in (16, 32):
        ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), resolution)
        disk = sh.raster_from_shape(sh.Disk(0, 1), resolution)
        filled = sh.polynomial_hull_raster(ann)
        assert np.array_equal(filled.grid, disk.grid)


def test_hull_leaves_disk_alone():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    assert np.array_equal(sh.polynomial_hull_raster(disk).grid, disk.grid)


def _random_region(rng: np.random.Generator, size: int = 24) -> sh.RasterRegion:
    grid = np.zeros((size, size), dtype=bool)
    blob = rng.random((size - 2, size - 2)) < 0.45
    grid[1:-1, 1:-1] = blob
    if not grid.any():
        grid[size // 2, size // 2] = True
    return sh.RasterRegion(grid, 0j, 1.0 / size)


def test_hull_is_closure_operator():
    rng = np.random.default_rng(8)
    for _ in range(50):
        R = _random_region(rng)
        H = sh.polynomial_hull_raster(R)
        assert (H.grid | R.grid == H.grid).all()  # extensive
        assert np.array_equal(sh.polynomial_hull_raster(H).grid, H.grid)  # idempotent
        grown = R.grid.copy()
        extra = np.zeros_like(grown)
        extra[1:-1, 1:-1] = rng.random(extra[1:-1, 1:-1].shape) < 0.1
        grown |= extra
        R2 = sh.RasterRegion(grown, R.origin, R.pixel_size)
        H2 = sh.polynomial_hull_raster(R2)
        assert (H.grid & ~H2.grid).sum() == 0  # monotone
        assert components(~H.grid) == 1  # complement connected


# --- boundaries --------------------------------------------------------------


def test_disk_boundary_near_circle():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    boundary = sh.topological_boundary_raster(disk)
    assert np.all(np.abs(np.abs(boundary) - 1.0) <= disk.pixel_size * 1.5)


def test_annulus_boundary_two_rings():
    ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    assert curve_components(boundary_mask(ann)) == 2
    filled = sh.polynomial_hull_raster(ann)
    assert curve_components(boundary_mask(filled)) == 1


def test_full_rectangle_boundary_is_frame():
    grid = np.zeros((8, 10), dtype=bool)
    grid[1:-1, 1:-1] = True
    R = sh.RasterRegion(grid, 0j, 0.25)
    mask = boundary_mask(R)
    inner = np.zeros_like(grid)
    inner[2:-2, 2:-2] = True
    assert np.array_equal(mask, grid & ~inner)


# --- sampling ----------------------------------------------------------------


def test_circle_sample_roots_of_unity():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    X = sh.sample_raster(disk, sh.CircleSample(0, 1, 4))
    assert np.allclose(X.coords, [1, 1j, -1, -1j], atol=1e-12)


def test_circle_sample_outside_fails():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    with pytest.raises(sh.EmptySampleError):
        sh.sample_raster(disk, sh.CircleSample(0, 2.0, 4))


def test_near_points_match_near_region():
    rng = np.random.default_rng(53)
    R = sh.raster_from_shape(sh.Annulus(0, 0.5, 1.0), 16)
    size = R.pixel_size
    centers = R.set_pixel_centers()
    # points on and off the grid, and points near the 2-pixel radius of a
    # set pixel's center
    spread = rng.uniform(-1.6, 1.6, 400) + 1j * rng.uniform(-1.6, 1.6, 400)
    angles = np.exp(2j * np.pi * rng.random(400))
    radii = 2.0 * size * (1.0 + rng.uniform(-1e-9, 1e-9, 400))
    rim = rng.choice(centers, 400) + radii * angles
    exact = centers[:20] + 2.0 * size  # at the radius exactly
    far = np.array([5.0 + 5.0j, -40.0, 1e3j])
    points = np.concatenate([spread, rim, exact, far, centers[:20]])
    near = R.near_points(points)
    assert near.tolist() == [R.near_region(z) for z in points]
    assert near.any() and not near.all()


def test_interior_grid_excludes_hole_and_rim():
    ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    X = sh.sample_raster(ann, sh.InteriorGrid(0.15))
    radii = np.abs(X.coords)
    assert radii.min() > 0.5
    assert radii.max() < 1.0


def test_boundary_uniform_on_disk():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    X = sh.sample_raster(disk, sh.BoundaryUniform(8))
    assert X.size == 8
    assert np.all(np.abs(np.abs(X.coords) - 1.0) <= disk.pixel_size * 1.5)
    # approximately equally spaced: nearest-neighbor gaps within a factor 3
    gaps = []
    for z in X.coords:
        others = X.coords[X.coords != z]
        gaps.append(np.min(np.abs(others - z)))
    assert max(gaps) <= 3.0 * min(gaps)


def test_sample_space_has_valid_metric():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    X = sh.sample_raster(disk, sh.BoundaryUniform(6))
    d = X.distance_matrix()
    assert np.allclose(d, d.T)
    assert (d[~np.eye(X.size, dtype=bool)] > 0).all()


def test_combine_spaces():
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    a = sh.sample_raster(disk, sh.CircleSample(0, 1, 4))
    b = sh.sample_raster(disk, sh.InteriorGrid(0.5))
    both = sh.combine_spaces(a, b)
    assert both.size == a.size + b.size
    assert len(set(both.points)) == both.size


# --- persistence -------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    path = tmp_path / "region.pgm"
    sh.write_pgm(path, ann)
    back = sh.read_pgm(path)
    assert np.array_equal(back.grid, ann.grid)
    assert back.origin == ann.origin
    assert back.pixel_size == ann.pixel_size


def test_finite_space_json_roundtrip():
    X = sh.FiniteSpace(
        ("a", "b"), np.array([1 + 2j, 3 - 4j]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    back = sh.FiniteSpace.from_dict(X.to_dict())
    assert back.points == X.points
    assert np.allclose(back.coords, X.coords)
    assert np.allclose(back.metric, X.metric)
