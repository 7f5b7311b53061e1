"""Finite spaces, raster regions, hulls, boundaries, sampling, PGM I/O."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import shilov as sh
from shilov.spaces import _holes, _interior, boundary_mask

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


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


def _broadcast_triangle(X):
    """Oracle for validate_metric's triangle check: every triple at once, as
    two n^3 arrays (passed, residual, detail)."""
    d = X.metric
    slack = d[:, None, :] - (d[:, :, None] + d[None, :, :])
    worst = float(slack.max())
    detail = ""
    if worst > sh.spaces.METRIC_TOL:
        a, b, c = np.unravel_index(np.argmax(slack), slack.shape)
        detail = f"({X.points[a]},{X.points[b]},{X.points[c]})"
    return bool(worst <= sh.spaces.METRIC_TOL), max(worst, 0.0), detail


def test_triangle_scan_matches_the_broadcast():
    # Euclidean metrics with planted violations: one long edge, several,
    # two of equal slack (the first in (a, b, c) order is reported), a NaN
    rng = np.random.default_rng(61)
    verdicts = []
    for case in range(60):
        n = int(rng.integers(1, 30))
        z = rng.random(n) + 1j * rng.random(n)
        d = np.abs(z[:, None] - z[None, :])
        for _ in range(case % 4):
            a, c = rng.integers(0, n, 2)
            d[a, c] = d[c, a] = 3 * d[a, c] + 1
        if case % 9 == 4 and n > 2:
            d[[0, 1], [2, 2]] = d[[2, 2], [0, 1]] = 5.0  # two triples of equal slack
        if case % 13 == 6:
            d[0, -1] = np.nan
        X = sh.FiniteSpace(tuple(f"p{k}" for k in range(n)), metric=d)
        check = sh.validate_metric(X).check("triangle")
        expected = _broadcast_triangle(X)
        np.testing.assert_equal((check.passed, check.residual, check.detail), expected)
        verdicts.append(check.passed)
    assert True in verdicts and False in verdicts


def test_triangle_check_memory_is_quadratic():
    # the n^3 broadcast peaked at 122 MB for n = 200
    n = 200
    z = np.random.default_rng(62).random(n) * np.exp(1j * np.linspace(0, 6, n))
    X = sh.FiniteSpace(tuple(f"p{k}" for k in range(n)), metric=np.abs(z[:, None] - z[None, :]))
    tracemalloc.start()
    try:
        assert sh.validate_metric(X).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n * 8


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


def _ndimage_holes(grid: np.ndarray) -> np.ndarray:
    """Oracle for _holes: label the complement pixel by pixel and keep the
    labels that never reach the grid's edge."""
    complement = ~grid
    labels, _ = ndimage.label(complement, structure=FOUR_CONNECTED)
    edge = np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
    return complement & ~np.isin(labels, edge[edge != 0])


def _demo_rasters():
    # the demos' disk and annulus at their 16 px/unit, and two larger rasters
    return [sh.raster_from_shape(sh.Disk(0, 1), 16),
            sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16),
            sh.raster_from_shape([sh.Annulus(0, 0.5, 1), sh.Disk(0.1j, 0.2)], 40),
            sh.raster_from_shape(sh.Annulus(0.3, 0.25, 2), 64)]


def test_raster_helpers_match_ndimage_on_random_grids():
    rng = np.random.default_rng(20)
    for _ in range(400):
        rows, cols = rng.integers(1, 48, size=2)
        grid = rng.random((rows, cols)) < rng.uniform(0.05, 0.95)  # no margin: any edge run
        assert np.array_equal(_holes(grid), _ndimage_holes(grid))
        assert np.array_equal(_interior(grid), ndimage.binary_erosion(grid, FOUR_CONNECTED))
    for grid in (np.ones((5, 7), bool), np.zeros((5, 7), bool), np.ones((1, 1), bool)):
        assert np.array_equal(_holes(grid), _ndimage_holes(grid))
        assert np.array_equal(_interior(grid), ndimage.binary_erosion(grid, FOUR_CONNECTED))


def test_raster_helpers_match_ndimage_on_the_demo_rasters():
    for R in _demo_rasters():
        filled = sh.polynomial_hull_raster(R)
        assert np.array_equal(filled.grid, R.grid | _ndimage_holes(R.grid))
        assert np.array_equal(_interior(R.grid), ndimage.binary_erosion(R.grid, FOUR_CONNECTED))
        assert np.array_equal(boundary_mask(R), R.grid & ~ndimage.binary_erosion(R.grid, FOUR_CONNECTED))


def _serpentine(turns: int, width: int = 40) -> np.ndarray:
    """A walled block holding one corridor that winds back and forth: the
    corridor's runs join one after another, a long path of a hole."""
    grid = np.zeros((2 * turns + 5, width + 4), dtype=bool)
    grid[1:-1, 1:-1] = True
    for t in range(turns):
        r = 2 * t + 2
        grid[r, 2:-2] = False
        if t + 1 < turns:  # the step down to the next lane, at alternating ends
            grid[r + 1, 2 if t % 2 else width + 1] = False
    return grid


@pytest.mark.parametrize("turns", [1, 2, 50, 400])
def test_holes_follow_a_long_corridor(turns):
    grid = _serpentine(turns)
    holes = _holes(grid)
    assert np.array_equal(holes, _ndimage_holes(grid))
    assert holes.sum() == (~grid[1:-1, 1:-1]).sum()  # the whole corridor
    opened = grid.copy()
    opened[2, 1] = False  # the first lane reaches the margin: nothing is a hole
    assert not _holes(opened).any() and not _ndimage_holes(opened).any()


def test_nested_holes_fill_through_islands():
    # a ring holding an island holding a hole: every bounded part fills
    grid = np.zeros((11, 11), dtype=bool)
    grid[1:10, 1:10] = True
    grid[2:9, 2:9] = False
    grid[4:7, 4:7] = True
    grid[5, 5] = False
    filled = sh.polynomial_hull_raster(sh.RasterRegion(grid, 0j, 0.1)).grid
    assert np.array_equal(filled, np.pad(np.ones((9, 9), bool), 1))


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
