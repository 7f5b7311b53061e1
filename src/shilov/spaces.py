"""Finite point sets and rasterized plane regions.

Finite spaces carry labels, optional planar coordinates and an optional
metric (Euclidean by default when coordinates exist).  Raster regions are
boolean bitmaps with a guaranteed one-pixel empty margin, so the unbounded
complement component always touches the border; holes are the complement
components that do not.  All bitmap operations use 4-connectivity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import components
from .reports import (
    ValidationReport,
    complex_to_pair,
    pair_to_complex,
)

METRIC_TOL = 1e-12


class EmptySampleError(ValueError):
    """A sampling strategy produced no admissible points."""


@dataclass(frozen=True)
class FiniteSpace:
    """A finite compact space: labelled points, optional coords and metric."""

    points: tuple[str, ...]
    coords: np.ndarray | None = None
    metric: np.ndarray | None = None

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if len(points) == 0:
            raise ValueError("a finite space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("point labels must be distinct")
        object.__setattr__(self, "points", points)
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=complex).reshape(len(points))
            coords.setflags(write=False)
            object.__setattr__(self, "coords", coords)
        if self.metric is not None:
            metric = np.asarray(self.metric, dtype=float).reshape(len(points), len(points))
            metric.setflags(write=False)
            object.__setattr__(self, "metric", metric)

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise KeyError(f"unknown point {label!r}") from None

    def distance_matrix(self) -> np.ndarray:
        """The stored metric, or Euclidean distances derived from coords."""
        if self.metric is not None:
            return self.metric
        if self.coords is None:
            raise ValueError("space has neither metric nor coords")
        diff = self.coords[:, None] - self.coords[None, :]
        return np.abs(diff)

    def to_dict(self) -> dict:
        data: dict = {"points": list(self.points)}
        if self.coords is not None:
            data["coords"] = [complex_to_pair(z) for z in self.coords]
        if self.metric is not None:
            data["metric"] = [[float(x) for x in row] for row in self.metric]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteSpace":
        coords = None
        if data.get("coords") is not None:
            coords = np.array([pair_to_complex(p) for p in data["coords"]])
        metric = None
        if data.get("metric") is not None:
            metric = np.asarray(data["metric"], dtype=float)
        return cls(tuple(data["points"]), coords, metric)


def validate_metric(X: FiniteSpace) -> ValidationReport:
    """Symmetry, vanishing diagonal, positivity off-diagonal, triangle inequality."""
    report = ValidationReport(subject=f"metric on {X.size} points")
    if X.metric is None:
        report.add("present", False, detail="no metric stored")
        return report
    d = X.metric
    n = X.size

    sym = np.abs(d - d.T).max()
    report.add("symmetry", bool(sym <= METRIC_TOL), float(sym))

    diag = np.abs(np.diagonal(d)).max()
    report.add("zero_diagonal", bool(diag <= METRIC_TOL), float(diag))

    off = d + np.eye(n)  # mask the diagonal
    min_off = float(off.min())
    bad = np.unravel_index(np.argmin(off), off.shape)
    report.add(
        "positivity",
        bool(min_off > 0.0),
        0.0 if min_off > 0 else abs(min_off),
        "" if min_off > 0 else f"d({X.points[bad[0]]},{X.points[bad[1]]}) <= 0",
    )

    # d(a,c) <= d(a,b) + d(b,c) for every triple, one first index a at a
    # time in O(n^2) memory; the first worst triple in (a, b, c) order
    worst_of, where = np.empty(n), np.empty(n, dtype=int)
    for a in range(n):
        slack = d[a] - (d[a][:, None] + d)  # slack[b,c] = d(a,c) - (d(a,b)+d(b,c))
        where[a] = np.argmax(slack)  # positive entries violate
        worst_of[a] = slack.flat[where[a]]
    a = int(np.argmax(worst_of))
    worst = float(worst_of[a])
    detail = ""
    if worst > METRIC_TOL:
        b, c = divmod(int(where[a]), n)
        detail = f"({X.points[a]},{X.points[b]},{X.points[c]})"
    report.add("triangle", bool(worst <= METRIC_TOL), max(worst, 0.0), detail)
    return report


def combine_spaces(*spaces: FiniteSpace) -> FiniteSpace:
    """Concatenate coordinate-bearing spaces into one; labels get an
    "s<k>:" prefix naming their source, so they stay unique."""
    labels: list[str] = []
    coords: list[complex] = []
    for k, sp in enumerate(spaces):
        if sp.coords is None:
            raise ValueError("combine_spaces needs coordinate-bearing spaces")
        for lab, z in zip(sp.points, sp.coords):
            labels.append(f"s{k}:{lab}")
            coords.append(z)
    return FiniteSpace(tuple(labels), np.array(coords))


# ---------------------------------------------------------------------------
# Plane shapes and rasters


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def contains(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z - self.center) <= self.radius

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return (c.real - r, c.imag - r, c.real + r, c.imag + r)


@dataclass(frozen=True)
class Annulus:
    center: complex
    inner: float
    outer: float

    def __post_init__(self):
        if not (self.outer > self.inner > 0):
            raise ValueError("annulus needs outer > inner > 0")

    def contains(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(z - self.center)
        return (r >= self.inner) & (r <= self.outer)

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.outer
        return (c.real - r, c.imag - r, c.real + r, c.imag + r)


@dataclass(frozen=True)
class RasterRegion:
    """A bitmap region: grid[row, col] set means the pixel belongs to the set.

    Pixel (row, col) has center origin + (col + 0.5 + (row + 0.5) i) * pixel_size.
    The border ring of the grid is always empty (one-pixel margin).
    """

    grid: np.ndarray
    origin: complex
    pixel_size: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=bool)
        if grid.ndim != 2 or grid.size == 0:
            raise ValueError("grid must be a nonempty 2-d boolean array")
        if not grid.any():
            raise ValueError("raster region must contain at least one set pixel")
        border = np.concatenate([grid[0], grid[-1], grid[:, 0], grid[:, -1]])
        if border.any():
            raise ValueError("raster region must keep a one-pixel empty margin")
        if not self.pixel_size > 0:
            raise ValueError("pixel_size must be positive")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "origin", complex(self.origin))
        object.__setattr__(self, "pixel_size", float(self.pixel_size))

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def pixel_centers(self) -> np.ndarray:
        rows, cols = self.grid.shape
        return self._centers(*np.mgrid[:rows, :cols])

    def _centers(self, rr: np.ndarray, cc: np.ndarray) -> np.ndarray:
        """Centers of the pixels (rr, cc), integer arrays that broadcast."""
        return self.origin + (cc + 0.5 + 1j * (rr + 0.5)) * self.pixel_size

    def set_pixel_centers(self) -> np.ndarray:
        return self.pixel_centers()[self.grid]

    def pixel_of(self, z: complex) -> tuple[int, int]:
        w = (complex(z) - self.origin) / self.pixel_size
        return int(math.floor(w.imag)), int(math.floor(w.real))

    def near_region(self, z: complex) -> bool:
        """Loose membership: within two pixel sizes of a set pixel's center.

        Exact geometric samples (e.g. circle points on the region's metric
        boundary) can straddle pixel edges; raster membership for them is
        decided up to raster resolution.
        """
        dist = np.abs(self.set_pixel_centers() - complex(z))
        return bool(dist.min() <= 2.0 * self.pixel_size)

    def near_points(self, points) -> np.ndarray:
        """near_region of each point, in one pass over all of them.

        Only the set pixels within two rows and two columns of a point's own
        pixel are tested: a pixel center farther off lies more than 2.5
        pixel sizes away.  Centers and distances are computed as
        near_region computes them, so the decisions are the same.
        """
        points = np.asarray(points, dtype=complex).reshape(-1, 1, 1)
        w = (points - self.origin) / self.pixel_size
        offsets = np.arange(-2, 3)
        rr = np.floor(w.imag).astype(int) + offsets[:, None]  # (points, 5, 1)
        cc = np.floor(w.real).astype(int) + offsets  # (points, 1, 5)
        rows, cols = self.grid.shape
        # an index off the grid is clipped to the empty margin ring
        is_set = self.grid[rr.clip(0, rows - 1), cc.clip(0, cols - 1)]
        dist = np.abs(self._centers(rr, cc) - points)
        return (is_set & (dist <= 2.0 * self.pixel_size)).any(axis=(1, 2))


def raster_from_shape(shapes, resolution: int) -> RasterRegion:
    """Rasterize a disk, annulus, or union of them at ``resolution`` px/unit.

    A pixel is set iff its center lies in (the closed) shape.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8 pixels per unit")
    if isinstance(shapes, (Disk, Annulus)):
        shapes = [shapes]
    shapes = list(shapes)
    if not shapes:
        raise ValueError("need at least one shape")

    boxes = [s.bounding_box() for s in shapes]
    xmin = min(b[0] for b in boxes)
    ymin = min(b[1] for b in boxes)
    xmax = max(b[2] for b in boxes)
    ymax = max(b[3] for b in boxes)

    size = 1.0 / resolution
    origin = complex(xmin - size, ymin - size)  # one-pixel margin all around
    cols = int(math.ceil((xmax - origin.real) / size)) + 1
    rows = int(math.ceil((ymax - origin.imag) / size)) + 1

    grid = np.zeros((rows, cols), dtype=bool)
    cc, rr = np.meshgrid(np.arange(cols), np.arange(rows))
    centers = origin + (cc + 0.5 + 1j * (rr + 0.5)) * size
    for s in shapes:
        grid |= s.contains(centers)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = False
    return RasterRegion(grid, origin, size)


def _holes(grid: np.ndarray) -> np.ndarray:
    """Unset pixels of the bounded complement components (4-connectivity).

    The complement is labelled by runs, not pixels: each row's maximal runs
    of unset pixels are the nodes, and runs in adjacent rows that share a
    column are joined.  Components holding a run on the grid's edge are
    the unbounded part; every other run is a hole, painted back onto the
    grid by a cumulative sum along its row.
    """
    rows, cols = grid.shape
    # with the grid padded by set pixels, every unset run [start, stop)
    # opens and closes with a change of value, in C order
    row, col = np.nonzero(np.diff(grid, axis=1, prepend=True, append=True))
    row, start, stop = row[0::2], col[0::2], col[1::2]
    # keyed row * width + column, starts and stops are both increasing, so
    # the runs of row r + 1 meeting [start, stop), those that stop after
    # start and start before stop, are one contiguous range lo:hi
    width = cols + 1
    below = (row + 1) * width
    lo = np.searchsorted(row * width + stop, below + start, side="right")
    hi = np.searchsorted(row * width + start, below + stop, side="left")
    count = np.maximum(hi - lo, 0)
    # run k is joined to runs lo[k], ..., hi[k] - 1
    upper = np.repeat(np.arange(row.size), count)
    lower = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    labels = components(row.size, upper, lower)
    on_edge = (row == 0) | (row == rows - 1) | (start == 0) | (stop == cols)
    hole = ~np.isin(labels, labels[on_edge])
    paint = np.zeros((rows, width), dtype=np.int8)
    paint[row[hole], start[hole]] = 1
    paint[row[hole], stop[hole]] = -1
    return np.cumsum(paint, axis=1, dtype=np.int8)[:, :cols] > 0


def polynomial_hull_raster(R: RasterRegion) -> RasterRegion:
    """Fill every bounded complement component ("filling in the holes").

    The complement's components are found by _holes; those that never
    reach the empty margin are holes and become set.
    """
    return RasterRegion(R.grid | _holes(R.grid), R.origin, R.pixel_size)


def _interior(grid: np.ndarray) -> np.ndarray:
    """Set pixels whose four neighbors are all set (outside counts as unset):
    the erosion of the grid by the 4-connected cross."""
    padded = np.pad(grid, 1, constant_values=False)
    return (
        grid
        & padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )


def boundary_mask(R: RasterRegion) -> np.ndarray:
    """Set pixels with at least one unset 4-neighbor: the grid less its
    _interior."""
    return R.grid & ~_interior(R.grid)


def topological_boundary_raster(R: RasterRegion) -> np.ndarray:
    """Centers of the boundary pixels, ordered row-major."""
    return R.pixel_centers()[boundary_mask(R)]


# ---------------------------------------------------------------------------
# Sampling strategies


@dataclass(frozen=True)
class CircleSample:
    """n exact points center + radius * exp(2 pi i k / n); k = 0..n-1."""

    center: complex
    radius: float
    count: int


@dataclass(frozen=True)
class InteriorGrid:
    """Lattice points (offset half a step) strictly inside the region.

    A point qualifies when its containing pixel and that pixel's four
    neighbors are all set: the point then lies in the convex hull of set
    pixel centers, so for convex shape pieces it is genuinely interior and
    never sneaks past the metric boundary through a rim pixel.
    """

    step: float


@dataclass(frozen=True)
class BoundaryUniform:
    """Approximately equally spaced boundary pixel centers (greedy k-center)."""

    count: int


def _farthest_point_subset(points: np.ndarray, n: int) -> np.ndarray:
    """Greedy k-center picks, seeded at the lexicographically smallest point."""
    order = np.lexsort((points.imag, points.real))
    pts = points[order]
    chosen = [0]
    dist = np.abs(pts - pts[0])
    while len(chosen) < n:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.abs(pts - pts[nxt]))
    return pts[np.array(sorted(chosen))]


def sample_raster(R: RasterRegion, strategy) -> FiniteSpace:
    """Extract a FiniteSpace of planar points from a raster region."""
    if isinstance(strategy, CircleSample):
        if strategy.count < 1:
            raise EmptySampleError("circle sample needs count >= 1")
        angles = 2.0 * np.pi * np.arange(strategy.count) / strategy.count
        pts = strategy.center + strategy.radius * np.exp(1j * angles)
        near = R.near_points(pts)
        if not near.all():
            z = pts[np.argmin(near)]  # the first point off the region
            raise EmptySampleError(
                f"circle point {z:.4g} does not lie in the raster region"
            )
        labels = tuple(f"c{k}" for k in range(strategy.count))
        return FiniteSpace(labels, pts)

    if isinstance(strategy, InteriorGrid):
        if strategy.step <= 0:
            raise EmptySampleError("interior grid step must be positive")
        eroded = _interior(R.grid)
        rows, cols = R.grid.shape
        x0, y0 = R.origin.real, R.origin.imag
        xs = x0 + strategy.step * (0.5 + np.arange(int(cols * R.pixel_size / strategy.step) + 2))
        ys = y0 + strategy.step * (0.5 + np.arange(int(rows * R.pixel_size / strategy.step) + 2))
        pts = []
        for y in ys:
            for x in xs:
                r, c = R.pixel_of(complex(x, y))
                if 0 <= r < rows and 0 <= c < cols and eroded[r, c]:
                    pts.append(complex(x, y))
        if not pts:
            raise EmptySampleError("interior grid hit no interior pixel")
        labels = tuple(f"g{k}" for k in range(len(pts)))
        return FiniteSpace(labels, np.array(pts))

    if isinstance(strategy, BoundaryUniform):
        centers = topological_boundary_raster(R)
        if strategy.count < 1 or strategy.count > centers.size:
            raise EmptySampleError(
                f"requested {strategy.count} boundary points, have {centers.size}"
            )
        pts = _farthest_point_subset(centers, strategy.count)
        labels = tuple(f"b{k}" for k in range(strategy.count))
        return FiniteSpace(labels, pts)

    raise TypeError(f"unknown sampling strategy {strategy!r}")


# ---------------------------------------------------------------------------
# PGM + JSON persistence

PGM_SET = 255
PGM_UNSET = 0


def pgm_text(levels: np.ndarray) -> str:
    """Plain P2 PGM text (maxval 255) of integer levels laid out like a
    raster grid: the image's top row is the grid's last row, the one with
    the largest imaginary part."""
    rows = [" ".join(str(v) for v in row) for row in levels[::-1]]
    return f"P2\n{levels.shape[1]} {levels.shape[0]}\n255\n" + "\n".join(rows) + "\n"


def pgm_and_sidecar(R: RasterRegion) -> tuple[str, str]:
    """Texts of a raster's plain P2 PGM (0 = unset, 255 = set) and of its
    JSON geometry sidecar, the file beside it named with ".json" appended."""
    sidecar = {"origin": complex_to_pair(R.origin), "pixel_size": R.pixel_size}
    pgm = pgm_text(np.where(R.grid, PGM_SET, PGM_UNSET))
    return pgm, json.dumps(sidecar, sort_keys=True) + "\n"


def write_pgm(path, R: RasterRegion) -> None:
    """Write pgm_and_sidecar(R) to path and to path + ".json"."""
    path = Path(path)
    pgm, sidecar = pgm_and_sidecar(R)
    path.write_text(pgm)
    path.with_suffix(path.suffix + ".json").write_text(sidecar)


def read_pgm(path) -> RasterRegion:
    path = Path(path)
    tokens: list[str] = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if tokens[0] != "P2":
        raise ValueError("only plain P2 PGM files are supported")
    cols, rows, _maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = np.array(tokens[4 : 4 + rows * cols], dtype=int).reshape(rows, cols)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    return RasterRegion(
        (values > 127)[::-1],
        pair_to_complex(sidecar["origin"]),
        float(sidecar["pixel_size"]),
    )
