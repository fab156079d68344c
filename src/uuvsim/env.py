"""Operating environment: clustered occupancy map, vortex current field, obstacles.

The map is a raster of intensities partitioned by 1-D k-means into water
(feasible) and coast (forbidden) cells.  The current field is a superposition
of Lamb vortices; obstacles are spheres that hold still, wobble in radius, or
drift with the current.  Everything here is a value type, and every
stochastic operation takes an explicit rng.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyRasterError, KTooLargeError, ScenarioValidationError

# Radii below this fraction of the vortex radius use the analytic r -> 0 limit.
_CORE_EPS = 1e-9

# current_grid runs in blocks of about _BLOCK_PAIRS (point, vortex) pairs, so
# its temporaries stay cache-sized on any field and a small field pays for few
# Python passes.  A pair is near when r^2 < _NEAR * ell^2.  Beyond that
# exp(-r^2/ell^2) < exp(-37.5) < 2^-54, so the damping 1 - exp rounds to
# exactly 1.0: far pairs are plain point vortices and only near pairs get the
# core test and the exp.
_BLOCK_PAIRS = 1 << 14
_NEAR = 40.0

# ClusteredMap.coast_free answers per square tile of _TILE x _TILE cells.  The
# tile table is tiny; an integral image at full cell resolution would cost
# more memory than the whole leg planner.
_TILE = 8

# Lloyd iterations cluster_map runs at most, and the cells per block of its
# 8-bit histogram count, whose intp temporary stays cache-sized.
_KMEANS_ITERS = 100
_COUNT_BLOCK = 1 << 16

# synthesize_raster draws the water normals _DRAW_ROWS raster rows at a time,
# so the float block it rounds and clips stays cache-sized.
_DRAW_ROWS = 64

# Two-sided 98% envelope z-score for obstacle position/radius uncertainty.
CONFIDENCE_Z = 2.05


@dataclass(frozen=True)
class GridMap:
    """Raster occupancy grid; `values` is intensity before clustering, 0/1 after.

    Intensities are uint8 when synthesized or read from a file of 0..255
    integers, float64 from any other file; the clustered occupancy is int8.
    """

    width: int
    height: int
    cell_size: float
    values: np.ndarray  # shape (height, width); row index is the y axis
    depth_extent: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise EmptyRasterError("grid must have positive width and height")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        if self.values.shape != (self.height, self.width):
            raise ValueError(f"values shape {self.values.shape} != (height, width)")

    @property
    def extent(self) -> tuple[float, float]:
        """(x, y) span in meters."""
        return self.width * self.cell_size, self.height * self.cell_size


@dataclass(frozen=True)
class ClusteredMap:
    """Binary occupancy map (1 = coast/forbidden, 0 = water) plus the k-means fit."""

    grid: GridMap
    centers: np.ndarray  # (k,) intensity centroids
    k: int
    water_label: int  # index into centers
    center_trace: tuple[tuple[float, ...], ...] = ()  # the centres each iteration assigned with

    @property
    def occupancy(self) -> np.ndarray:
        return self.grid.values

    @functools.cached_property
    def padded_occupancy(self) -> np.ndarray:
        """Occupancy dilated by one cell; the planners' conservative coast.

        Any point on a true coast cell lies at least one full cell inside the
        dilated region, so checking a path against this mask at sub-cell
        spacing cannot miss a true-coast crossing between checkpoints.  The
        3 x 3 dilation is separable: down the columns, then along the rows.
        Each OR reads its shifted operand as it was before the OR, since numpy
        buffers overlapping operands.
        """
        padded = self.occupancy == 1
        padded[1:, :] |= padded[:-1, :]
        padded[:-1, :] |= padded[1:, :]
        padded[:, 1:] |= padded[:, :-1]
        padded[:, :-1] |= padded[:, 1:]
        return padded.astype(np.int8)

    @functools.cached_property
    def coast_tiles(self) -> np.ndarray:
        """Integral image of the _TILE x _TILE-cell tiles holding a true coast cell.

        Entry [i, j] counts the coast tiles among tile rows < i and tile
        columns < j; tiles past the raster edge hold no coast.
        """
        h, w = self.grid.height, self.grid.width
        th, tw = -(-h // _TILE), -(-w // _TILE)
        occ = np.zeros((th * _TILE, tw * _TILE), dtype=bool)
        occ[:h, :w] = self.occupancy == 1
        coast = occ.reshape(th, _TILE, tw, _TILE).any(axis=(1, 3))
        table = np.zeros((th + 1, tw + 1), dtype=np.int32)
        table[1:, 1:] = coast.cumsum(axis=0).cumsum(axis=1)
        return table

    def coast_free(self, row0, row1, col0, col1) -> np.ndarray:
        """Whether the inclusive cell ranges hold no true coast cell (arrays in, mask out).

        Answered per tile, so conservative: a range that shares a tile with
        coast is not free.  Every index must lie inside the raster.
        """
        t = self.coast_tiles
        r0, r1 = row0 // _TILE, row1 // _TILE + 1
        c0, c1 = col0 // _TILE, col1 // _TILE + 1
        return t[r1, c1] - t[r0, c1] - t[r1, c0] + t[r0, c0] == 0


def _initial_centers(values: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Deterministic init: evenly spaced quantiles of the intensity histogram.

    `values` are the sorted distinct intensities and `counts` their cells;
    the quantiles are those of the raster itself, bit for bit `np.quantile`'s
    linear ones: the same virtual index into the sorted cells, whose values
    the cumulative counts give, and the same two-sided lerp.
    """
    qs = (np.arange(k) + 0.5) / k
    cum = np.cumsum(counts)
    virtual = (cum[-1] - 1) * qs
    below = np.floor(virtual)
    t = virtual - below
    # Sorted cell i holds the first value whose cumulative count exceeds i.
    a, b = values[np.searchsorted(cum, (below, np.minimum(below + 1, cum[-1] - 1)), side="right")]
    centers = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    if len(np.unique(centers)) < k:
        # Mass-concentrated data can collapse quantiles; fall back to an even
        # grid over the distinct values (precondition guarantees >= k of them).
        centers = values[np.round(np.linspace(0, len(values) - 1, k)).astype(int)]
    return centers.astype(float)


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the centre nearest each x, by a running strict minimum.

    Ties keep the lower index, as argmin does.
    """
    labels = np.zeros(x.shape, dtype=np.min_scalar_type(len(centers) - 1))
    best = np.abs(x - centers[0])
    dist = np.empty_like(best)
    for i in range(1, len(centers)):
        np.abs(np.subtract(x, centers[i], out=dist), out=dist)
        np.putmask(labels, dist < best, i)
        np.minimum(best, dist, out=best)
    return labels


def cluster_map(raster: GridMap, k: int, water: str = "low") -> ClusteredMap:
    """Partition raster intensities into k clusters and binarize to water/coast.

    Up to _KMEANS_ITERS (100) Lloyd iterations from a deterministic quantile
    init, until the labels settle; `center_trace` keeps the centres each
    iteration assigned with.  The cluster whose centroid has the lowest
    (``water="low"``) or highest intensity is water (0), all others coast (1).

    Cells of one intensity share their label, so the iterations run over the
    intensity histogram: each distinct value is labelled once and a centre is
    (counts . values) / count, which equals the mean of its cells whenever
    their sum is exact, as for any integer raster.  An 8-bit raster is counted
    with `np.bincount` in blocks of _COUNT_BLOCK cells; any other is read as
    float64 and counted by `np.unique`.

    The cells are labelled once, after the last iteration, with the labels it
    gave the distinct values, by one comparison.  Those labels are a 1-D
    nearest-centre partition, so each cluster holds a run of the sorted
    values, and the means of ordered runs are ordered: water, the lowest
    (highest) centroid, holds the lowest (highest) values, ties included.
    Coast is every intensity above the largest (below the smallest) of them.
    """
    if raster.values.dtype == np.uint8:
        cells = raster.values
        flat = cells.ravel()
        hist = np.zeros(256, dtype=np.intp)
        for block in range(0, flat.size, _COUNT_BLOCK):
            hist += np.bincount(flat[block:block + _COUNT_BLOCK], minlength=256)
        held = np.flatnonzero(hist)
        values, counts = held.astype(float), hist[held]
    else:
        cells = np.asarray(raster.values, dtype=float)
        values, counts = np.unique(cells, return_counts=True)
    if not np.isfinite(values).all():
        raise ValueError("raster intensities must be finite")
    if k < 2:
        raise KTooLargeError(f"k must be >= 2, got {k}")
    if k > values.size:
        raise KTooLargeError(f"k={k} exceeds {values.size} distinct intensities")
    if water not in ("low", "high"):
        raise ValueError("water must be 'low' or 'high'")

    centers = _initial_centers(values, counts, k)
    mass = counts * values
    trace, labels = [], None
    for _ in range(_KMEANS_ITERS):
        trace.append(tuple(centers.tolist()))
        labels, last = _nearest(values, centers), labels
        size = np.bincount(labels, weights=counts, minlength=k)
        held = size > 0
        centers[held] = np.bincount(labels, weights=mass, minlength=k)[held] / size[held]
        if last is not None and np.array_equal(labels, last):
            break

    water_label = int(np.argmin(centers) if water == "low" else np.argmax(centers))
    water_values = values[labels == water_label]
    low = water == "low"
    bound = water_values.max(initial=-np.inf) if low else water_values.min(initial=np.inf)
    if cells.dtype == np.uint8:  # a Python int bound compares in uint8, not float64
        bound = int(np.clip(bound, -1, 256))
    coast = cells > bound if low else cells < bound
    grid = replace(raster, values=coast.view(np.int8))
    return ClusteredMap(grid=grid, centers=centers, k=k, water_label=water_label,
                        center_trace=tuple(trace))


def load_raster(path, cell_size: float, depth_extent: float) -> GridMap:
    """Read a headerless whitespace-separated integer grid, one row per line.

    Every row holds the same number of finite integer intensities; any
    other file is a `ScenarioValidationError` naming it.  Intensities that all
    fit 0..255 are stored as uint8, which `cluster_map` counts by `np.bincount`.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns of an empty file, refused below
            values = np.loadtxt(path, dtype=float, ndmin=2)
    except ValueError as exc:  # a ragged row or a word that is no number
        raise ScenarioValidationError(f"raster {path}: {str(exc).partition(';')[0]}") from exc
    if values.size == 0:
        raise ScenarioValidationError(f"raster {path}: no intensities")
    if not (np.isfinite(values).all() and np.array_equal(values, np.rint(values))):
        raise ScenarioValidationError(f"raster {path}: intensities must be finite integers")
    if values.min() >= 0 and values.max() <= 255:
        values = values.astype(np.uint8)
    h, w = values.shape
    return GridMap(width=w, height=h, cell_size=cell_size, values=values, depth_extent=depth_extent)


def synthesize_raster(width: int, height: int, cell_size: float, depth_extent: float,
                      rng: np.random.Generator, islands: int = 5,
                      island_radius: tuple[float, float] = (200.0, 600.0),
                      coast_border: int = 0) -> GridMap:
    """Generate a coastline-style intensity raster: dark water, bright land.

    Water cells draw from N(40, 12^2), land cells from N(220, 12^2), rounded
    and clipped to 0..255 and stored as uint8.  Land is `islands` random discs
    plus an optional solid border of `coast_border` cells.  Some land must
    exist, otherwise 2-means would split the water noise instead of separating
    water from coast, so a draw with no land cell is a
    `ScenarioValidationError`.  The water normals are drawn _DRAW_ROWS rows at
    a time, the same stream as one whole-raster draw.
    """
    if islands <= 0 and coast_border <= 0:
        raise ValueError("synthetic map needs islands or a coast border")
    vals = np.empty((height, width), dtype=np.uint8)
    for row in range(0, height, _DRAW_ROWS):
        block = rng.normal(40.0, 12.0, size=(min(_DRAW_ROWS, height - row), width))
        vals[row:row + _DRAW_ROWS] = np.clip(np.rint(block, out=block), 0, 255, out=block)
    land = np.zeros((height, width), dtype=bool)
    if coast_border > 0:
        land[:coast_border, :] = land[-coast_border:, :] = True
        land[:, :coast_border] = land[:, -coast_border:] = True
    xs = (np.arange(width) + 0.5) * cell_size
    ys = (np.arange(height) + 0.5) * cell_size
    for _ in range(islands):
        cx = rng.uniform(0, width * cell_size)
        cy = rng.uniform(0, height * cell_size)
        r = rng.uniform(*island_radius)
        # A cell is in the disc only if its column's and its row's own squared
        # offsets are each <= r^2, so the disc is drawn over that box alone.
        dx2, dy2 = (xs - cx) ** 2, (ys - cy) ** 2
        cols, rows = np.flatnonzero(dx2 <= r * r), np.flatnonzero(dy2 <= r * r)
        if cols.size and rows.size:
            c, d = slice(cols[0], cols[-1] + 1), slice(rows[0], rows[-1] + 1)
            land[d, c] |= dx2[None, c] + dy2[d, None] <= r * r
    if not land.any():
        raise ScenarioValidationError("synthetic map drew no land: no island covers a cell "
                                      "centre (map.island_radius) and map.coast_border is 0")
    peaks = rng.normal(220.0, 12.0, size=np.count_nonzero(land))
    vals[land] = np.clip(np.rint(peaks, out=peaks), 0, 255, out=peaks)
    return GridMap(width=width, height=height, cell_size=cell_size, values=vals,
                   depth_extent=depth_extent)


@dataclass(frozen=True)
class VortexParams:
    """One Lamb vortex: center (m), radius scale (m), signed strength (m^2/s)."""

    center: tuple[float, float]
    radius: float
    strength: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("vortex radius must be > 0")
        if not math.isfinite(self.strength):
            raise ValueError("vortex strength must be finite")


@dataclass(frozen=True)
class VortexField:
    """Superposed Lamb vortices over a rectangular extent (2-D, depth-uniform)."""

    vortices: tuple[VortexParams, ...]
    noise_range: tuple[float, float] = (0.1, 0.8)

    @functools.cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """Per-vortex columns of the superposition: x, y, strength, ell^2, core r^2, near r^2."""
        radii = np.array([v.radius for v in self.vortices], dtype=float)
        return (np.array([v.center[0] for v in self.vortices], dtype=float),
                np.array([v.center[1] for v in self.vortices], dtype=float),
                np.array([v.strength for v in self.vortices], dtype=float),
                radii ** 2, (_CORE_EPS * radii) ** 2, _NEAR * radii ** 2)


@dataclass(frozen=True)
class CurrentSample:
    """Horizontal current velocity at one point."""

    v_cx: float
    v_cy: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.v_cx, self.v_cy)


# Peak tangential speed of a unit-strength, unit-radius Lamb vortex occurs at
# r ~= 1.1209 ell and equals ~0.6382 / (2 pi ell) * strength.
PEAK_SPEED_FACTOR = 0.63817


def current_grid(points: np.ndarray, fld: VortexField) -> np.ndarray:
    """Current velocity (n, 2) at each (n, 2) point; vectorized superposition.

    Each row is bit-identical to evaluating its point alone.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cx, cy, strengths, radii2, core2, near2 = fld.terms
    out = np.empty((pts.shape[0], 2))
    step = max(1, _BLOCK_PAIRS // max(cx.size, 1))
    for s in range(0, pts.shape[0], step):
        blk = pts[s:s + step]
        dx = blk[:, 0:1] - cx  # (b, v)
        dy = blk[:, 1:2] - cy
        r2 = dx * dx
        r2 += dy * dy
        near = (r2 < near2).ravel().nonzero()[0]  # flat (b, v) indices
        if near.size:
            cols = near % cx.size
            r2_near = r2.take(near)
            core = r2_near < core2.take(cols)
            has_core = np.count_nonzero(core) > 0
            if has_core:  # divide by 1.0 there; zeroed below
                r2_near[core] = 1.0
                r2.put(near[core], 1.0)
        coeff = strengths / (2.0 * np.pi * r2)
        if near.size:
            damped = coeff.take(near) * (1.0 - np.exp(-r2_near / radii2.take(cols)))
            if has_core:
                damped[core] = 0.0
            coeff.put(near, damped)
        dx *= coeff
        np.add.reduce(dx, axis=1, out=out[s:s + step, 1])
        np.negative(coeff, out=coeff)
        coeff *= dy
        np.add.reduce(coeff, axis=1, out=out[s:s + step, 0])
    return out


def current_at(point, fld: VortexField) -> CurrentSample:
    """Current at a single (x, y) point; exact zero at a vortex core."""
    v_cx, v_cy = current_grid(np.asarray(point, dtype=float)[:2][None, :], fld)[0].tolist()
    return CurrentSample(v_cx, v_cy)


def perturb_field(fld: VortexField, rng: np.random.Generator) -> VortexField:
    """Multiplicative Gaussian update of every vortex parameter.

    One noise scale s ~ U(noise_range) is drawn per update event; each
    parameter p becomes p * (1 + s * g) with g ~ N(0, 1).  Radius is clamped
    to stay positive.
    """
    lo, hi = fld.noise_range
    s = float(rng.uniform(lo, hi))
    new = []
    for v in fld.vortices:
        g = rng.standard_normal(4)
        new.append(VortexParams(
            center=(v.center[0] * (1 + s * g[0]), v.center[1] * (1 + s * g[1])),
            radius=max(v.radius * (1 + s * g[2]), 1e-6),
            strength=v.strength * (1 + s * g[3]),
        ))
    return replace(fld, vortices=tuple(new))


def sample_vortex_field(extent: tuple[float, float], rng: np.random.Generator,
                        window: float = 2000.0, count: tuple[int, int] = (2, 5),
                        radius: tuple[float, float] = (100.0, 250.0),
                        peak_speed: tuple[float, float] = (0.05, 0.3),
                        noise_range: tuple[float, float] = (0.1, 0.8)) -> VortexField:
    """Tile the extent with independent square windows of 2..5 random vortices.

    Strength is parameterized by the vortex's peak tangential speed, which is
    the physically meaningful knob: strength = peak * 2 pi ell / 0.6382,
    signed at random for rotation direction.
    """
    vortices = []
    nx = max(1, int(math.ceil(extent[0] / window)))
    ny = max(1, int(math.ceil(extent[1] / window)))
    for ix in range(nx):
        for iy in range(ny):
            n = int(rng.integers(count[0], count[1] + 1))
            for _ in range(n):
                cx = rng.uniform(ix * window, min((ix + 1) * window, extent[0]))
                cy = rng.uniform(iy * window, min((iy + 1) * window, extent[1]))
                ell = rng.uniform(*radius)
                peak = rng.uniform(*peak_speed)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                strength = sign * peak * 2.0 * np.pi * ell / PEAK_SPEED_FACTOR
                vortices.append(VortexParams(center=(cx, cy), radius=ell, strength=strength))
    return VortexField(vortices=tuple(vortices), noise_range=noise_range)


def envelope(kind: str, radius: float, base_radius: float, radius_sigma: float,
             motion_sigma: float, horizon, current_mag: float, margin: float = 0.0):
    """98%-confidence envelope radius of an obstacle for a prediction horizon (s).

    The one envelope rule.  Position uncertainty of mobile obstacles grows
    linearly with the horizon (a float or an array) at rate
    motion_sigma * |v_c|; uncertain obstacles add their radius spread.
    Static obstacles keep envelope = radius + margin.
    """
    env_r = radius + margin
    if kind == "mobile":
        return env_r + CONFIDENCE_Z * motion_sigma * current_mag * np.maximum(horizon, 0.0)
    if kind == "uncertain":
        # Radius resamples around the base value, so predict from it.
        return max(env_r, base_radius + margin + CONFIDENCE_Z * radius_sigma)
    return env_r


@dataclass(frozen=True)
class Obstacle:
    """Spherical hazard; kind is 'static', 'uncertain' (radius wobbles) or 'mobile'."""

    id: int
    kind: str
    position: tuple[float, float, float]
    radius: float
    radius_sigma: float = 0.0
    motion_sigma: float = 0.0
    base_radius: float | None = None
    envelope_radius: float | None = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("obstacle radius must be > 0")
        if self.kind not in ("static", "uncertain", "mobile"):
            raise ValueError(f"unknown obstacle kind {self.kind!r}")
        if self.base_radius is None:
            object.__setattr__(self, "base_radius", self.radius)
        if self.envelope_radius is None:
            object.__setattr__(self, "envelope_radius", self.radius)

    def inflated(self, horizon: float, current_mag: float, margin: float = 0.0) -> "Obstacle":
        """Copy whose envelope_radius is this obstacle's `envelope` for the horizon (s)."""
        return replace(self, envelope_radius=float(envelope(
            self.kind, self.radius, self.base_radius, self.radius_sigma, self.motion_sigma,
            horizon, current_mag, margin)))


def obstacle_currents(obstacles: list[Obstacle], fld: VortexField) -> list[list[float]]:
    """(v_cx, v_cy) at each mobile obstacle's position, in row order; one field call."""
    points = [obs.position[:2] for obs in obstacles if obs.kind == "mobile"]
    return current_grid(np.array(points), fld).tolist() if points else []


def step_obstacles(obstacles: list[Obstacle], currents: list[list[float]], fld: VortexField,
                   dt: float, rng: np.random.Generator) -> tuple[list[Obstacle], list[list[float]]]:
    """The obstacles after one step of duration dt (s), and their currents under `fld`.

    `currents` are `obstacle_currents(obstacles, fld)`.  Mobile obstacles
    drift with the local current plus a Brownian term: on each horizontal
    axis Gaussian jitter of scale motion_sigma * |v_c| * sqrt(dt), so its
    variance grows per second of flight whatever the step size, and a 1 s
    step draws scale motion_sigma * |v_c|.  Uncertain obstacles resample
    their radius around the base value; static obstacles hold still.  One
    standard-normal draw serves the step, its values taken in row order and
    none where a scale is 0: `rng.normal(loc, s)` is `loc + s * z` bit for
    bit, so values and stream equal one `rng.normal` call per obstacle.  The
    step ends with one field call at the stepped mobile positions.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    speeds = iter([math.hypot(v_cx, v_cy) for v_cx, v_cy in currents])
    scales = [obs.radius_sigma if obs.kind == "uncertain"
              else obs.motion_sigma * next(speeds) * math.sqrt(dt) if obs.kind == "mobile"
              else 0.0
              for obs in obstacles]
    draws = sum(2 if obs.kind == "mobile" else 1
                for obs, scale in zip(obstacles, scales) if scale > 0)
    z = iter(rng.standard_normal(draws).tolist() if draws else ())
    moves = iter(currents)
    stepped = []
    for obs, scale in zip(obstacles, scales):
        # The constructor, at half the cost of `dataclasses.replace`.
        if obs.kind == "uncertain":
            r = obs.base_radius + scale * next(z) if scale > 0 else obs.base_radius
            obs = Obstacle(obs.id, obs.kind, obs.position, max(r, 1e-6), obs.radius_sigma,
                           obs.motion_sigma, obs.base_radius)
        elif obs.kind == "mobile":
            v_cx, v_cy = next(moves)
            jx, jy = (scale * next(z), scale * next(z)) if scale > 0 else (0.0, 0.0)
            x, y, depth = obs.position
            obs = Obstacle(obs.id, obs.kind, (x + v_cx * dt + jx, y + v_cy * dt + jy, depth),
                           obs.radius, obs.radius_sigma, obs.motion_sigma, obs.base_radius)
        stepped.append(obs)
    return stepped, obstacle_currents(stepped, fld)


def point_in_obstacles(point, obstacles: list[Obstacle]) -> bool:
    """Whether the (x, y, z) point lies in some obstacle's closed ball of its
    current radius, in plain floats with `points_in_collision`'s arithmetic."""
    x, y, z = point
    for obs in obstacles:
        ox, oy, oz = obs.position
        dx, dy, dz = x - ox, y - oy, z - oz
        if dx * dx + dy * dy + dz * dz <= obs.radius ** 2:
            return True
    return False


def points_in_collision(points: np.ndarray, cmap: ClusteredMap,
                        obstacles: list[Obstacle] = (), padded: bool = False) -> np.ndarray:
    """Vectorized collision test for (n, 3) points.

    A point collides when its cell is coast, it lies outside the raster or the
    depth range (non-finite coordinates included), or it is inside any
    obstacle's envelope (closed ball).  With ``padded=True`` the coast test
    uses the one-cell-dilated occupancy.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    grid = cmap.grid
    col = np.floor(pts[:, 0] / grid.cell_size)
    row = np.floor(pts[:, 1] / grid.cell_size)
    z = pts[:, 2] if pts.shape[1] > 2 else np.zeros(n)

    # Every comparison is false for NaN, so non-finite points fall outside.
    inside = ((col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
              & (z >= 0.0) & (z <= grid.depth_extent))
    out = ~inside
    if np.any(inside):
        occ = cmap.padded_occupancy if padded else cmap.occupancy
        out[inside] = occ[row[inside].astype(np.int64), col[inside].astype(np.int64)] == 1
    for obs in obstacles:
        d2 = ((pts[:, 0] - obs.position[0]) ** 2 + (pts[:, 1] - obs.position[1]) ** 2
              + (z - obs.position[2]) ** 2)
        out |= d2 <= obs.envelope_radius ** 2
    return out


def point_in_collision(point, cmap: ClusteredMap, padded: bool = False) -> bool:
    """Scalar points_in_collision without obstacles, in plain floats with the same arithmetic.

    The one point rule for a station or an obstacle centre; the executor's
    obstacle balls are `point_in_obstacles`.  Out-of-bounds and
    non-finite points are conservatively hits; a 2-D point sits at depth 0.
    """
    x, y = float(point[0]), float(point[1])
    z = float(point[2]) if len(point) > 2 else 0.0
    grid = cmap.grid
    gx, gy = x / grid.cell_size, y / grid.cell_size
    if not (math.isfinite(gx) and math.isfinite(gy) and 0.0 <= z <= grid.depth_extent):
        return True
    col, row = math.floor(gx), math.floor(gy)
    occ = cmap.padded_occupancy if padded else cmap.occupancy
    return not (0 <= col < grid.width and 0 <= row < grid.height) or occ[row, col] == 1


@dataclass(frozen=True)
class EnvSnapshot:
    """Immutable view of the world handed to the planners."""

    map: ClusteredMap
    field: VortexField
    obstacles: tuple[Obstacle, ...] = ()
