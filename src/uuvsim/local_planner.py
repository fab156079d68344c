"""Leg-level planner: B-spline paths between two stations evolved by DE.

Geometry is a clamped cubic B-spline pinned to the two endpoints; the DE
genome holds the interior control points.  Kinematics follow the cruise-plus-
current model: the vehicle moves along the local tangent at its cruise speed
and the horizontal current adds vectorially, so favorable flow shortens the
leg and adverse flow stretches or stalls it.  Cost is normalized travel time
plus weighted worst-case violations of the surge/sway/yaw-rate limits and the
collision fraction.

Geometry, kinematics, collision fraction and cost are kernels over a
candidate axis.  `evaluate_paths` runs them on a whole DE generation and is
the one way a leg is scored: it returns every row's cost and clean flag, and
builds a `LocalPath` only for a row the caller asks for.  A row's result does
not depend on the rest of its batch.  The kernels hold a batch coordinate-
major, control points (3, c, control_count) and samples (3, c, S), so every
step runs on contiguous rows of one coordinate; a sample is its control
points' basis-weighted terms summed in order.  The field and collision tests
take (n, 2) and (n, 3) point rows, handed over as transposed views.

The collision fraction counts a path's samples plus q - 1 evenly spaced
checkpoints on each segment, q from the path's longest segment.  All samples
are tested; a segment whose end samples certify it clear of raster edge,
depth range, coast and every obstacle envelope counts its checkpoints as
misses unbuilt, so only segments near coast or obstacles are subdivided.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import de
from .env import EnvSnapshot, current_grid, points_in_collision
from .errors import NoFeasiblePathError

_EPS_LEN = 1e-12

# Margin (m) by which the clear-segment certificate widens the box around a
# segment's end samples and every obstacle envelope.  In exact arithmetic the
# checkpoints a + (k/q)(b - a) lie in the unwidened box; the margin keeps the
# certificate sound whatever their rounding.
_CERT_MARGIN = 1e-3

# With `stall` set, a plan whose best is still generation 0's after this many
# generations, and is attained by a clean candidate, stops there.  Most legs
# never beat generation 0's seeded chord.  On the 30-trial `paper_baseline`
# batch (seeds 20180520 + i) the window takes the local DE from 10,220
# generations to 3,385, at 30/30.  A 3-generation window also kept 30/30 but
# lost one more of 100 held-out trials (seeds 20180620 + i), 95 against 96.
# Without the clean gate, windows of 3, 5 and 10 generations lost 4, 1 and 1
# of the 30 trials; at 10, seed 20180533's blocked leg 11->18 stopped on its
# colliding chord and flew a 1,050 s detour on a 470 s edge.
SETTLE_WINDOW = 5


@dataclass(frozen=True)
class SplineConfig:
    control_count: int = 8    # total control points, endpoints included
    degree: int = 3
    samples: int = 100

    def __post_init__(self):
        if self.control_count < 4:
            raise ValueError("control_count must be >= 4")
        if self.degree < 3:
            raise ValueError("degree must be >= 3")
        if self.degree >= self.control_count:
            raise ValueError("degree must be < control_count")
        if self.samples < 10 * self.control_count:
            raise ValueError("samples must be >= 10 * control_count")

    @property
    def interior(self) -> int:
        return self.control_count - 2


@dataclass(frozen=True)
class LocalCostWeights:
    """Penalty weights and kinematic limits for local path scoring."""

    cruise_speed: float = 2.2
    surge_max: float = 2.7                 # m/s, upper bound only
    sway_max: float = 0.5                  # m/s, symmetric
    yaw_rate_max: float = math.radians(17.0)  # rad/s, symmetric
    w_surge: float = 10.0
    w_sway: float = 10.0
    w_yaw: float = 10.0
    w_collision: float = 100.0
    aggregate: str = "max"                 # 'max' or 'sum' over samples

    def __post_init__(self):
        for name in ("cruise_speed", "surge_max", "sway_max", "yaw_rate_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
        if not all(math.isfinite(w) and w >= 0
                   for w in (self.w_surge, self.w_sway, self.w_yaw, self.w_collision)):
            raise ValueError("weights must be finite and >= 0")
        if self.aggregate not in ("max", "sum"):
            raise ValueError("aggregate must be 'max' or 'sum'")


@dataclass
class LocalPath:
    """One sampled path with its ground-frame kinematics; built by evaluate_paths."""

    points: np.ndarray            # (S, 3)
    yaw: np.ndarray               # (S,)
    pitch: np.ndarray             # (S,)
    surge: np.ndarray             # (S,)
    sway: np.ndarray              # (S,)
    yaw_rate: np.ndarray          # (S,)
    times: np.ndarray             # (S,) cumulative, times[0] == 0
    duration: float

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Positions (n, 3) at elapsed times t (n,), linear along the sampled
        polyline, and each time's sample index, the index of the yaw flown."""
        t = np.asarray(t, dtype=float)
        times, points = self.times, self.points
        after = np.searchsorted(times, t, side="right")
        k = np.clip(after - 1, 0, len(times) - 2)
        span = times[k + 1] - times[k]
        w = np.divide(t - times[k], span, out=np.zeros_like(t), where=span > 0)
        pos = (1 - w)[:, None] * points[k] + w[:, None] * points[k + 1]
        pos[t <= 0] = points[0]
        pos[t >= times[-1]] = points[-1]
        return pos, np.minimum(after, len(times) - 1)

    def position_at_time(self, t: float) -> np.ndarray:
        """`at` for one time."""
        return self.at([t])[0][0]


@functools.cache
def basis_matrix(config: SplineConfig) -> np.ndarray:
    """(control_count, samples) clamped B-spline basis at uniform params.

    Each sample's column is de Boor's recursion in the operation order of
    scipy's `BSpline.design_matrix`, so the two are bit-equal; plain float
    arithmetic never fuses a multiply-add.  The first and last columns are
    exact unit vectors, since a clamped spline interpolates its end control
    points; the recursion can round the last weight to 1 - 2**-53.
    """
    n, k = config.control_count, config.degree
    t = [0.0] * k + np.linspace(0.0, 1.0, n - k + 1).tolist() + [1.0] * k
    basis = np.zeros((n, config.samples))
    for s, x in enumerate(np.linspace(0.0, 1.0, config.samples).tolist()):
        ell = min(bisect.bisect_right(t, x), n) - 1   # t[ell] <= x < t[ell+1]; 1.0 takes the last
        h = [1.0] + [0.0] * k
        for j in range(1, k + 1):
            hh = h[:j]
            h[0] = 0.0
            for m in range(1, j + 1):
                xb, xa = t[ell + m], t[ell + m - j]
                if xb == xa:
                    h[m] = 0.0
                    continue
                w = hh[m - 1] / (xb - xa)
                h[m - 1] += w * (xb - x)
                h[m] = w * (x - xa)
        basis[ell - k:ell + 1, s] = h
    basis[:, 0] = basis[:, -1] = 0.0
    basis[0, 0] = basis[-1, -1] = 1.0
    return basis


def control_points(genes: np.ndarray, endpoint_i, endpoint_j, config: SplineConfig) -> np.ndarray:
    """(3, c, control_count) coordinate-major control polygons with pinned endpoints.

    Genes (c, 3 * interior) are blocked as (all x, all y, all z) over the
    interior points.
    """
    genes = np.asarray(genes, dtype=float)
    c = genes.shape[0]
    ctrl = np.empty((3, c, config.control_count))
    ctrl[:, :, 0] = np.asarray(endpoint_i, dtype=float)[:, None]
    ctrl[:, :, -1] = np.asarray(endpoint_j, dtype=float)[:, None]
    ctrl[:, :, 1:-1] = genes.reshape(c, 3, config.interior).transpose(1, 0, 2)
    return ctrl


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return np.mod(a + np.pi, 2.0 * np.pi) - np.pi


def _geometry(ctrl: np.ndarray, config: SplineConfig):
    """Shared sampling for a (3, c, control_count) batch of control polygons.

    Returns pts (3,c,S), diffs (3,c,S-1), lens (c,S-1), yaw_seg, pitch_seg.
    A sample sums its control points' weighted terms in control-point order,
    the order that fixes its bits.
    Zero-length segments inherit the heading of the nearest preceding moving
    segment (or the first moving one when leading).
    """
    basis = basis_matrix(config)
    pts = ctrl[:, :, 0, None] * basis[0]
    term = np.empty_like(pts)
    for m in range(1, config.control_count):
        pts += np.multiply(ctrl[:, :, m, None], basis[m], out=term)
    diffs = pts[:, :, 1:] - pts[:, :, :-1]
    dx, dy, dz = diffs
    lens = np.sqrt(dx * dx + dy * dy + dz * dz)
    yaw_seg = np.arctan2(dy, dx)
    pitch_seg = np.arctan2(-dz, np.hypot(dx, dy))
    bad = lens < _EPS_LEN
    if np.any(bad):
        c, nseg = lens.shape
        idx = np.maximum.accumulate(np.where(bad, -1, np.arange(nseg)), axis=1)
        # Leading gaps take the first moving segment, or 0 when none moves.
        idx = np.where(idx < 0, np.argmax(~bad, axis=1)[:, None], idx)
        rows = np.arange(c)[:, None]
        yaw_seg = yaw_seg[rows, idx]
        pitch_seg = pitch_seg[rows, idx]
    return pts, diffs, lens, yaw_seg, pitch_seg


def _kinematics(pts, diffs, lens, yaw, weights: LocalCostWeights, env: EnvSnapshot):
    """Ground-frame kinematics for batched (3, c, S) geometry; yaw is per sample (c,S).

    Ground velocity per segment is cruise speed along the tangent plus the
    horizontal current; surge is its tangential component and sway the
    cross-track horizontal current.  A segment whose tangential ground speed
    drops to zero or below marks the whole path stalled (infeasible).
    A DE generation arrives as [mutants; trials], and a trial's sample equals
    its mutant's wherever the genes it rests on crossed over.  So row c - h + i
    (h = c // 2) copies the field at each sample bit-equal to row i's at the
    same index, and the field is evaluated once per distinct sample; the copy
    is the value a fresh evaluation would give.
    Returns the per-sample series surge, sway, yaw_rate and times (c,S),
    times[:, 0] == 0, then stalled (c,).
    """
    c, nseg = lens.shape
    h = c // 2
    safe = np.maximum(lens, _EPS_LEN)
    tx, ty = diffs[0] / safe, diffs[1] / safe
    x, y = pts[0, :, :-1], pts[1, :, :-1]
    repeat = ((x[c - h:].view(np.int64) == x[:h].view(np.int64))
              & (y[c - h:].view(np.int64) == y[:h].view(np.int64)))
    fresh = np.ones((c, nseg), dtype=bool)
    fresh[c - h:] = ~repeat
    cur = np.empty((2, c, nseg))
    cur[:, fresh] = current_grid(np.stack([x[fresh], y[fresh]]).T, env.field).T
    np.copyto(cur[:, c - h:], cur[:, :h], where=repeat)
    cx, cy = cur
    along = tx * cx + ty * cy
    surge = weights.cruise_speed + along
    yaw_seg = yaw[:, :-1]
    sway = -np.sin(yaw_seg) * cx + np.cos(yaw_seg) * cy
    moving = lens > _EPS_LEN
    stalled = np.any((surge <= 0.0) & moving, axis=1)
    eff = np.maximum(surge, 0.1 * weights.cruise_speed)
    seg_times = np.where(moving, lens / eff, 0.0)
    times = np.concatenate([np.zeros((c, 1)), np.cumsum(seg_times, axis=1)], axis=1)
    return _pad(surge), _pad(sway), yaw_rates(yaw, times), times, stalled


def _pad(seg_values: np.ndarray) -> np.ndarray:
    """Per-sample series from per-segment values along the last axis (last sample repeats)."""
    return np.concatenate([seg_values, seg_values[..., -1:]], axis=-1)


def yaw_rates(yaw: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Central-difference yaw rate over the cumulative sample times (last axis).

    The end samples take one-sided differences.
    """
    def spread(a):
        return np.concatenate([a[..., 1:2] - a[..., :1], a[..., 2:] - a[..., :-2],
                               a[..., -1:] - a[..., -2:-1]], axis=-1)
    return _wrap_angle(spread(yaw)) / np.maximum(spread(times), _EPS_LEN)


def _certified(pts: np.ndarray, env: EnvSnapshot) -> np.ndarray:
    """(c, S-1) mask of the segments of (3, c, S) paths whose every checkpoint surely misses.

    The box around a segment's two end samples, widened by _CERT_MARGIN, must
    lie inside the raster and the depth range, share no tile with a true
    coast cell within one cell of its cell range, and stay farther than
    envelope + _CERT_MARGIN from every obstacle centre.
    """
    grid = env.map.grid
    lo = np.minimum(pts[..., :-1], pts[..., 1:]) - _CERT_MARGIN
    hi = np.maximum(pts[..., :-1], pts[..., 1:]) + _CERT_MARGIN
    col0, row0 = np.floor(lo[:2] / grid.cell_size)
    col1, row1 = np.floor(hi[:2] / grid.cell_size)
    # Written so that NaN coordinates are never certified.
    ok = ((col0 >= 0) & (col1 < grid.width) & (row0 >= 0) & (row1 < grid.height)
          & (lo[2] >= 0.0) & (hi[2] <= grid.depth_extent))

    def cells(v, pad, n):
        return np.clip(np.where(ok, v + pad, 0.0), 0, n - 1).astype(np.int64)

    # The one-cell pad turns "no true coast" into "no dilated coast" in the box.
    ok &= env.map.coast_free(cells(row0, -1, grid.height), cells(row1, 1, grid.height),
                             cells(col0, -1, grid.width), cells(col1, 1, grid.width))
    # An obstacle clear of the box around all segments is clear of each one.
    lo_all, hi_all = lo.min(axis=(1, 2)), hi.max(axis=(1, 2))
    for obs in env.obstacles:
        centre = np.asarray(obs.position, dtype=float)
        r2 = (obs.envelope_radius + _CERT_MARGIN) ** 2
        gap = np.maximum(np.maximum(lo_all - centre, centre - hi_all), 0.0)
        if gap @ gap > r2:
            continue
        centre = centre[:, None, None]
        gap = np.maximum(np.maximum(lo - centre, centre - hi), 0.0)
        ok &= (gap * gap).sum(axis=0) > r2
    return ok


def _violations(pts: np.ndarray, qs: np.ndarray, env: EnvSnapshot, padded: bool) -> np.ndarray:
    """Colliding fraction of each (3, c, S) path's checkpoints, (c,).

    Row i is checked at its S samples and at the q_i - 1 interior points
    a + (k / q_i) * (b - a) of every segment a -> b, S + (S-1)(q_i-1) points
    in all.  Interior points are built and tested only for segments that
    _certified cannot clear; the rest count as misses.
    """
    _, c, S = pts.shape
    qs = np.maximum(np.asarray(qs, dtype=np.int64), 1)
    obstacles = list(env.obstacles)
    hits = points_in_collision(pts.reshape(3, -1).T, env.map, obstacles,
                               padded=padded).reshape(c, S).sum(axis=1)
    rows, segs = np.nonzero((qs > 1)[:, None] & ~_certified(pts, env))
    if rows.size:
        inner = qs[rows] - 1
        of = np.repeat(np.arange(rows.size), inner)
        k = np.arange(of.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
        sa, sb = pts[:, rows, segs], pts[:, rows, segs + 1]
        check = sa[:, of] + (k / qs[rows][of]) * (sb - sa)[:, of]
        hit = points_in_collision(check.T, env.map, obstacles, padded=padded)
        hits += np.bincount(rows[of[hit]], minlength=c)
    return hits / (S + (S - 1) * (qs - 1))


def _costs(chord: float, duration, surge, sway, yaw_rate, stalled, violation,
           weights: LocalCostWeights) -> tuple[np.ndarray, np.ndarray]:
    """Costs (c,) and (surge, sway, yaw-rate) excesses (c, 3) of c paths sharing a chord.

    The series are per sample (c,S).  Time is normalized by the straight-line
    still-water time, so an unobstructed straight leg scores exactly 1.0; a
    stalled path costs +inf.
    """
    reduce = np.max if weights.aggregate == "max" else np.sum
    excess = np.stack([reduce(np.maximum(0.0, surge - weights.surge_max), axis=1),
                       reduce(np.maximum(0.0, np.abs(sway) - weights.sway_max), axis=1),
                       reduce(np.maximum(0.0, np.abs(yaw_rate) - weights.yaw_rate_max), axis=1)],
                      axis=1)
    t_ref = chord / weights.cruise_speed
    costs = (duration / t_ref + weights.w_surge * excess[:, 0] + weights.w_sway * excess[:, 1]
             + weights.w_yaw * excess[:, 2] + weights.w_collision * violation)
    costs[stalled] = math.inf
    return costs, excess


def corridor_bounds(endpoint_i, endpoint_j, env: EnvSnapshot,
                    config: SplineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene [low, high] box: leg bounding box padded horizontally, full depth.

    The pad is max(0.25 x leg length, 800 m); the floor keeps short legs wide
    enough to skirt an island or an inflated obstacle sitting on the chord.
    """
    p_i = np.asarray(endpoint_i, dtype=float)
    p_j = np.asarray(endpoint_j, dtype=float)
    pad = max(0.25 * float(np.linalg.norm(p_j - p_i)), 800.0)
    ext = env.map.grid.extent
    lo_xy = np.maximum(np.minimum(p_i[:2], p_j[:2]) - pad, 0.0)
    hi_xy = np.minimum(np.maximum(p_i[:2], p_j[:2]) + pad, ext)
    lo = np.repeat([lo_xy[0], lo_xy[1], 0.0], config.interior)
    hi = np.repeat([hi_xy[0], hi_xy[1], env.map.grid.depth_extent], config.interior)
    return lo, hi


def straight_genes(endpoint_i, endpoint_j, config: SplineConfig) -> np.ndarray:
    """Interior control points evenly spaced on the chord (the straight path)."""
    p_i = np.asarray(endpoint_i, dtype=float)
    p_j = np.asarray(endpoint_j, dtype=float)
    fracs = np.linspace(0.0, 1.0, config.control_count)[1:-1]
    interior = p_i[None, :] + fracs[:, None] * (p_j - p_i)[None, :]
    return np.concatenate([interior[:, 0], interior[:, 1], interior[:, 2]])


def evaluate_paths(mat: np.ndarray, p_i: np.ndarray, p_j: np.ndarray,
                   spline: SplineConfig, weights: LocalCostWeights, env: EnvSnapshot):
    """Costs (m,), clean mask (m,) and a LocalPath builder for a (m, genes) matrix.

    Collision checks subdivide every segment below the map cell size and use
    the dilated coast, so an accepted path cannot clip a coast corner between
    checkpoints.  A row is clean when it does not stall, no checkpoint
    collides and no kinematic limit is exceeded.
    """
    pts, diffs, lens, yaw_seg, pitch_seg = _geometry(control_points(mat, p_i, p_j, spline),
                                                     spline)
    yaw, pitch = _pad(yaw_seg), _pad(pitch_seg)
    surge, sway, yaw_rate, times, stalled = _kinematics(pts, diffs, lens, yaw, weights, env)
    qs = np.ceil(lens.max(axis=1) / env.map.grid.cell_size).astype(int)
    violation = _violations(pts, qs, env, padded=True)
    # The clamped basis weights only the pinned endpoints at the first and
    # last samples, so every row has the same end samples and shares one chord.
    chord = float(np.linalg.norm(pts[:, 0, -1] - pts[:, 0, 0]))
    costs, excess = _costs(chord, times[:, -1], surge, sway, yaw_rate, stalled, violation,
                           weights)
    clean = ~stalled & (violation <= 0) & (excess.max(axis=1) == 0.0)

    def path_of(i: int) -> LocalPath:
        return LocalPath(points=pts[:, i].T.copy(), yaw=yaw[i], pitch=pitch[i], surge=surge[i],
                         sway=sway[i], yaw_rate=yaw_rate[i], times=times[i],
                         duration=float(times[i, -1]))

    return costs, clean, path_of


@dataclass
class LocalPlan:
    path: LocalPath
    genes: np.ndarray
    cost: float
    trace: list[float]


def plan_local(endpoint_i, endpoint_j, env: EnvSnapshot, weights: LocalCostWeights,
               spline: SplineConfig, config: de.DEConfig, rng: np.random.Generator,
               seed_genes: tuple[np.ndarray, ...] = ()) -> LocalPlan:
    """Evolve a constraint-clean path between two points.

    The straight chord seeds the population alongside any caller-provided
    warm starts.  The accepted path is the cheapest constraint-clean
    candidate evaluated anywhere in the run; if none exists, or the leg has
    no length, NoFeasiblePathError is raised.  With `config.stall` set, the
    run also stops after SETTLE_WINDOW generations when its best is still
    generation 0's and a clean candidate attains it.
    """
    p_i = np.asarray(endpoint_i, dtype=float)
    p_j = np.asarray(endpoint_j, dtype=float)
    if not np.linalg.norm(p_j - p_i) >= _EPS_LEN:  # NaN included
        raise NoFeasiblePathError(f"zero-length leg from {p_i[:2]} to {p_j[:2]}")
    lo, hi = corridor_bounds(p_i, p_j, env, spline)
    seeds = [straight_genes(p_i, p_j, spline), *seed_genes]

    best_clean: dict = {"cost": math.inf, "path": None, "genes": None}

    def evaluate(mat: np.ndarray) -> np.ndarray:
        # Keep the first cheapest clean candidate when it beats the best so far.
        costs, clean, path_of = evaluate_paths(mat, p_i, p_j, spline, weights, env)
        clean_costs = np.where(clean, costs, math.inf)
        i = int(np.argmin(clean_costs))
        if clean_costs[i] < best_clean["cost"]:
            best_clean["cost"] = float(clean_costs[i])
            best_clean["path"] = path_of(i)
            best_clean["genes"] = mat[i].copy()
        return costs

    def settled(trace: list[float]) -> bool:
        return (len(trace) > SETTLE_WINDOW and trace[-1] == trace[0]
                and best_clean["path"] is not None and best_clean["cost"] <= trace[-1])

    result = de.optimize(evaluate, config, lo, hi, rng, seed_genes=seeds,
                         stop=settled if config.stall is not None else None)
    if best_clean["path"] is None:
        raise NoFeasiblePathError(
            f"no constraint-clean path between {p_i[:2]} and {p_j[:2]} "
            f"after {result.evaluations} evaluations")
    return LocalPlan(path=best_clean["path"], genes=best_clean["genes"],
                     cost=best_clean["cost"], trace=result.trace)


def warm_start_genes(previous: LocalPath, from_time: float, spline: SplineConfig) -> np.ndarray:
    """Interior control points resampled from the remainder of an earlier path."""
    times = previous.times
    t_end = float(times[-1])
    span = max(t_end - from_time, _EPS_LEN)
    fracs = np.linspace(0.0, 1.0, spline.control_count)[1:-1]
    return previous.at(from_time + fracs * span)[0].T.ravel()


def replan_local(position, endpoint_j, env: EnvSnapshot, weights: LocalCostWeights,
                 spline: SplineConfig, config: de.DEConfig, rng: np.random.Generator,
                 previous: LocalPath | None = None,
                 previous_elapsed: float = 0.0) -> LocalPlan:
    """plan_local from the vehicle's current position, warm-started.

    The remainder of the incumbent path (shifted to start at the current
    position) seeds one population member, so an unchanged world replans to
    essentially the same answer.
    """
    seeds: tuple[np.ndarray, ...] = ()
    if previous is not None:
        seeds = (warm_start_genes(previous, previous_elapsed, spline),)
    return plan_local(position, endpoint_j, env, weights, spline, config,
                      rng=rng, seed_genes=seeds)
