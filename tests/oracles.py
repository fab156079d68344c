"""Independent reference computations used by several test modules."""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import replace

import numpy as np
from scipy.interpolate import BSpline

from uuvsim.env import (ClusteredMap, EnvSnapshot, GridMap, Obstacle, VortexField, current_at,
                        current_grid, points_in_collision)
from uuvsim.errors import UndecodableError
from uuvsim.global_planner import Route
from uuvsim.local_planner import (_CERT_MARGIN, _EPS_LEN, LocalCostWeights, LocalPath,
                                  SplineConfig, _costs, _pad, yaw_rates)
from uuvsim.network import Network, Station, _pair, edge_length


def walk_cost(time: float, value: float, n_stations: int, budget: float) -> float:
    """Route cost restated independently: budget gap + inverse value + overtime."""
    gap = abs(time - budget) / budget
    value_term = n_stations / (value + 1.0)
    over = max(0.0, (time - budget) / budget)
    return gap + value_term + (100.0 * (1.0 + over) if over > 0 else 0.0)


def enumerate_edge_walks(network, speed: float):
    """Yield (time, value) of every start-to-goal walk using each edge at most once.

    Nodes may repeat; value counts each station's worth on first visit only,
    never the start's.
    """
    pos = {sid: np.asarray(st.position, dtype=float) for sid, st in network.stations.items()}
    adj: dict[int, list[tuple[int, float]]] = {sid: [] for sid in network.stations}
    for i, j in network.edges:
        if (i, j) in network.used:
            continue
        t = float(np.linalg.norm(pos[i] - pos[j])) / speed
        adj[i].append((j, t))
        adj[j].append((i, t))

    start, goal = network.start_id, network.goal_id
    values = {sid: st.value for sid, st in network.stations.items()}
    used: set[tuple[int, int]] = set()
    out: list[tuple[float, float]] = []

    def rec(cur: int, elapsed: float, visited: frozenset[int], value: float):
        if cur == goal:
            out.append((elapsed, value))
            # walks may continue through the goal and come back later
        for nxt, t in adj[cur]:
            pair = (cur, nxt) if cur < nxt else (nxt, cur)
            if pair in used:
                continue
            used.add(pair)
            gain = values[nxt] if nxt not in visited and nxt != start else 0.0
            rec(nxt, elapsed + t, visited | {nxt}, value + gain)
            used.discard(pair)

    rec(start, 0.0, frozenset([start]), 0.0)
    return out


def best_walk_cost(network, speed: float, budget: float) -> float:
    """Exhaustive optimum of the route cost over all simple edge-walks."""
    walks = enumerate_edge_walks(network, speed)
    n = len(network.stations)
    return min(walk_cost(t, v, n, budget) for t, v in walks)


# The decoder as it stood before the decode graph was built once per plan:
# adjacency, edge lengths and the to-goal table rebuilt for every genome, and
# a full-graph Dijkstra on every divert.  Kept verbatim as the exactness
# reference for `decode_route`.


def reference_dijkstra(adj: dict[int, list[tuple[int, float]]], src: int,
                       blocked: set[tuple[int, int]]) -> tuple[dict[int, float], dict[int, int]]:
    """Times and predecessors from src over the weighted adjacency, minus blocked pairs."""
    dist = {src: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, t in adj[u]:
            if ((u, v) if u < v else (v, u)) in blocked:
                continue
            nd = d + t
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def reference_decode_route(keys: np.ndarray, network: Network, start: int, goal: int,
                           time_budget: float, speed: float,
                           visited: frozenset[int] = frozenset()) -> Route:
    """Decode a key vector into a route; raises UndecodableError when cut off.

    The budget check against the remaining shortest path uses a table
    precomputed over the network's unused edges; edges consumed within the
    walk are not re-blocked there (the overtime penalty absorbs the rare
    decode this lets slip past the budget).  `visited` marks stations whose
    value was already collected in earlier legs; they contribute nothing to
    this route's value.
    """
    ids = sorted(network.stations)
    key_of = {sid: float(keys[i]) for i, sid in enumerate(ids)}
    pos = {sid: tuple(network.stations[sid].position) for sid in ids}

    adj: dict[int, list[tuple[int, float]]] = {sid: [] for sid in ids}
    dist_of: dict[tuple[int, int], float] = {}
    for i, j in network.edges:
        if (i, j) in network.used:
            continue
        pi, pj = pos[i], pos[j]
        d = math.sqrt((pi[0] - pj[0]) ** 2 + (pi[1] - pj[1]) ** 2 + (pi[2] - pj[2]) ** 2)
        dist_of[(i, j)] = d
        t = d / speed
        adj[i].append((j, t))
        adj[j].append((i, t))
    for lst in adj.values():
        lst.sort()

    to_goal = reference_dijkstra(adj, goal, set())[0]

    used: set[tuple[int, int]] = set()
    seq = [start]
    elapsed = 0.0
    distance = 0.0

    while seq[-1] != goal:
        cur = seq[-1]
        moved = False
        nbrs = [m for m, _ in adj[cur] if ((cur, m) if cur < m else (m, cur)) not in used]
        if nbrs:
            # Highest key wins; ties resolve to the lower id.
            m = max(nbrs, key=lambda s: (key_of[s], -s))
            p = (cur, m) if cur < m else (m, cur)
            step_d = dist_of[p]
            if elapsed + step_d / speed + to_goal.get(m, math.inf) <= time_budget:
                used.add(p)
                seq.append(m)
                elapsed += step_d / speed
                distance += step_d
                moved = True
        if not moved:
            # Divert: minimum-time path to the goal over what is left.
            dist, prev = reference_dijkstra(adj, cur, used)
            if goal not in dist:
                raise UndecodableError(f"goal {goal} unreachable from {cur}")
            tail = [goal]
            while tail[-1] != cur:
                tail.append(prev[tail[-1]])
            for nxt in tail[-2::-1]:
                prev_node = seq[-1]
                p = (prev_node, nxt) if prev_node < nxt else (nxt, prev_node)
                used.add(p)
                d = dist_of[p]
                seq.append(nxt)
                elapsed += d / speed
                distance += d
            break

    value = 0.0
    seen = set(visited) | {start}
    edges = []
    for a, b in zip(seq, seq[1:]):
        edges.append(_pair(a, b))
        if b not in seen:
            value += network.stations[b].value
            seen.add(b)
    return Route(sequence=tuple(seq), edges=tuple(edges), distance=distance,
                 time=distance / speed, total_value=value)


def reference_subdivided(points: np.ndarray, subdivide: int) -> np.ndarray:
    """Insert `subdivide - 1` interpolated points per segment (batch-safe)."""
    if subdivide <= 1:
        return points
    segs = points[..., 1:, :] - points[..., :-1, :]
    chunks = [points]
    for k in range(1, subdivide):
        chunks.append(points[..., :-1, :] + (k / subdivide) * segs)
    return np.concatenate(chunks, axis=-2)


def reference_violations(pts: np.ndarray, subdivide: int, env: EnvSnapshot,
                         padded: bool) -> np.ndarray:
    """Colliding fraction of each (c, S, 3) path's checkpoints, (c,)."""
    check = reference_subdivided(pts, subdivide)
    hits = points_in_collision(check.reshape(-1, 3), env.map, list(env.obstacles), padded=padded)
    return hits.reshape(pts.shape[0], -1).mean(axis=1)


# The leg evaluator as it stood before it held a generation coordinate-major:
# (c, S, 3) samples from an einsum over the (S, n) basis, every row scored,
# including a trial bit-equal to its mutant.  Kept verbatim as the exactness
# reference for `evaluate_paths`; the helpers that did not change with the
# layout (`_pad`, `yaw_rates`, `_costs`) are the program's own.

_reference_basis_cache: dict[tuple[int, int, int], np.ndarray] = {}


def _reference_basis_matrix(config: SplineConfig) -> np.ndarray:
    """(samples, control_count) clamped B-spline design matrix at uniform params."""
    key = (config.control_count, config.degree, config.samples)
    if key not in _reference_basis_cache:
        n, k = config.control_count, config.degree
        knots = np.concatenate([np.zeros(k), np.linspace(0.0, 1.0, n - k + 1), np.ones(k)])
        t = np.linspace(0.0, 1.0, config.samples)
        _reference_basis_cache[key] = BSpline.design_matrix(t, knots, k).toarray()
    return _reference_basis_cache[key]


def _reference_control_points(genes: np.ndarray, endpoint_i, endpoint_j,
                              config: SplineConfig) -> np.ndarray:
    """(..., control_count, 3) control polygons with pinned endpoints.

    Genes (..., gene_length) are blocked as (all x, all y, all z) over the
    interior points.
    """
    genes = np.asarray(genes, dtype=float)
    pts = np.empty(genes.shape[:-1] + (config.control_count, 3))
    pts[..., 0, :] = endpoint_i
    pts[..., -1, :] = endpoint_j
    pts[..., 1:-1, :] = np.swapaxes(genes.reshape(genes.shape[:-1] + (3, config.interior)), -1, -2)
    return pts


def _reference_geometry(ctrl: np.ndarray, config: SplineConfig):
    """Shared sampling for a (c, control_count, 3) batch of control polygons.

    Returns pts (c,S,3), diffs (c,S-1,3), lens (c,S-1), yaw_seg, pitch_seg.
    Zero-length segments inherit the heading of the nearest preceding moving
    segment (or the first moving one when leading).
    """
    B = _reference_basis_matrix(config)
    pts = np.einsum("sm,cmd->csd", B, ctrl)
    diffs = np.diff(pts, axis=1)
    lens = np.linalg.norm(diffs, axis=2)
    yaw_seg = np.arctan2(diffs[..., 1], diffs[..., 0])
    pitch_seg = np.arctan2(-diffs[..., 2], np.hypot(diffs[..., 0], diffs[..., 1]))
    bad = lens < _EPS_LEN
    if np.any(bad):
        c, nseg = lens.shape
        idx = np.where(~bad, np.arange(nseg)[None, :], -1)
        idx = np.maximum.accumulate(idx, axis=1)
        any_valid = (idx >= 0).any(axis=1)
        first_valid = np.where(any_valid, np.argmax(idx >= 0, axis=1), 0)
        fill = idx[np.arange(c), first_valid]
        fill = np.where(fill >= 0, fill, 0)
        idx = np.where(idx < 0, fill[:, None], idx)
        rows = np.arange(c)[:, None]
        yaw_seg = yaw_seg[rows, idx]
        pitch_seg = pitch_seg[rows, idx]
    return pts, diffs, lens, yaw_seg, pitch_seg


def _reference_kinematics(pts, diffs, lens, yaw, weights: LocalCostWeights,
                          env: EnvSnapshot):
    """Ground-frame kinematics for batched geometry; yaw is per sample (c,S).

    Ground velocity per segment is cruise speed along the tangent plus the
    horizontal current; surge is its tangential component and sway the
    cross-track horizontal current.  A segment whose tangential ground speed
    drops to zero or below marks the whole path stalled (infeasible).
    Returns the per-sample series surge, sway, yaw_rate and times (c,S),
    times[:, 0] == 0, then stalled (c,).
    """
    c, nseg = lens.shape
    safe = np.maximum(lens, _EPS_LEN)
    tx, ty = diffs[..., 0] / safe, diffs[..., 1] / safe
    # Row c - h + i reuses the field at each sample bit-equal to row i's.
    xy = pts[:, :-1, :2]
    h = c // 2
    same = xy[c - h:].view(np.int64) == xy[:h].view(np.int64)
    repeat = same[..., 0] & same[..., 1]  # (h, nseg)
    fresh = np.ones((c, nseg), dtype=bool)
    fresh[c - h:] = ~repeat
    cur = np.empty((c, nseg, 2))
    cur[fresh] = current_grid(xy[fresh], env.field)
    cur[c - h:][repeat] = cur[:h][repeat]
    along = tx * cur[..., 0] + ty * cur[..., 1]
    surge = weights.cruise_speed + along
    yaw_seg = yaw[:, :-1]
    sway = -np.sin(yaw_seg) * cur[..., 0] + np.cos(yaw_seg) * cur[..., 1]
    moving = lens > _EPS_LEN
    stalled = np.any((surge <= 0.0) & moving, axis=1)
    eff = np.maximum(surge, 0.1 * weights.cruise_speed)
    seg_times = np.where(moving, lens / eff, 0.0)
    times = np.concatenate([np.zeros((c, 1)), np.cumsum(seg_times, axis=1)], axis=1)
    return _pad(surge), _pad(sway), yaw_rates(yaw, times), times, stalled


def _reference_certified(pts: np.ndarray, env: EnvSnapshot) -> np.ndarray:
    """(c, S-1) mask of the segments of (c, S, 3) paths whose every checkpoint surely misses.

    The box around a segment's two end samples, widened by _CERT_MARGIN, must
    lie inside the raster and the depth range, share no tile with a true
    coast cell within one cell of its cell range, and stay farther than
    envelope + _CERT_MARGIN from every obstacle centre.
    """
    grid = env.map.grid
    p = np.ascontiguousarray(np.moveaxis(pts, -1, 0))  # (3, c, S)
    lo = np.minimum(p[..., :-1], p[..., 1:]) - _CERT_MARGIN
    hi = np.maximum(p[..., :-1], p[..., 1:]) + _CERT_MARGIN
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


def _reference_violations(pts: np.ndarray, qs: np.ndarray, env: EnvSnapshot,
                          padded: bool) -> np.ndarray:
    """Colliding fraction of each (c, S, 3) path's checkpoints, (c,).

    Row i is checked at its S samples and at the q_i - 1 interior points
    a + (k / q_i) * (b - a) of every segment a -> b, S + (S-1)(q_i-1) points
    in all.  Interior points are built and tested only for segments that
    _certified cannot clear; the rest count as misses.
    """
    c, S, _ = pts.shape
    qs = np.maximum(np.asarray(qs, dtype=np.int64), 1)
    obstacles = list(env.obstacles)
    hits = points_in_collision(pts.reshape(-1, 3), env.map, obstacles,
                               padded=padded).reshape(c, S).sum(axis=1)
    a, b = pts[:, :-1], pts[:, 1:]
    rows, segs = np.nonzero((qs > 1)[:, None] & ~_reference_certified(pts, env))
    if rows.size:
        inner = qs[rows] - 1
        of = np.repeat(np.arange(rows.size), inner)
        k = np.arange(of.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
        sa, sb = a[rows, segs], b[rows, segs]
        check = sa[of] + (k / qs[rows][of])[:, None] * (sb - sa)[of]
        hit = points_in_collision(check, env.map, obstacles, padded=padded)
        hits += np.bincount(rows[of[hit]], minlength=c)
    return hits / (S + (S - 1) * (qs - 1))


def reference_evaluate_paths(mat: np.ndarray, p_i: np.ndarray, p_j: np.ndarray,
                             spline: SplineConfig, weights: LocalCostWeights, env: EnvSnapshot):
    """Costs (m,), clean mask (m,) and a LocalPath builder for a (m, genes) matrix.

    Collision checks subdivide every segment below the map cell size and use
    the dilated coast, so an accepted path cannot clip a coast corner between
    checkpoints.  A row is clean when it does not stall, no checkpoint
    collides and no kinematic limit is exceeded.
    """
    ctrl = _reference_control_points(mat, p_i, p_j, spline)
    pts, diffs, lens, yaw_seg, pitch_seg = _reference_geometry(ctrl, spline)
    yaw, pitch = _pad(yaw_seg), _pad(pitch_seg)
    surge, sway, yaw_rate, times, stalled = _reference_kinematics(pts, diffs, lens, yaw,
                                                                  weights, env)
    qs = np.ceil(lens.max(axis=1) / env.map.grid.cell_size).astype(int)
    violation = _reference_violations(pts, qs, env, padded=True)
    # The clamped basis is exactly 1 at both ends, so every row samples the
    # pinned endpoints bit for bit and shares one chord.
    chord = float(np.linalg.norm(pts[0, -1] - pts[0, 0]))
    costs, excess = _costs(chord, times[:, -1], surge, sway, yaw_rate, stalled, violation,
                           weights)
    clean = ~stalled & (violation <= 0) & (excess.max(axis=1) == 0.0)

    def path_of(i: int) -> LocalPath:
        return LocalPath(points=pts[i], yaw=yaw[i], pitch=pitch[i], surge=surge[i], sway=sway[i],
                         yaw_rate=yaw_rate[i], times=times[i], duration=float(times[i, -1]))

    return costs, clean, path_of


# The field kernel as it stood before the near-pair split: blocks of 512
# points, the core mask, r2_safe and the exp mask built over every pair.  Kept
# verbatim as the exactness reference for `current_grid`.


def reference_current_grid(points: np.ndarray, fld: VortexField) -> np.ndarray:
    """Current velocity (n, 2) at each (n, 2) point; vectorized superposition."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    radii = np.array([v.radius for v in fld.vortices], dtype=float)
    cx = np.array([v.center[0] for v in fld.vortices], dtype=float)
    cy = np.array([v.center[1] for v in fld.vortices], dtype=float)
    strengths = np.array([v.strength for v in fld.vortices], dtype=float)
    radii2, core2 = radii ** 2, (1e-9 * radii) ** 2
    out = np.empty((pts.shape[0], 2))
    for s in range(0, pts.shape[0], 512):
        blk = pts[s:s + 512]
        dx = blk[:, 0:1] - cx  # (b, v)
        dy = blk[:, 1:2] - cy
        r2 = dx * dx + dy * dy
        core = r2 < core2
        r2_safe = np.where(core, 1.0, r2)
        x = -r2_safe / radii2
        damp = 1.0 - np.exp(x, out=np.zeros_like(x), where=x > -40.0)
        coeff = strengths / (2.0 * np.pi * r2_safe) * damp
        coeff[core] = 0.0
        out[s:s + 512, 0] = np.add.reduce(-coeff * dy, axis=1)
        out[s:s + 512, 1] = np.add.reduce(coeff * dx, axis=1)
    return out


# The comm-range rule and the coast dilation as `build_network` and
# `ClusteredMap.padded_occupancy` computed them before the one-pass chord test
# and the separable dilation, kept verbatim as their exactness references.


def _clear_chord(cmap: ClusteredMap, a, b) -> bool:
    """True when the horizontal segment a-b stays over water cells, sampled a cell apart."""
    steps = max(2, int(math.ceil(np.hypot(b[0] - a[0], b[1] - a[1]) / cmap.grid.cell_size)))
    fr = np.linspace(0.0, 1.0, steps)
    chord = np.column_stack((a[0] + fr * (b[0] - a[0]), a[1] + fr * (b[1] - a[1])))
    return not points_in_collision(chord, cmap).any()


def reference_comm_edges(cmap: ClusteredMap, stations: dict[int, Station],
                         comm_range: float) -> frozenset[tuple[int, int]]:
    """The comm-range edge set, one chord test per in-range pair."""
    pos = {sid: st.position for sid, st in stations.items()}
    return frozenset(
        (a, b) for a, b in itertools.combinations(sorted(stations), 2)
        if edge_length(pos[a], pos[b]) <= comm_range
        and _clear_chord(cmap, pos[a], pos[b]))


def reference_padded_occupancy(occupancy: np.ndarray) -> np.ndarray:
    """Occupancy dilated by one cell, one shifted OR per neighbour."""
    occ = occupancy == 1
    padded = occ.copy()
    padded[1:, :] |= occ[:-1, :]
    padded[:-1, :] |= occ[1:, :]
    padded[:, 1:] |= occ[:, :-1]
    padded[:, :-1] |= occ[:, 1:]
    padded[1:, 1:] |= occ[:-1, :-1]
    padded[1:, :-1] |= occ[:-1, 1:]
    padded[:-1, 1:] |= occ[1:, :-1]
    padded[:-1, :-1] |= occ[1:, 1:]
    return padded.astype(np.int8)


# The k-means of `cluster_map` before it dropped the (n, k) distance matrix,
# kept verbatim as the exactness reference: (labels, centers, objective trace).


def reference_cluster_map(raster: GridMap, k: int, max_iters: int = 100):
    """Lloyd iterations from the deterministic quantile init."""
    flat = np.asarray(raster.values, dtype=float).ravel()
    qs = (np.arange(k) + 0.5) / k
    centers = np.quantile(flat, qs)
    if len(np.unique(centers)) < k:
        uniq = np.unique(flat)
        centers = uniq[np.round(np.linspace(0, len(uniq) - 1, k)).astype(int)]
    centers = centers.astype(float)
    trace: list[float] = []
    labels = np.zeros(flat.size, dtype=np.int64)
    for _ in range(max_iters):
        dist = np.abs(flat[:, None] - centers[None, :])
        new_labels = np.argmin(dist, axis=1)
        trace.append(float(np.sum((flat - centers[new_labels]) ** 2)))
        converged = bool(np.array_equal(new_labels, labels)) and len(trace) > 1
        labels = new_labels
        for i in range(k):
            members = flat[labels == i]
            if members.size:
                centers[i] = members.mean()
        if converged:
            break
    return labels, centers, trace


def reference_initial_centers(values: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """`cluster_map`'s quantile init before it read the cumulative counts:
    `np.quantile` over the histogram repeated out to one value per cell."""
    qs = (np.arange(k) + 0.5) / k
    centers = np.quantile(np.repeat(values, counts), qs, overwrite_input=True)
    if len(np.unique(centers)) < k:
        centers = values[np.round(np.linspace(0, len(values) - 1, k)).astype(int)]
    return centers.astype(float)


def kmeans_objective(raster: GridMap, center_trace) -> list[float]:
    """Each iteration's squared-error objective, from the centres it assigned with.

    The labels and the sum over cells in cell order are `reference_cluster_map`'s.
    """
    flat = np.asarray(raster.values, dtype=float).ravel()
    trace = []
    for centers in map(np.asarray, center_trace):
        labels = np.argmin(np.abs(flat[:, None] - centers[None, :]), axis=1)
        trace.append(float(np.sum((flat - centers[labels]) ** 2)))
    return trace


# The raster synthesis before it drew each island over its bounding box alone:
# every disc tested over the whole raster.  Kept verbatim as the exactness
# reference for `synthesize_raster`, values and rng state both.


def reference_synthesize_raster(width: int, height: int, cell_size: float, depth_extent: float,
                                rng: np.random.Generator, islands: int = 5,
                                island_radius: tuple[float, float] = (200.0, 600.0),
                                coast_border: int = 0) -> GridMap:
    """Generate a coastline-style intensity raster: dark water, bright land."""
    if islands <= 0 and coast_border <= 0:
        raise ValueError("synthetic map needs islands or a coast border")
    vals = rng.normal(40.0, 12.0, size=(height, width))
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
        land |= (xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2 <= r * r
    vals[land] = rng.normal(220.0, 12.0, size=int(land.sum()))
    vals = np.clip(np.rint(vals), 0, 255)
    return GridMap(width=width, height=height, cell_size=cell_size, values=vals,
                   depth_extent=depth_extent)


# The obstacle step and the tick advance of the executor before it held the
# obstacles as columns and flew each path in one pass, and the scalar path
# interpolation before `LocalPath.at`, kept as the exactness references for
# `step_obstacles`, `LocalPath.at` and `mission.path_ticks`.


def reference_step_obstacles(obstacles: list[Obstacle], fld: VortexField, dt: float,
                             rng: np.random.Generator) -> list[Obstacle]:
    """One step as one `current_at` and one `rng.normal` call per obstacle, in list order.

    A mobile obstacle's jitter is `normal(0, motion_sigma * |v_c| * sqrt(dt))`.
    """
    out = []
    for obs in obstacles:
        if obs.kind == "static":
            out.append(obs)
        elif obs.kind == "uncertain":
            r = (float(rng.normal(obs.base_radius, obs.radius_sigma)) if obs.radius_sigma > 0
                 else obs.base_radius)
            r = max(r, 1e-6)
            out.append(replace(obs, radius=r, envelope_radius=r))
        else:
            cur = current_at(obs.position[:2], fld)
            scale = obs.motion_sigma * cur.magnitude * math.sqrt(dt)  # Brownian per second
            jitter = rng.normal(0.0, scale, size=2) if scale > 0 else np.zeros(2)
            out.append(replace(obs, position=(obs.position[0] + cur.v_cx * dt + jitter[0],
                                              obs.position[1] + cur.v_cy * dt + jitter[1],
                                              obs.position[2])))
    return out


def reference_position_at_time(path: LocalPath, t: float) -> np.ndarray:
    """Linear interpolation along the sampled polyline at elapsed time t."""
    times = path.times
    if t <= 0:
        return path.points[0].copy()
    if t >= times[-1]:
        return path.points[-1].copy()
    k = int(np.searchsorted(times, t, side="right")) - 1
    dt = times[k + 1] - times[k]
    w = 0.0 if dt <= 0 else (t - times[k]) / dt
    return (1 - w) * path.points[k] + w * path.points[k + 1]


def reference_sample_index_at_time(path: LocalPath, t: float) -> int:
    return min(int(np.searchsorted(path.times, t, side="right")), len(path.times) - 1)


def reference_ticks(path: LocalPath, dt: float) -> list[tuple[float, np.ndarray, int]]:
    """(tau, position, sample index) of each tick, one scalar interpolation per tick."""
    out, tau = [], 0.0
    while True:
        tau = tau + max(min(dt, path.duration - tau), 0.0)
        out.append((tau, reference_position_at_time(path, tau),
                    reference_sample_index_at_time(path, tau)))
        if tau >= path.duration:
            return out


# What `_Executor.run` may give as a failure reason; a plan failure's own text
# comes from `plan_global`.
FAILURE_REASONS = re.compile("|".join((
    r"initial plan failed: .+",
    r"battery exhausted (mid-leg|at station)",
    r"collision during execution",
    r"trapped mid-leg with no retreat path",
    r"replan required \((no feasible local path|route edge missing"
    r"|remaining route exceeds budget)\) beyond limit",
    r"goal cut off from station \d+",
    r"goal \d+ unreachable from station \d+",
    r"minimum route time \d+s exceeds budget -?\d+s",
    r"no decodable route found")))


def check_report(report, sc) -> None:
    """Assert the executor's contract on one mission report of scenario `sc`.

    Ticks run forward and the last is the path time; residual is budget minus
    path time; on success the legs' times sum to the path time and the
    mission ends at the goal; the stations' values sum to the total value;
    no edge is flown twice; global replans stay within the limit; and a
    failure names one reason of `FAILURE_REASONS`.
    """
    budget, path_time = sc.vehicle.time_budget, report.path_time
    times = report.ticks[:, 0]
    assert np.all(np.diff(times) >= 0)
    assert (times[-1] if len(times) else 0.0) == path_time
    assert report.residual_time == budget - path_time
    legs = report.legs
    flown = math.fsum(leg.actual for leg in legs)
    assert flown <= path_time * (1 + 1e-9) + 1e-9
    assert math.isclose(math.fsum(leg.value_gained for leg in legs), report.total_value,
                        rel_tol=1e-12, abs_tol=1e-12)
    edges = [_pair(leg.from_id, leg.to_id) for leg in legs if not leg.aborted]
    assert len(edges) == len(set(edges))
    seq = report.executed_sequence
    assert edges == [_pair(a, b) for a, b in zip(seq, seq[1:])]
    assert report.global_replans <= sc.mission.max_global_replans
    assert report.global_replans == sum(r[1] == "global" for r in report.replans)
    if report.success:
        ns = sc.network
        goal = ns.goal if ns.goal is not None else (
            ns.stations if ns.records is None else max(rec["id"] for rec in ns.records))
        assert seq[0] == ns.start and seq[-1] == goal
        assert report.residual_time >= 0 and report.failure_reason == ""
        assert math.isclose(flown, path_time, rel_tol=1e-9, abs_tol=1e-9)
    else:
        assert FAILURE_REASONS.fullmatch(report.failure_reason), report.failure_reason
