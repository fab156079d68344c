"""Independent reference computations used by several test modules."""

from __future__ import annotations

import heapq
import math

import numpy as np

from uuvsim.env import EnvSnapshot, GridMap, VortexField, points_in_collision
from uuvsim.errors import UndecodableError
from uuvsim.global_planner import Route
from uuvsim.network import Network, _pair


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
                 time=distance / speed, total_value=value, station_total=network.size)


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
