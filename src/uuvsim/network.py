"""Deforming sensor network: stations, adjacency, drift and edge bookkeeping.

The station set is fixed for a mission; only positions (drifting stations)
and edge `used` flags change.  Snapshots are immutable: drift and consume
return new Network values, so planners always see a consistent world.  One
`edge_length`, one `adjacency` and one `dijkstra` serve every distance,
reachability and shortest-time question, the global planner's included.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Container
from dataclasses import dataclass, replace

import numpy as np

from .env import ClusteredMap, VortexField, current_at, point_in_collision, points_in_collision
from .errors import (AlreadyUsedError, CoastalPlacementError, NoSuchEdgeError,
                     UnreachableGoalError)

# Rejection-resampling budget for one drift event before a station holds still.
_DRIFT_ATTEMPTS = 100
# Random station placements tried before the goal is declared unreachable.
_BUILD_ATTEMPTS = 20
# Comm chords are tested in blocks of at most this many samples (or one longer
# chord), ~100 bytes of temporaries each: a 40-station `paper_baseline`
# network (50,000 samples) takes one block, and the memory of a large network's
# build stays bounded.
_CHORD_SAMPLES = 1 << 17


@dataclass(frozen=True)
class Station:
    id: int
    position: tuple[float, float, float]
    kind: str  # 'fixed' or 'drifting'
    value: float = 0.0
    drift_bound: tuple[float, float, float] = (0.0, 0.0, 0.0)
    drift_sigma: float = 0.0


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Network:
    """Immutable network snapshot.

    `edges` holds every undirected pair ever defined; `used` the consumed
    subset.  `anchors` keeps the original positions that bound drift.
    """

    stations: dict[int, Station]
    edges: frozenset[tuple[int, int]]
    start_id: int
    goal_id: int
    anchors: dict[int, tuple[float, float, float]]
    used: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        for sid in (self.start_id, self.goal_id):
            if sid not in self.stations:
                raise ValueError(f"station {sid} not defined")
            if self.stations[sid].kind != "fixed":
                raise ValueError("start and goal stations must be fixed")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self edge on station {i}")
            if i not in self.stations or j not in self.stations:
                raise ValueError(f"edge ({i},{j}) references missing station")

    @property
    def size(self) -> int:
        return len(self.stations)

    def position(self, sid: int) -> np.ndarray:
        return np.asarray(self.stations[sid].position, dtype=float)

    def has_edge(self, i: int, j: int) -> bool:
        return _pair(i, j) in self.edges

    def is_used(self, i: int, j: int) -> bool:
        return _pair(i, j) in self.used

    def goal_reachable(self, from_id: int | None = None) -> bool:
        """Whether unused edges join `from_id` (default: start) to the goal."""
        src = self.start_id if from_id is None else from_id
        return src in shortest_times_to(self, self.goal_id, 1.0)


def edge_length(p, q) -> float:
    """Euclidean distance between two positions: the one length of an edge."""
    return math.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2)


Arc = tuple[int, int, float, float]  # (neighbor id, edge id, edge time, edge length)


def _check_speed(speed: float) -> None:
    """The one rule for a speed that turns edge lengths into times; a negative
    one would give `dijkstra` negative cycles."""
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"speed must be finite and > 0, got {speed!r}")


def adjacency(network: Network, speed: float) -> dict[int, list[Arc]]:
    """Each station's unused edges as `Arc`s, ascending by neighbor id.  Edge
    ids number this snapshot's unused edges; `dijkstra` blocks sets of them."""
    _check_speed(speed)
    adj: dict[int, list[Arc]] = {sid: [] for sid in network.stations}
    for e, (i, j) in enumerate(network.edges - network.used):
        d = edge_length(network.stations[i].position, network.stations[j].position)
        t = d / speed
        adj[i].append((j, e, t, d))
        adj[j].append((i, e, t, d))
    for lst in adj.values():
        lst.sort()
    return adj


def dijkstra(adj: dict[int, list[Arc]], src: int, blocked: Container[int] = (),
             stop: int | None = None) -> tuple[dict[int, float], dict[int, tuple[int, int, float]]]:
    """Times from src over `adj` minus the `blocked` edge ids, and each reached
    station's predecessor with the edge id and length.  Popping `stop` ends the
    search; heap entries are (time, station id), so ties pop by id."""
    dist = {src: 0.0}
    prev: dict[int, tuple[int, int, float]] = {}
    heap = [(0.0, src)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist.get(u, math.inf):
            continue
        if u == stop:
            break
        for v, e, t, d in adj[u]:
            if e in blocked:
                continue
            nd = du + t
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = (u, e, d)
                heapq.heappush(heap, (nd, v))
    return dist, prev


def edge_metrics(network: Network, i: int, j: int, speed: float) -> tuple[float, float]:
    """(distance m, traversal time s) for edge (i, j) at the current positions."""
    if not network.has_edge(i, j):
        raise NoSuchEdgeError(f"no edge between stations {i} and {j}")
    _check_speed(speed)
    d = edge_length(network.stations[i].position, network.stations[j].position)
    return d, d / speed


def consume_edge(network: Network, i: int, j: int) -> Network:
    """Mark edge (i, j) used; used edges never appear in later route decoding."""
    p = _pair(i, j)
    if p not in network.edges:
        raise NoSuchEdgeError(f"no edge between stations {i} and {j}")
    if p in network.used:
        raise AlreadyUsedError(f"edge ({i},{j}) already consumed")
    return replace(network, used=network.used | {p})


def shortest_times_to(network: Network, target: int, speed: float) -> dict[int, float]:
    """Minimum traversal time over unused edges from every station that can
    reach `target`; stations cut off from it are absent."""
    return dijkstra(adjacency(network, speed), target)[0]


def drift_stations(network: Network, fld: VortexField, cmap: ClusteredMap,
                   rng: np.random.Generator) -> Network:
    """One drift event: every drifting station jitters and rides the current.

    Per-axis jitter ~ N(0, sigma^2) plus the horizontal current vector at the
    station; the combined move is rejection-resampled until the new position
    stays inside the per-axis bound box around the anchor and passes the
    padded point rule, as a generated station does.
    After 100 failed attempts the station holds its position.  Fixed stations
    are returned unchanged.  Stations are processed in id order so a single
    rng stream reproduces exactly.
    """
    new_stations = dict(network.stations)
    for sid in sorted(network.stations):
        st = network.stations[sid]
        if st.kind != "drifting":
            continue
        anchor = np.asarray(network.anchors[sid], dtype=float)
        pos = np.asarray(st.position, dtype=float)
        cur = current_at(pos[:2], fld)
        drift = np.array([cur.v_cx, cur.v_cy, 0.0])
        bound = np.asarray(st.drift_bound, dtype=float)
        for _ in range(_DRIFT_ATTEMPTS):
            jitter = rng.normal(0.0, st.drift_sigma, size=3) if st.drift_sigma > 0 else np.zeros(3)
            cand = pos + jitter + drift
            if np.any(np.abs(cand - anchor) > bound) or point_in_collision(cand, cmap, padded=True):
                continue
            new_stations[sid] = replace(st, position=(float(cand[0]), float(cand[1]), float(cand[2])))
            break
    return replace(network, stations=new_stations)


def build_network(cmap: ClusteredMap, rng: np.random.Generator, *,
                  station_count: int | None = None,
                  records: list[dict] | None = None,
                  start: int = 1, goal: int | None = None,
                  value_range: tuple[int, int] = (1, 5),
                  drifting_fraction: float = 0.5,
                  drift_bound: tuple[float, float, float] = (300.0, 300.0, 50.0),
                  drift_sigma: float = 40.0,
                  comm_range: float | None = 3500.0,
                  explicit_edges: list[tuple[int, int]] | None = None) -> Network:
    """Build a network from explicit records or a random recipe.

    Random stations are uniform over the water volume (resampled off the
    coast); adjacency is either the explicit edge list or the comm-range rule:
    stations at most `comm_range` apart whose horizontal chord stays over water
    cells.  A chord of length L is sampled at max(2, ceil(L / cell_size))
    fractions, those of `np.linspace(0, 1, steps)`: k * (1 / (steps - 1)), the
    last exactly 1.  The chords of many pairs are tested together, one
    `points_in_collision` call per block of at most `_CHORD_SAMPLES` samples,
    and the edge set is built in `combinations` order over the sorted ids,
    the order `adjacency` numbers edge ids by.  Every station,
    explicit or random, passes the padded point rule: on water a cell clear of
    the coast, so every path endpoint clears the planners' conservative coast
    band, and inside the depth range.  Raises CoastalPlacementError for an
    explicit position that fails it and UnreachableGoalError when no placement
    attempt connects start to goal.  Only a random station under the
    comm-range rule can change the edges, so only then is a placement retried,
    up to `_BUILD_ATTEMPTS` times; otherwise one attempt decides.
    """
    extent = cmap.grid.extent

    def sample_water_point() -> tuple[float, float, float]:
        for _ in range(10_000):
            x = rng.uniform(0.0, extent[0])
            y = rng.uniform(0.0, extent[1])
            if not point_in_collision((x, y), cmap, padded=True):
                return x, y, float(rng.uniform(0.0, cmap.grid.depth_extent))
        raise CoastalPlacementError("could not sample a water cell; map has no water?")

    any_random = records is None or any(r.get("position") in (None, "random") for r in records)
    attempts = _BUILD_ATTEMPTS if explicit_edges is None and any_random else 1
    for _ in range(attempts):
        stations: dict[int, Station] = {}
        if records is not None:
            for rec in records:
                rec = {key: v for key, v in rec.items() if v is not None}  # null reads as absent
                sid = int(rec["id"])
                if rec.get("position") in (None, "random"):
                    pos = sample_water_point()
                else:
                    pos = tuple(float(c) for c in rec["position"])
                    if len(pos) != 3 or point_in_collision(pos, cmap, padded=True):
                        raise CoastalPlacementError(f"station {sid} at {pos} is not (x, y, z) on "
                                                    "water a cell from the coast, in depth range")
                stations[sid] = Station(
                    id=sid, position=pos, kind=rec.get("kind", "fixed"),
                    value=float(rec.get("value", 0)),
                    drift_bound=tuple(rec.get("drift_bound", drift_bound)),
                    drift_sigma=float(rec.get("drift_sigma", drift_sigma)))
            goal_id = goal if goal is not None else max(stations)
        else:
            n = int(station_count)
            goal_id = goal if goal is not None else n
            ids = list(range(1, n + 1))
            n_drift = int(round(drifting_fraction * (n - 2)))
            drifter_ids = set(rng.choice([i for i in ids if i not in (start, goal_id)],
                                         size=n_drift, replace=False).tolist()) if n_drift else set()
            for sid in ids:
                stations[sid] = Station(
                    id=sid, position=sample_water_point(),
                    kind="drifting" if sid in drifter_ids else "fixed",
                    value=float(rng.integers(value_range[0], value_range[1] + 1)),
                    drift_bound=drift_bound, drift_sigma=drift_sigma)

        if explicit_edges is not None:
            edges = frozenset(_pair(int(i), int(j)) for i, j in explicit_edges)
        else:
            pos = {sid: st.position for sid, st in stations.items()}
            pairs = [(a, b) for a, b in itertools.combinations(sorted(stations), 2)
                     if edge_length(pos[a], pos[b]) <= comm_range]
            ends = np.array([(pos[a][:2], pos[b][:2]) for a, b in pairs]).reshape(-1, 2, 2)
            origin, d = ends[:, 0], ends[:, 1] - ends[:, 0]
            steps = np.maximum(2, np.ceil(np.hypot(d[:, 0], d[:, 1]) / cmap.grid.cell_size)
                               .astype(np.int64))
            per_block = max(1, _CHORD_SAMPLES // int(steps.max(initial=2)))
            blocked = []
            for lo in range(0, len(pairs), per_block):
                block = slice(lo, lo + per_block)
                n = steps[block]
                first = np.cumsum(n) - n
                fr = (np.arange(n.sum()) - np.repeat(first, n)) * np.repeat(1.0 / (n - 1), n)
                fr[first + n - 1] = 1.0
                chords = (np.repeat(origin[block], n, axis=0)
                          + fr[:, None] * np.repeat(d[block], n, axis=0))
                blocked += np.logical_or.reduceat(points_in_collision(chords, cmap), first).tolist()
            edges = frozenset(pair for pair, bad in zip(pairs, blocked) if not bad)

        net = Network(stations=stations, edges=edges, start_id=start, goal_id=goal_id,
                      anchors={sid: st.position for sid, st in stations.items()})
        if net.goal_reachable():
            return net
    raise UnreachableGoalError(f"goal {goal_id} not reachable from start {start}")
