"""Route-level planner: random keys over stations, greedy constrained decoding,
and a time-budget/value cost driving the DE search.

A genome is one key in [0, 1] per station.  Decoding walks the network from
the start, always following the unused edge toward the highest-keyed
neighbor, and diverts onto the minimum-time path to the goal as soon as the
running time estimate (plus that shortest remainder) would overrun the
budget.  Decoded walks never repeat an edge and always terminate.  Only the
walk depends on the keys: `plan_global` builds one `DecodeGraph` (adjacency,
edge lengths, to-goal times) that all its decodes share.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from . import de
from .errors import NoFeasibleRouteError, UndecodableError, UnreachableGoalError
from .network import Network, _pair, shortest_times_to

# Any overtime route must cost more than any on-budget one.  An on-budget cost
# is at most 1 + N (gap <= 1, value term <= N), so the weight is raised to
# N + 2 past 98 stations; up to there it is exactly this constant.
OVERTIME_WEIGHT = 100.0


@dataclass(frozen=True)
class Route:
    """A feasible start-to-goal edge walk with its aggregate metrics."""

    sequence: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    distance: float
    time: float
    total_value: float
    station_total: int  # network size; normalizes the value term of the cost

    @property
    def stations_visited(self) -> int:
        return len(set(self.sequence))


def _dijkstra(adj: dict[int, list[tuple[int, float, tuple[int, int]]]], src: int,
              blocked: set[tuple[int, int]],
              stop: int | None = None) -> tuple[dict[int, float], dict[int, int]]:
    """Times and predecessors from src over the adjacency, minus blocked pairs.

    Popping `stop` ends the search: its time and predecessor chain are final.
    """
    dist = {src: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == stop:
            break
        for v, t, p in adj[u]:
            if p in blocked:
                continue
            nd = d + t
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


@dataclass(frozen=True)
class DecodeGraph:
    """The key-independent part of decoding for one (network, goal, speed)."""

    ids: list[int]  # ascending; keys[i] belongs to station ids[i]
    adj: dict[int, list[tuple[int, float, tuple[int, int]]]]  # (nbr, time, pair), by nbr id
    dist_of: dict[tuple[int, int], float]  # unused edge lengths
    to_goal: dict[int, float]  # minimum time to the goal over unused edges
    goal: int
    speed: float


def decode_graph(network: Network, goal: int, speed: float) -> DecodeGraph:
    ids = sorted(network.stations)
    adj: dict[int, list[tuple[int, float, tuple[int, int]]]] = {sid: [] for sid in ids}
    dist_of: dict[tuple[int, int], float] = {}
    for i, j in network.edges:
        if (i, j) in network.used:
            continue
        pi, pj = network.stations[i].position, network.stations[j].position
        d = math.sqrt((pi[0] - pj[0]) ** 2 + (pi[1] - pj[1]) ** 2 + (pi[2] - pj[2]) ** 2)
        dist_of[(i, j)] = d
        t = d / speed
        adj[i].append((j, t, (i, j)))
        adj[j].append((i, t, (i, j)))
    for lst in adj.values():
        lst.sort()
    return DecodeGraph(ids=ids, adj=adj, dist_of=dist_of,
                       to_goal=_dijkstra(adj, goal, set())[0], goal=goal, speed=speed)


def decode_route(keys: np.ndarray, network: Network, start: int, goal: int,
                 time_budget: float, speed: float,
                 visited: frozenset[int] = frozenset(), *,
                 graph: DecodeGraph | None = None) -> Route:
    """Decode a key vector into a route; raises UndecodableError when cut off.

    `graph` is `decode_graph(network, goal, speed)`, built here if not given.
    The budget check against the remaining shortest path uses its to-goal
    table; edges consumed within the walk are not re-blocked there (the
    overtime penalty absorbs the rare decode this lets slip past the budget).
    A divert searches the edges left only until it settles the goal.
    `visited` stations were collected in earlier legs and add no value.
    """
    if graph is None:
        graph = decode_graph(network, goal, speed)
    elif graph.goal != goal or graph.speed != speed:
        raise ValueError("decode graph was built for another goal or speed")
    adj, dist_of, to_goal = graph.adj, graph.dist_of, graph.to_goal
    key_of = dict(zip(graph.ids, np.asarray(keys, dtype=float).tolist(), strict=True))

    used: set[tuple[int, int]] = set()
    seq = [start]
    elapsed = 0.0
    distance = 0.0

    while seq[-1] != goal:
        cur = seq[-1]
        # Highest key wins; neighbors ascend by id, so the strict '>' keeps
        # the lower id on a tie.
        m = p = None
        for v, _, q in adj[cur]:
            if q not in used and (m is None or key_of[v] > best):
                m, p, best = v, q, key_of[v]
        if m is not None:
            step_d = dist_of[p]
            if elapsed + step_d / speed + to_goal.get(m, math.inf) <= time_budget:
                used.add(p)
                seq.append(m)
                elapsed += step_d / speed
                distance += step_d
                continue
        # Divert: minimum-time path to the goal over what is left.
        dist, prev = _dijkstra(adj, cur, used, stop=goal)
        if goal not in dist:
            raise UndecodableError(f"goal {goal} unreachable from {cur}")
        tail = [goal]
        while tail[-1] != cur:
            tail.append(prev[tail[-1]])
        for nxt in tail[-2::-1]:
            distance += dist_of[_pair(seq[-1], nxt)]
            seq.append(nxt)
        break

    value = 0.0
    seen = set(visited) | {start}
    for b in seq[1:]:
        if b not in seen:
            value += network.stations[b].value
            seen.add(b)
    return Route(sequence=tuple(seq), edges=tuple(map(_pair, seq, seq[1:])), distance=distance,
                 time=distance / speed, total_value=value, station_total=network.size)


def route_cost(route: Route | None, time_budget: float) -> float:
    """Budget-gap plus inverse-value cost; overtime is penalized past feasibility.

    None (undecodable) scores +inf.  The overtime term carries a constant
    floor so that even a marginally overtime route costs more than any
    on-budget route regardless of the value assignment.
    """
    if route is None:
        return math.inf
    return walk_cost(route.time, route.total_value, route.station_total, time_budget)


def walk_cost(time: float, value: float, station_total: int, time_budget: float) -> float:
    """The route cost of any walk taking `time` and collecting `value` on a
    network of `station_total` stations; the executor scores missions with it."""
    gap = abs(time - time_budget) / time_budget
    value_term = station_total / (value + 1.0)
    over = max(0.0, (time - time_budget) / time_budget)
    weight = max(OVERTIME_WEIGHT, station_total + 2.0)
    penalty = weight * (1.0 + over) if over > 0.0 else 0.0
    return gap + value_term + penalty


@dataclass
class GlobalPlan:
    route: Route
    cost: float
    traces: list[list[float]]  # best-cost-per-generation series, one per restart
    genes: np.ndarray


def plan_global(network: Network, start: int, goal: int, time_budget: float, speed: float,
                config: de.DEConfig, rng: np.random.Generator, restarts: int = 3,
                visited: frozenset[int] = frozenset()) -> GlobalPlan:
    """Best route over `restarts` independent DE runs.

    Raises NoFeasibleRouteError when even the minimum-time start-to-goal route
    exceeds the budget.  Decoding is memoized on the ranking of the keys: two
    genomes ordering the stations identically decode to the same route.
    """
    if time_budget <= 0:
        raise ValueError("time_budget must be > 0")
    sp = shortest_times_to(network, goal, speed)
    if start not in sp:
        raise UnreachableGoalError(f"goal {goal} unreachable from station {start}")
    if sp[start] > time_budget:
        raise NoFeasibleRouteError(
            f"minimum route time {sp[start]:.0f}s exceeds budget {time_budget:.0f}s")

    n = network.size
    graph = decode_graph(network, goal, speed)
    cache: dict[tuple[int, ...], Route | None] = {}

    def evaluate(mat: np.ndarray) -> tuple[np.ndarray, list]:
        # Stable descending order equals the decode's (key desc, id asc)
        # preference exactly, ties included, so equal orderings share a route.
        orders = np.argsort(-mat, axis=1, kind="stable")
        costs = np.empty(mat.shape[0])
        auxes: list = [None] * mat.shape[0]
        for i in range(mat.shape[0]):
            okey = tuple(orders[i].tolist())
            if okey in cache:
                route = cache[okey]
            else:
                try:
                    route = decode_route(mat[i], network, start, goal, time_budget,
                                         speed, visited, graph=graph)
                except UndecodableError:
                    route = None
                cache[okey] = route
            auxes[i] = route
            costs[i] = route_cost(route, time_budget)
        return costs, auxes

    seeds = rng.integers(0, 2**63 - 1, size=restarts)
    bounded = replace(config, lower=np.zeros(n), upper=np.ones(n))

    best_result: de.DEResult | None = None
    traces: list[list[float]] = []
    for r in range(restarts):
        result = de.optimize(evaluate, bounded, np.random.default_rng(int(seeds[r])))
        traces.append(result.trace)
        if best_result is None or result.best.cost < best_result.best.cost:
            best_result = result

    route = best_result.best.aux
    if route is None:
        raise NoFeasibleRouteError("no decodable route found")
    return GlobalPlan(route=route, cost=best_result.best.cost, traces=traces,
                      genes=best_result.best.genes)
