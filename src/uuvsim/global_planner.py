"""Route-level planner: random keys over stations, greedy constrained decoding,
and a time-budget/value cost driving the DE search.

A genome is one key in [0, 1] per station.  Decoding walks the network from
the start, always following the unused edge toward the highest-keyed
neighbor, and diverts onto the minimum-time path to the goal as soon as the
running time estimate (plus that shortest remainder) would overrun the
budget.  Decoded walks never repeat an edge and always terminate.  Only the
walk depends on the keys: `plan_global` builds one `DecodeGraph` (the
network's shared adjacency, its to-goal times, and a walk view of the same
edges carrying key indexes and those times) that all its decodes share and
whose to-goal times also decide feasibility.  Many genomes stop their walk
at the same station sequence, so the graph also memoizes, for its life (one
`plan_global` call), each distinct walk's completion (divert and `Route`;
the frozen `Route`s may be shared between decodes) and each stop station's
unblocked shortest path to the goal, the divert of any walk that missed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import de
from .errors import NoFeasibleRouteError, UndecodableError, UnreachableGoalError
from .network import Arc, Network, _pair, adjacency, dijkstra, shortest_times_to

# Any overtime route must cost more than any on-budget one.  An on-budget cost
# is at most 1 + N (gap <= 1, value term <= N), so the weight is raised to
# N + 2 past 98 stations; up to there it is exactly this constant.
OVERTIME_WEIGHT = 100.0

# A plan given seed genes (a warm-started replan) stops after this many
# generations in a row without a new best.  Replans settle early; initial
# plans, which take no seed genes, keep their full generations because they
# still improve late.
REPLAN_STALL = 20


@dataclass(frozen=True)
class Route:
    """A feasible start-to-goal edge walk with its aggregate metrics."""

    sequence: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    distance: float
    time: float
    total_value: float

    @property
    def stations_visited(self) -> int:
        return len(set(self.sequence))


# One walk entry: (neighbor id, neighbor key index, edge id, edge time,
# edge length, the neighbor's minimum time to the goal over unused edges).
_Entry = tuple[int, int, int, float, float, float]


@dataclass(frozen=True, eq=False)
class DecodeGraph:
    """The key-independent part of decoding for one (network, goal, speed).

    `memo` maps a stopped greedy walk and the `visited` set,
    `(tuple(walk), visited)`, to the walk's completion: its `Route`, or the
    `UndecodableError` text when the goal is cut off.  Once the walk stops,
    only the walk, `visited` and this graph decide the divert and the route,
    so an entry is exact for any keys and budget that reach that walk.  The
    memo lives as long as the graph, one `plan_global` call, and holds at
    most one entry per decode; decodes ending in the same walk return the
    same (frozen) `Route` object.  `chains` holds each stop station's
    `_goal_chain` with nothing blocked.
    """

    goal: int
    speed: float
    adj: dict[int, list[Arc]]  # the network's shared adjacency, searched by the divert
    walk_adj: dict[int, list[_Entry]]  # the same edges, as the greedy walk reads them
    to_goal: dict[int, float]  # minimum time to the goal; cut-off stations absent
    values: dict[int, float]  # station id -> value
    memo: dict[tuple[tuple[int, ...], frozenset[int]], Route | str] = field(
        default_factory=dict, repr=False)
    chains: dict[int, tuple[list[tuple[int, int, float]], frozenset[int]]] = field(
        default_factory=dict, repr=False)


def decode_graph(network: Network, goal: int, speed: float) -> DecodeGraph:
    adj = adjacency(network, speed)
    to_goal = shortest_times_to(network, goal, speed)
    # keys[k] belongs to the k-th smallest station id
    index = {sid: k for k, sid in enumerate(sorted(network.stations))}
    walk_adj = {sid: [(v, index[v], e, t, d, to_goal.get(v, math.inf)) for v, e, t, d in lst]
                for sid, lst in adj.items()}
    return DecodeGraph(goal=goal, speed=speed, adj=adj, walk_adj=walk_adj, to_goal=to_goal,
                       values={sid: st.value for sid, st in network.stations.items()})


def decode_route(keys: np.ndarray, graph: DecodeGraph, start: int, time_budget: float,
                 visited: frozenset[int] = frozenset()) -> Route:
    """Decode a key vector into a route to `graph.goal`; raises UndecodableError
    when cut off.

    The budget check against the remaining shortest path uses the graph's
    to-goal times; edges consumed within the walk are not re-blocked there
    (the overtime penalty absorbs the rare decode this lets slip past the
    budget).  The greedy walk runs for every call; the
    divert, which searches the edges left only until it settles the goal,
    and the route build run once per distinct walk through the graph's memo.
    `visited` stations were collected in earlier legs and add no value.
    """
    walk_adj, goal = graph.walk_adj, graph.goal
    key_at = np.asarray(keys, dtype=float).tolist()
    if len(key_at) != len(walk_adj):
        raise ValueError(f"{len(key_at)} keys for {len(walk_adj)} stations")

    used: set[int] = set()
    seq = [start]
    cur = start
    elapsed = 0.0
    distance = 0.0
    while cur != goal:
        # Highest key wins; neighbors ascend by id, so the strict '>' keeps
        # the lower id on a tie.
        best = None
        for ent in walk_adj[cur]:
            if ent[2] not in used and (best is None or key_at[ent[1]] > top):
                best, top = ent, key_at[ent[1]]
        if best is None:
            break
        m, _, e, t, d, to_goal = best
        if not (elapsed + t + to_goal <= time_budget):  # a NaN budget diverts too
            break
        used.add(e)
        seq.append(m)
        cur = m
        elapsed += t
        distance += d

    memo_key = (tuple(seq), visited)
    done = graph.memo.get(memo_key)
    if done is None:
        done = graph.memo[memo_key] = _complete(graph, seq, used, distance, visited)
    if isinstance(done, str):
        raise UndecodableError(done)
    return done


def _complete(graph: DecodeGraph, seq: list[int], used: set[int], distance: float,
              visited: frozenset[int]) -> Route | str:
    """The route that finishes a stopped walk (`distance` long so far), or
    why the goal is cut off."""
    goal, cur, values = graph.goal, seq[-1], graph.values
    if cur != goal:
        # Divert: minimum-time path to the goal over what is left.  Blocking can
        # only raise times and pops go by (time, id), so when the walk used none
        # of the unblocked chain's edges, the blocked search returns that chain.
        chain = graph.chains.get(cur)
        if chain is None:
            chain = graph.chains[cur] = _goal_chain(graph.adj, cur, goal, frozenset())
        steps, edges = chain
        if not edges.isdisjoint(used):
            steps = _goal_chain(graph.adj, cur, goal, used)[0]
        if not steps:
            return f"goal {goal} unreachable from {cur}"
        for v, _, d in steps:
            seq.append(v)
            distance += d

    value = 0.0
    seen = set(visited) | {seq[0]}
    for b in seq[1:]:
        if b not in seen:
            value += values[b]
            seen.add(b)
    return Route(sequence=tuple(seq), edges=tuple(map(_pair, seq, seq[1:])), distance=distance,
                 time=distance / graph.speed, total_value=value)


def _goal_chain(adj: dict[int, list[Arc]], src: int, goal: int, blocked: set[int] | frozenset[int]
                ) -> tuple[list[tuple[int, int, float]], frozenset[int]]:
    """`dijkstra`'s path from `src` to `goal` as (station, edge id, edge length)
    steps after `src`, none when the goal is cut off, and the path's edge ids."""
    prev = dijkstra(adj, src, blocked, stop=goal)[1]
    steps, v = [], goal
    while v in prev:  # `src` never enters `prev`
        u, e, d = prev[v]
        steps.append((v, e, d))
        v = u
    return steps[::-1], frozenset(e for _, e, _ in steps)


def walk_cost(time: float, value: float, n_stations: int, time_budget: float) -> float:
    """Budget-gap plus inverse-value cost of any walk taking `time` and
    collecting `value` on a network of `n_stations` stations; the route
    DE and the executor's mission score both use it.

    The overtime term carries a constant floor so that even a marginally
    overtime route costs more than any on-budget route regardless of the
    value assignment.
    """
    gap = abs(time - time_budget) / time_budget
    value_term = n_stations / (value + 1.0)
    over = max(0.0, (time - time_budget) / time_budget)
    weight = max(OVERTIME_WEIGHT, n_stations + 2.0)
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
                visited: frozenset[int] = frozenset(),
                seed_genes: Sequence[np.ndarray] = ()) -> GlobalPlan:
    """Best route over `restarts` independent DE runs.

    `seed_genes` (a warm start, such as the replaced plan's genes) enter
    generation 0 of every restart, so the plan never costs more than their
    decode, and each restart then stops after `REPLAN_STALL` generations
    without a new best.  Raises NoFeasibleRouteError when even the
    minimum-time start-to-goal route exceeds the budget.  Decoding is
    memoized on the ranking of the keys: two genomes ordering the stations
    identically decode to the same route.
    """
    if not (isinstance(restarts, int) and restarts >= 1):
        raise ValueError("restarts must be an int >= 1")
    if not (math.isfinite(time_budget) and time_budget > 0 and math.isfinite(speed) and speed > 0):
        raise ValueError("time_budget and speed must be finite and > 0")
    graph = decode_graph(network, goal, speed)
    if start not in graph.to_goal:
        raise UnreachableGoalError(f"goal {goal} unreachable from station {start}")
    if graph.to_goal[start] > time_budget:
        # Rounded away from each other, so the two numbers never read equal.
        raise NoFeasibleRouteError(f"minimum route time {math.ceil(graph.to_goal[start])}s "
                                   f"exceeds budget {math.floor(time_budget)}s")

    n = network.size
    cache: dict[bytes, Route | None] = {}

    def evaluate(mat: np.ndarray) -> np.ndarray:
        # Stable descending order equals the decode's (key desc, id asc)
        # preference exactly, ties included, so equal orderings share a route.
        orders = np.argsort(-mat, axis=1, kind="stable")
        costs = np.empty(mat.shape[0])
        for i in range(mat.shape[0]):
            okey = orders[i].tobytes()
            if okey in cache:
                route = cache[okey]
            else:
                try:
                    route = decode_route(mat[i], graph, start, time_budget, visited)
                except UndecodableError:
                    route = None
                cache[okey] = route
            costs[i] = (math.inf if route is None
                        else walk_cost(route.time, route.total_value, n, time_budget))
        return costs

    seeds = rng.integers(0, 2**63 - 1, size=restarts)
    if len(seed_genes):
        config = replace(config, stall=REPLAN_STALL)

    best_result: de.DEResult | None = None
    traces: list[list[float]] = []
    for r in range(restarts):
        result = de.optimize(evaluate, config, np.zeros(n), np.ones(n),
                             np.random.default_rng(int(seeds[r])), seed_genes)
        traces.append(result.trace)
        if best_result is None or result.best.cost < best_result.best.cost:
            best_result = result

    # Every genome the DE returns was evaluated, so its ordering is cached.
    best = best_result.best
    route = cache[np.argsort(-best.genes, kind="stable").tobytes()]
    if route is None:
        raise NoFeasibleRouteError("no decodable route found")
    return GlobalPlan(route=route, cost=best.cost, traces=traces, genes=best.genes)
