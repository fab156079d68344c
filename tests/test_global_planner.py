import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uuvsim.global_planner as gp
from uuvsim.de import DEConfig
from uuvsim.errors import NoFeasibleRouteError, UndecodableError
from uuvsim.global_planner import (REPLAN_STALL, Route, decode_graph, decode_route, plan_global,
                                   walk_cost)
from uuvsim.network import consume_edge
from tests.oracles import best_walk_cost, reference_decode_route
from tests.oracles import walk_cost as reference_walk_cost
from tests.test_network import line_network


def keys_for(net, mapping):
    ids = sorted(net.stations)
    return np.array([mapping.get(sid, 0.0) for sid in ids])


def decode(keys, net, start, goal, time_budget, speed, visited=frozenset()):
    """`decode_route` through a fresh graph of `net`, called as the reference decoder is."""
    return decode_route(keys, decode_graph(net, goal, speed), start, time_budget, visited)


def triangle(values=(0, 5, 1)):
    # right triangle: 1 at origin, 2 north, 3 east; direct 1-3 is 400 m
    return line_network([(0, 0, 0), (0, 300, 0), (400, 0, 0)],
                        [(1, 2), (2, 3), (1, 3)], values=list(values))


def test_decode_forced_line_topology():
    net = line_network([(0, 0, 0), (100, 0, 0), (200, 0, 0)], [(1, 2), (2, 3)])
    for keyset in ({2: 0.9, 3: 0.1}, {2: 0.1, 3: 0.9}):
        route = decode(keys_for(net, keyset), net, 1, 3, time_budget=1e6, speed=2.0)
        assert route.sequence == (1, 2, 3)


def test_decode_triangle_prefers_high_key_detour():
    net = triangle()
    route = decode(keys_for(net, {2: 0.9, 3: 0.1}), net, 1, 3,
                         time_budget=1e6, speed=1.0)
    assert route.sequence == (1, 2, 3)
    assert route.distance == pytest.approx(300 + 500)


def test_decode_triangle_diverts_under_tight_budget():
    net = triangle()
    # budget only covers the direct 400 m edge at 1 m/s (plus a sliver)
    route = decode(keys_for(net, {2: 0.9, 3: 0.1}), net, 1, 3,
                         time_budget=450.0, speed=1.0)
    assert route.sequence == (1, 3)
    assert route.time == pytest.approx(400.0)


def test_decode_never_reuses_edges_and_terminates_at_goal():
    rng = np.random.default_rng(11)
    positions = rng.uniform(0, 4000, size=(9, 3))
    edges = [(i, j) for i in range(1, 10) for j in range(i + 1, 10) if rng.random() < 0.5]
    edges += [(1, 9)]
    net = line_network(positions, edges, start=1, goal=9,
                       values=list(rng.integers(1, 6, 9).astype(float)))
    for _ in range(300):
        keys = rng.random(9)
        route = decode(keys, net, 1, 9, time_budget=6000.0, speed=2.0)
        assert route.sequence[0] == 1 and route.sequence[-1] == 9
        assert len(set(route.edges)) == len(route.edges)
        for a, b in route.edges:
            assert net.has_edge(a, b) and not net.is_used(a, b)


def test_decode_is_pure():
    net = triangle()
    keys = np.array([0.3, 0.8, 0.2])
    a = decode(keys, net, 1, 3, 1e5, 1.5)
    b = decode(keys, net, 1, 3, 1e5, 1.5)
    assert a == b


def test_decode_skips_consumed_edges():
    net = consume_edge(triangle(), 1, 2)
    route = decode(keys_for(net, {2: 0.99, 3: 0.01}), net, 1, 3, 1e6, 1.0)
    assert (1, 2) not in route.edges


def test_decode_raises_when_cut_off():
    net = consume_edge(consume_edge(triangle(), 1, 3), 2, 3)
    with pytest.raises(UndecodableError):
        decode(keys_for(net, {2: 0.5, 3: 0.5}), net, 1, 3, 1e6, 1.0)


def test_decode_visited_stations_carry_no_value():
    net = triangle(values=(0, 5, 1))
    keys = keys_for(net, {2: 0.9, 3: 0.1})
    fresh = decode(keys, net, 1, 3, 1e6, 1.0)
    replay = decode(keys, net, 1, 3, 1e6, 1.0, visited=frozenset({2}))
    assert fresh.total_value == 6.0 and replay.total_value == 1.0


@st.composite
def decode_networks(draw):
    """A random network of 2-12 stations with some edges consumed.

    Positions sit mostly on a coarse lattice, so equal edge times and equal
    path times are common.
    """
    n = draw(st.integers(2, 12))
    lattice = st.tuples(*[st.integers(0, 4).map(lambda c: 500.0 * c)] * 3)
    exact = st.tuples(*[st.floats(0.0, 4000.0)] * 3)
    positions = draw(st.lists(st.one_of(lattice, exact), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = [pr for pr in pairs if draw(st.booleans())]
    values = draw(st.lists(st.integers(0, 5).map(float), min_size=n, max_size=n))
    net = line_network(positions, edges, start=1, goal=n, values=values)
    for pr in edges:
        if draw(st.integers(0, 4)) == 0:
            net = consume_edge(net, *pr)
    return net


@st.composite
def decode_cases(draw):
    """A `decode_networks` network plus one decode's arguments.

    Keys come partly from a three-value set, so tied keys are common.
    """
    net = draw(decode_networks())
    n = net.size
    ids = st.integers(1, n)
    key = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    keys = np.array(draw(st.lists(key, min_size=n, max_size=n)))
    speed = draw(st.sampled_from([0.5, 1.0, 2.2]))
    budget = draw(st.floats(1.0, 30_000.0))
    visited = frozenset(draw(st.lists(ids, max_size=n)))
    return keys, net, draw(ids), draw(ids), budget, speed, visited


def decode_outcome(decode, *args, **kwargs):
    try:
        return dataclasses.astuple(decode(*args, **kwargs))
    except UndecodableError as err:
        return ("UndecodableError", str(err))


@settings(max_examples=400, deadline=None)
@given(case=decode_cases())
def test_decode_matches_reference_decoder(case):
    keys, net, start, goal, budget, speed, visited = case
    ref = decode_outcome(reference_decode_route, keys, net, start, goal, budget, speed, visited)
    assert decode_outcome(decode, keys, net, start, goal, budget, speed, visited) == ref
    if ref[0] == "UndecodableError":
        return
    route = Route(*ref)
    assert route.sequence[0] == start and route.sequence[-1] == goal
    assert route.edges == tuple((min(a, b), max(a, b))
                                for a, b in zip(route.sequence, route.sequence[1:]))
    assert len(set(route.edges)) == len(route.edges)
    for a, b in route.edges:
        assert net.has_edge(a, b) and not net.is_used(a, b)


def divert_square():
    # 1 -> 2 -> 4 is the short way; 3 hangs off 2, and 3 -> 5 -> 4 is its
    # way to the goal that avoids the edge 2-3.
    return line_network([(0, 0, 0), (100, 0, 0), (100, 100, 0), (200, 0, 0), (200, 200, 0)],
                        [(1, 2), (2, 3), (2, 4), (3, 5), (5, 4)], values=[0, 1, 2, 3, 4])


def recording_dijkstra(monkeypatch):
    """Patch the planner's `dijkstra`; return the list of (source, blocked?) calls."""
    calls, dijkstra = [], gp.dijkstra

    def recorded(adj, src, blocked=frozenset(), stop=None):
        calls.append((src, bool(blocked)))
        return dijkstra(adj, src, blocked, stop)

    monkeypatch.setattr(gp, "dijkstra", recorded)
    return calls


@pytest.mark.parametrize("budget, stop, calls", [
    # The walk stops at 2, whose shortest way on, 2-4, the walk did not use.
    (350.0, (1, 2, 4), [(2, False)]),
    # The walk stops at 3, whose shortest way on runs back over 2-3: search again.
    (450.0, (1, 2, 3, 5, 4), [(3, False), (3, True)]),
])
def test_divert_reuses_the_goal_chain_unless_the_walk_cut_it(monkeypatch, budget, stop, calls):
    net = divert_square()
    keys = keys_for(net, {2: 0.9, 3: 0.8, 4: 0.1, 5: 0.5})
    args = (keys, net, 1, 4, budget, 1.0)
    ref = decode_outcome(reference_decode_route, *args)
    recorded = recording_dijkstra(monkeypatch)
    assert decode_outcome(decode, *args) == ref
    assert ref[0] == stop and recorded == calls


def test_plan_searches_unblocked_once_per_stop_station(monkeypatch):
    # Each plan keeps one unblocked chain per stop station; the other
    # searches are diverts whose walk cut that chain.
    rng = np.random.default_rng(5)
    positions = rng.uniform(0, 3000, size=(12, 3))
    edges = [(i, j) for i in range(1, 13) for j in range(i + 1, 13) if rng.random() < 0.5]
    net = line_network(positions, edges, start=1, goal=12,
                       values=list(rng.integers(1, 6, 12).astype(float)))
    budget = 4.0 * float(np.linalg.norm(positions[0] - positions[11]))
    calls = recording_dijkstra(monkeypatch)
    for plan in range(2):
        first = len(calls)
        plan_global(net, 1, 12, budget, 1.0, de_cfg(pop=16, gens=20), restarts=2,
                    rng=np.random.default_rng(plan))
        unblocked = [src for src, blocked in calls[first:] if not blocked]
        assert len(unblocked) == len(set(unblocked)) > 1
        assert len(calls) - first > len(unblocked)


def tied_keys(rng, n):
    """Keys drawn mostly from {0, 0.5, 1}, so many genomes share a walk."""
    return np.where(rng.random(n) < 0.8, rng.choice([0.0, 0.5, 1.0], n), rng.random(n))


@settings(max_examples=60, deadline=None)
@given(net=decode_networks(), goal_draw=st.integers(0, 11),
       speed=st.sampled_from([0.5, 1.0, 2.2]), seed=st.integers(0, 2**32 - 1))
def test_warm_decode_graph_matches_reference_decoder(net, goal_draw, speed, seed):
    # One graph serves 240 decodes, so its memo is warm: the same walk is
    # reached from other keys, under other budgets and with other visited sets.
    n = net.size
    goal = goal_draw % n + 1
    graph = decode_graph(net, goal, speed)
    rng = np.random.default_rng(seed)
    budgets = rng.uniform(1.0, 30_000.0, size=3)
    visiteds = [frozenset(), frozenset(rng.integers(1, n + 1, size=n // 2).tolist()),
                frozenset(range(1, n + 1))]
    for _ in range(240):
        keys, start = tied_keys(rng, n), int(rng.integers(1, n + 1))
        budget, visited = float(budgets[rng.integers(3)]), visiteds[rng.integers(3)]
        assert (decode_outcome(decode_route, keys, graph, start, budget, visited)
                == decode_outcome(reference_decode_route, keys, net, start, goal, budget, speed,
                                  visited))


# --- route cost -------------------------------------------------------------


def test_route_cost_zero_gap_leaves_value_term():
    cost = walk_cost(1000.0, 1e9, 20, time_budget=1000.0)
    assert cost == pytest.approx(20 / (1e9 + 1), rel=1e-12)


def test_route_cost_monotone_in_value():
    assert walk_cost(900.0, 20.0, 20, 1000.0) < walk_cost(900.0, 10.0, 20, 1000.0)


def test_route_cost_hand_value():
    # |900 - 1000|/1000 + 20/(9 + 1) = 0.1 + 2.0
    assert walk_cost(900.0, 9.0, 20, 1000.0) == pytest.approx(2.1)


def test_route_cost_undecodable_is_infinite(monkeypatch):
    # Station 2 is a dead end: a walk that enters it cannot reach the goal.
    net = line_network([(0, 0, 0), (0, 300, 0), (400, 0, 0)], [(1, 2), (1, 3)])
    scored, optimize = [], gp.de.optimize

    def recording_optimize(evaluate, *args, **kwargs):
        def recorded(mat):
            costs = evaluate(mat)
            scored.extend(zip(mat.tolist(), costs.tolist()))
            return costs
        return optimize(recorded, *args, **kwargs)

    monkeypatch.setattr(gp.de, "optimize", recording_optimize)
    plan_global(net, 1, 3, 1e4, 1.0, de_cfg(pop=8, gens=3), restarts=1,
                rng=np.random.default_rng(0))
    dead = [cost for keys, cost in scored if keys[1] >= keys[2]]
    assert dead and all(cost == math.inf for cost in dead)
    assert all(cost < math.inf for keys, cost in scored if keys[1] < keys[2])


def test_route_cost_feasibility_dominance():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 60))
        feasible = (rng.uniform(0, 1000.0), rng.uniform(0, n * 5))
        overtime = (1000.0 * (1 + rng.uniform(1e-9, 2.0)), rng.uniform(0, n * 5))
        assert walk_cost(*feasible, n, 1000.0) < walk_cost(*overtime, n, 1000.0)


def test_route_cost_overtime_dominates_on_150_stations():
    # An on-budget cost reaches 1 + N (zero time, zero value); past 98
    # stations a fixed overtime weight of 100 would fall below it.
    budget, n = 1000.0, 150
    values = (0.0, 1.0, 100.0, 5.0 * n, 1e9)
    on_budget = [walk_cost(t, v, n, budget)
                 for t in (0.0, 1.0, 500.0, budget) for v in values]
    overtime = [walk_cost(t, v, n, budget)
                for t in (math.nextafter(budget, math.inf), 1001.0, 3000.0) for v in values]
    assert max(on_budget) < min(overtime)


def test_route_cost_factors_through_decoded_route():
    net = triangle()
    a = decode(np.array([0.1, 0.9, 0.2]), net, 1, 3, 1e5, 1.0)
    b = decode(np.array([0.4, 0.7, 0.6]), net, 1, 3, 1e5, 1.0)
    assert a.sequence == b.sequence
    assert walk_cost(a.time, a.total_value, 3, 1e5) == walk_cost(b.time, b.total_value, 3, 1e5)


# --- plan_global ------------------------------------------------------------


def de_cfg(pop=20, gens=40):
    return DEConfig(population_size=pop, generations=gens)


def test_plan_two_station_network():
    net = line_network([(0, 0, 0), (500, 0, 0)], [(1, 2)])
    plan = plan_global(net, 1, 2, time_budget=1e4, speed=2.0, config=de_cfg(),
                       rng=np.random.default_rng(0), restarts=1)
    assert plan.route.sequence == (1, 2)


def test_plan_decodes_through_the_module_once_per_key_ordering(monkeypatch):
    # The benchmark's tracer counts decodes by wrapping the module attribute;
    # a plan that bypassed it would read as zero decodes.
    decoded, evaluated = [], set()
    decode, optimize = gp.decode_route, gp.de.optimize

    def counting_decode(keys, *args, **kwargs):
        decoded.append(tuple(np.argsort(-keys, kind="stable").tolist()))
        return decode(keys, *args, **kwargs)

    def recording_optimize(evaluate, *args, **kwargs):
        def recorded(mat):
            evaluated.update(tuple(o) for o in np.argsort(-mat, axis=1, kind="stable").tolist())
            return evaluate(mat)
        return optimize(recorded, *args, **kwargs)

    monkeypatch.setattr(gp, "decode_route", counting_decode)
    monkeypatch.setattr(gp.de, "optimize", recording_optimize)
    rng = np.random.default_rng(10)
    positions = rng.uniform(0, 3000, size=(6, 3))
    edges = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    net = line_network(positions, edges, start=1, goal=6,
                       values=list(rng.integers(1, 6, 6).astype(float)))
    plan_global(net, 1, 6, 4000.0, 2.0, de_cfg(pop=12, gens=20), restarts=2,
                rng=np.random.default_rng(77))
    assert len(decoded) == len(evaluated) > 0
    assert set(decoded) == evaluated


def test_plan_computes_to_goal_times_through_the_module_once(monkeypatch):
    # The benchmark's tracer times shortest paths by wrapping this module
    # attribute; a plan that bypassed it would read as zero.
    calls = []
    shortest = gp.shortest_times_to

    def counting_shortest(*args, **kwargs):
        calls.append(args)
        return shortest(*args, **kwargs)

    monkeypatch.setattr(gp, "shortest_times_to", counting_shortest)
    plan_global(triangle(), 1, 3, 1e4, 1.0, de_cfg(pop=8, gens=5), restarts=2,
                rng=np.random.default_rng(0))
    assert len(calls) == 1


def test_plan_route_is_the_decode_of_its_best_genes():
    # The plan looks its route up by the best genes' key ordering; it must be
    # the route those genes decode to, at the cost the DE reported.
    rng = np.random.default_rng(4)
    for case in range(6):
        positions = rng.uniform(0, 3000, size=(7, 3))
        edges = [(i, j) for i in range(1, 8) for j in range(i + 1, 8) if rng.random() < 0.6]
        edges.append((1, 7))
        net = line_network(positions, edges, start=1, goal=7,
                           values=list(rng.integers(1, 6, 7).astype(float)))
        budget = float(rng.uniform(1.2, 4.0)) * float(np.linalg.norm(positions[0] - positions[6]))
        visited = frozenset({3, 5}) if case % 2 else frozenset()
        plan = plan_global(net, 1, 7, budget, 1.5, de_cfg(pop=10, gens=12), restarts=2,
                           rng=np.random.default_rng(case), visited=visited)
        assert plan.route == decode(plan.genes, net, 1, 7, budget, 1.5, visited)
        assert plan.cost == walk_cost(plan.route.time, plan.route.total_value, 7, budget)


def test_plan_rejects_unaffordable_budget():
    net = line_network([(0, 0, 0), (5000, 0, 0)], [(1, 2)])
    with pytest.raises(NoFeasibleRouteError):
        plan_global(net, 1, 2, time_budget=10.0, speed=1.0, config=de_cfg(),
                    rng=np.random.default_rng(0))


def test_unaffordable_budget_message_never_reads_equal_numbers():
    # Both rounded to the nearest second, a 0.3 s miss read '3604s exceeds budget 3604s'.
    net = line_network([(0, 0, 0), (3604.2, 0, 0)], [(1, 2)])
    with pytest.raises(NoFeasibleRouteError,
                       match="^minimum route time 3605s exceeds budget 3603s$"):
        plan_global(net, 1, 2, time_budget=3603.9, speed=1.0, config=de_cfg(),
                    rng=np.random.default_rng(0))


@pytest.mark.parametrize("kwargs", [
    {"restarts": 0}, {"restarts": -1}, {"restarts": 2.0}, {"time_budget": math.nan},
    {"time_budget": math.inf}, {"time_budget": 0.0}, {"speed": 0.0}, {"speed": math.nan},
    {"speed": math.inf}, {"speed": -1.0},
], ids=["restarts-0", "restarts-negative", "restarts-float", "budget-nan", "budget-inf",
        "budget-0", "speed-0", "speed-nan", "speed-inf", "speed-negative"])
def test_plan_rejects_arguments_it_cannot_use(kwargs):
    # Each used to die inside the plan (AttributeError, a numpy error,
    # ZeroDivisionError, a misleading UnreachableGoalError), to plan against a
    # NaN or infinite budget, or, at a negative speed, to loop in `dijkstra`
    # over negative edge times.
    args = {"time_budget": 1e4, "speed": 1.0, "restarts": 1, **kwargs}
    with pytest.raises(ValueError, match="restarts must be|time_budget and speed must be"):
        plan_global(triangle(), 1, 3, config=de_cfg(pop=8, gens=5),
                    rng=np.random.default_rng(0), **args)


def test_plan_traces_are_monotone_and_per_restart():
    net = triangle()
    plan = plan_global(net, 1, 3, 1e4, 1.0, de_cfg(pop=10, gens=15), restarts=3,
                       rng=np.random.default_rng(0))
    assert len(plan.traces) == 3
    for trace in plan.traces:
        assert np.all(np.diff(trace) <= 1e-15)


def test_plan_deterministic_under_seed():
    rng = np.random.default_rng(10)
    positions = rng.uniform(0, 3000, size=(6, 3))
    edges = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    net = line_network(positions, edges, start=1, goal=6,
                       values=list(rng.integers(1, 6, 6).astype(float)))
    a = plan_global(net, 1, 6, 4000.0, 2.0, de_cfg(pop=12, gens=20), restarts=2,
                    rng=np.random.default_rng(77))
    b = plan_global(net, 1, 6, 4000.0, 2.0, de_cfg(pop=12, gens=20), restarts=2,
                    rng=np.random.default_rng(77))
    assert a.route == b.route and a.cost == b.cost


def test_plan_respects_budget_when_feasible_exists():
    rng = np.random.default_rng(3)
    for case in range(5):
        positions = rng.uniform(0, 3000, size=(6, 3))
        edges = [(i, j) for i in range(1, 7) for j in range(i + 1, 7) if rng.random() < 0.8]
        edges.append((1, 6))
        net = line_network(positions, edges, start=1, goal=6,
                           values=list(rng.integers(1, 6, 6).astype(float)))
        direct = float(np.linalg.norm(positions[0] - positions[5])) / 2.0
        budget = 1.2 * direct + 1.0
        plan = plan_global(net, 1, 6, budget, 2.0, de_cfg(pop=16, gens=30), restarts=2,
                           rng=np.random.default_rng(0))
        assert plan.route.time <= budget + 1e-9


def test_plan_matches_enumeration_on_small_network():
    rng = np.random.default_rng(21)
    positions = rng.uniform(0, 3000, size=(6, 3))
    edges = [(i, j) for i in range(1, 7) for j in range(i + 1, 7) if rng.random() < 0.7]
    edges.append((1, 6))
    net = line_network(positions, edges, start=1, goal=6,
                       values=list(rng.integers(1, 6, 6).astype(float)))
    budget = 3.0 * float(np.linalg.norm(positions[0] - positions[5])) / 2.0
    plan = plan_global(net, 1, 6, budget, 2.0, de_cfg(pop=30, gens=80), restarts=3,
                       rng=np.random.default_rng(0))
    oracle = best_walk_cost(net, 2.0, budget)
    assert plan.cost <= oracle * 1.05 + 1e-9
    # the planner's reported cost is the independent formula applied to its route
    assert plan.cost == pytest.approx(
        reference_walk_cost(plan.route.time, plan.route.total_value, net.size, budget),
        rel=1e-12)


# --- warm-started plans -----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(net=decode_networks(), ends=st.tuples(st.integers(0, 11), st.integers(0, 11)),
       speed=st.sampled_from([0.5, 1.0, 2.2]), budget=st.floats(1.0, 30_000.0),
       seed=st.integers(0, 2**32 - 1))
def test_warm_plan_never_costs_more_than_its_seed_genes(net, ends, speed, budget, seed):
    # The seed genes enter generation 0 of every restart, so the replaced
    # plan's route (their decode) is a candidate that only a cheaper route beats.
    n = net.size
    start, goal = ends[0] % n + 1, ends[1] % n + 1
    graph = decode_graph(net, goal, speed)
    if graph.to_goal.get(start, math.inf) > budget:
        return  # refused before any search
    rng = np.random.default_rng(seed)
    genes = tied_keys(rng, n)
    visited = frozenset(rng.integers(1, n + 1, size=n // 2).tolist())
    try:
        route = decode_route(genes, graph, start, budget, visited)
        seeded = walk_cost(route.time, route.total_value, n, budget)
    except UndecodableError:
        seeded = math.inf
    try:
        plan = plan_global(net, start, goal, budget, speed, de_cfg(pop=4, gens=1),
                           rng=rng, restarts=2, visited=visited, seed_genes=(genes,))
    except NoFeasibleRouteError:  # no genome decoded, the seed genes included
        assert seeded == math.inf
        return
    assert plan.cost <= seeded


def test_warm_plan_stops_after_replan_stall_generations_without_a_new_best():
    rng = np.random.default_rng(8)
    positions = rng.uniform(0, 3000, size=(7, 3))
    edges = [(i, j) for i in range(1, 8) for j in range(i + 1, 8) if rng.random() < 0.6]
    net = line_network(positions, [*edges, (1, 7)], start=1, goal=7,
                       values=list(rng.integers(1, 6, 7).astype(float)))
    budget = 2.5 * float(np.linalg.norm(positions[0] - positions[6]))
    cold = plan_global(net, 1, 7, budget, 1.5, de_cfg(pop=10, gens=120), restarts=3,
                       rng=np.random.default_rng(1))
    assert [len(t) for t in cold.traces] == [121] * 3  # a cold plan runs every generation
    warm = plan_global(net, 1, 7, budget, 1.5, de_cfg(pop=10, gens=120), restarts=3,
                       rng=np.random.default_rng(1), seed_genes=(cold.genes,))
    assert warm.cost <= cold.cost
    for trace in warm.traces:
        # The last new best stands for exactly REPLAN_STALL generations.
        last_best = len(trace) - 1 - REPLAN_STALL
        assert last_best >= 0 and len(set(trace[last_best:])) == 1
        assert last_best == 0 or trace[last_best - 1] > trace[last_best]
    # A settled warm start: the seeded route is the only route, so generation 0 holds the best.
    line = line_network([(0, 0, 0), (500, 0, 0)], [(1, 2)])
    settled = plan_global(line, 1, 2, 1e4, 2.0, de_cfg(gens=120), rng=np.random.default_rng(0),
                          restarts=2, seed_genes=(np.array([0.3, 0.6]),))
    assert [len(t) for t in settled.traces] == [1 + REPLAN_STALL] * 2
