"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The 30-trial batch on the
bundled paper_baseline scenario is shared by several criteria and runs once
per session.
"""

import math
import time

import numpy as np
import pytest

from uuvsim.cli import aggregate_rows, run_monte_carlo, run_once
from uuvsim.de import DEConfig
from uuvsim.env import VortexField, VortexParams, current_at, current_grid
from uuvsim.errors import UndecodableError
from uuvsim.global_planner import decode_graph, decode_route, plan_global
from uuvsim.local_planner import LocalCostWeights, SplineConfig, corridor_bounds, evaluate_paths
from uuvsim.network import adjacency, build_network, shortest_times_to
from uuvsim.scenario import resolve_scenario
from tests.oracles import best_walk_cost, walk_cost
from tests.test_env import grid_from
from tests.test_network import line_network

TRIALS = 30
SURGE_LIMIT = 2.7
SWAY_LIMIT = 0.5
YAW_LIMIT_DEG = 17.0


def report_pass(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="session")
def baseline_batch():
    sc = resolve_scenario("paper_baseline")
    summary = run_monte_carlo(sc, trials=TRIALS, base_seed=sc.seed, jobs=2)
    assert len(summary.rows) == TRIALS
    return summary


def _reaches_all_without(net, skip: int) -> bool:
    """True when every other station is reachable from start avoiding `skip`."""
    adj = adjacency(net, 1.0)
    seen = {net.start_id}
    frontier = [net.start_id]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _, _, _ in adj[u]:
                if v != skip and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == net.size - 1


@pytest.fixture(scope="session")
def oracle_networks():
    """100 seeded small networks with mixed generous and tight budgets.

    The destination must not be a mandatory transit hub: greedy decoding
    terminates on goal arrival, so sensible mission networks keep every
    station reachable without passing through the goal.
    """
    instances = []
    rng = np.random.default_rng(20_240_001)
    while len(instances) < 100:
        n = int(rng.integers(4, 7))
        positions = rng.uniform(0, 4000, size=(n, 3))
        positions[:, 2] = rng.uniform(0, 400, size=n)
        positions[0, :2] = rng.uniform(0, 600, size=2)
        positions[n - 1, :2] = rng.uniform(3400, 4000, size=2)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.8]
        if len(edges) > 11:
            keep = rng.choice(len(edges), size=11, replace=False)
            edges = [edges[k] for k in sorted(keep)]
        values = list(rng.integers(1, 6, size=n).astype(float))
        net = line_network(positions, edges, start=1, goal=n, values=values)
        if not net.goal_reachable() or not _reaches_all_without(net, skip=net.goal_id):
            continue
        speed = 2.0
        shortest = shortest_times_to(net, target=n, speed=speed)[1]
        if len(instances) % 2 == 0:
            budget = shortest * float(rng.uniform(1.5, 2.5))  # generous
        else:
            budget = shortest * float(rng.uniform(1.05, 1.4))  # tight
        instances.append((net, speed, budget))
    return instances


@pytest.fixture(scope="session")
def oracle_plans(oracle_networks):
    cfg = DEConfig(population_size=50, generations=300)
    plans = []
    t0 = time.perf_counter()
    for idx, (net, speed, budget) in enumerate(oracle_networks):
        plan = plan_global(net, net.start_id, net.goal_id, budget, speed, cfg,
                           restarts=5, rng=np.random.default_rng(idx))
        plans.append(plan)
    return plans, time.perf_counter() - t0


def test_criterion_1_global_route_oracle(oracle_networks, oracle_plans):
    plans, elapsed = oracle_plans
    hits = 0
    for (net, speed, budget), plan in zip(oracle_networks, plans):
        oracle = best_walk_cost(net, speed, budget)
        if plan.cost <= oracle * 1.05 + 1e-12:
            hits += 1
    assert hits >= 95, f"only {hits}/100 within 5% of enumeration optimum"
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    report_pass("criterion 1", f"{hits}/100 within 5% of the enumeration optimum "
                               f"in {elapsed:.0f}s")


def test_criterion_2_de_elitism(baseline_batch, oracle_plans):
    traces = []
    for plan in oracle_plans[0]:
        traces.extend(plan.traces)
    for row in baseline_batch.rows:
        if row["report"] is not None:
            traces.extend(trace for _, trace in row["report"].de_traces)
    assert traces, "no optimizer traces collected"
    violations = sum(1 for trace in traces if np.any(np.diff(trace) > 1e-12))
    assert violations == 0, f"{violations} non-monotone traces"
    report_pass("criterion 2", f"{len(traces)} optimizer traces, all monotone non-increasing")


def test_criterion_3_current_field_correctness():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(1000):
        center = rng.uniform(-5000, 5000, size=2)
        radius = float(rng.uniform(10.0, 800.0))
        strength = float(rng.uniform(-4000.0, 4000.0))
        point = rng.uniform(-6000, 6000, size=2)
        fld = VortexField(vortices=(VortexParams(center=tuple(center), radius=radius,
                                                 strength=strength),))
        got = current_at(point, fld)
        # independent closed form: tangential speed times the unit tangent
        dx, dy = point[0] - center[0], point[1] - center[1]
        r = math.hypot(dx, dy)
        if r < 1e-9 * radius:
            expect = (0.0, 0.0)
        else:
            speed = strength / (2 * math.pi * r) * (1 - math.exp(-(r / radius) ** 2))
            expect = (speed * (-dy / r), speed * (dx / r))
        worst = max(worst, abs(got.v_cx - expect[0]), abs(got.v_cy - expect[1]))
    assert worst <= 1e-9

    far = current_at((20.0 * 3.0, 0.0), VortexField(
        vortices=(VortexParams(center=(0.0, 0.0), radius=3.0, strength=2.0),)))
    asymptote = 2.0 / (2 * math.pi * 60.0)
    assert far.magnitude == pytest.approx(asymptote, rel=0.01)

    rng = np.random.default_rng(77)
    vortices = tuple(VortexParams(center=(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000)),
                                  radius=rng.uniform(50, 500),
                                  strength=rng.uniform(-3000, 3000)) for _ in range(6))
    pts = rng.uniform(-2500, 2500, size=(200, 2))
    total = current_grid(pts, VortexField(vortices=vortices))
    parts = sum(current_grid(pts, VortexField(vortices=(v,))) for v in vortices)
    assert np.max(np.abs(total - parts)) <= 1e-12
    report_pass("criterion 3", "1000 closed-form checks <= 1e-9, far field within 1%, "
                               "superposition <= 1e-12")


def test_criterion_4_kinematic_constraints(baseline_batch):
    checked = 0
    for row in baseline_batch.rows:
        report = row["report"]
        if report is None:
            continue
        for leg in report.legs:
            checked += 1
            assert leg.max_surge <= SURGE_LIMIT + 1e-9, f"surge {leg.max_surge}"
            assert leg.max_sway <= SWAY_LIMIT + 1e-9, f"sway {leg.max_sway}"
            assert math.degrees(leg.max_yaw_rate) <= YAW_LIMIT_DEG + 1e-9
    assert checked > 0
    report_pass("criterion 4", f"{checked} accepted legs within surge/sway/yaw-rate limits")


def test_criterion_5_collision_free_execution(baseline_batch):
    ticks = 0
    for row in baseline_batch.rows:
        report = row["report"]
        assert report is None or "collision" not in report.failure_reason, \
            f"trial {row['trial']} collided: {report.failure_reason}"
        if report is not None:
            ticks += len(report.ticks)
    report_pass("criterion 5", f"zero collisions across {ticks} executed ticks")


def test_criterion_6_mission_timing_envelope(baseline_batch):
    rows = baseline_batch.rows
    successes = [r for r in rows if r["success"]]
    rate = len(successes) / len(rows)
    assert rate >= 0.9, f"success rate {rate:.2f}"
    for row in successes:
        assert row["residual_time"] >= 0.0
        assert row["path_time"] <= 14_400.0 + 1e-6
    mean_residual = float(np.mean([r["residual_time"] for r in successes]))
    assert mean_residual <= 700.0, f"mean residual {mean_residual:.0f}s"
    walls = [r["wall_clock"] for r in rows if not math.isnan(r["wall_clock"])]
    assert max(walls) <= 60.0, f"slowest trial {max(walls):.0f}s"
    report_pass("criterion 6", f"success {len(successes)}/{len(rows)}, mean residual "
                               f"{mean_residual:.0f}s, slowest trial {max(walls):.0f}s")


def test_criterion_7_replanning_behavior(baseline_batch):
    counts = []
    overrun_trials = 0
    for row in baseline_batch.rows:
        report = row["report"]
        if report is None:
            continue
        counts.append(report.global_replans)
        assert 0 <= report.global_replans <= 10
        if any(reason == "leg overran plan" for _, kind, reason in report.replans
               if kind == "global"):
            overrun_trials += 1
    assert overrun_trials >= 1, "no trial exercised the overrun trigger"
    report_pass("criterion 7", f"replans per mission in [{min(counts)}, {max(counts)}], "
                               f"{overrun_trials} trials with overrun-triggered replans")


def test_criterion_8_spline_and_decode_invariants():
    rng = np.random.default_rng(88)
    spline = SplineConfig()
    values = np.zeros((600, 600))
    values[0, 0] = 255
    from uuvsim.env import EnvSnapshot, cluster_map
    env = EnvSnapshot(cluster_map(grid_from(values, 10.0, 1000.0), k=2),
                      VortexField(vortices=()))
    worst = 0.0
    for _ in range(1000):
        p_i = rng.uniform([0, 0, 0], [6000, 6000, 1000])
        p_j = rng.uniform([0, 0, 0], [6000, 6000, 1000])
        lo, hi = corridor_bounds(p_i, p_j, env, spline)
        _, _, path_of = evaluate_paths(rng.uniform(lo, hi)[None], p_i, p_j, spline,
                                       LocalCostWeights(), env)
        path = path_of(0)
        worst = max(worst, float(np.linalg.norm(path.start - p_i)),
                    float(np.linalg.norm(path.end - p_j)))
    assert worst <= 1e-6

    decodes = 0
    networks = 0
    net_seed = 0
    while networks < 5:
        net_seed += 1
        net_rng = np.random.default_rng(1000 + net_seed)
        positions = net_rng.uniform(0, 10_000, size=(20, 3))
        positions[:, 2] = net_rng.uniform(0, 1000, 20)
        edges = [(i, j) for i in range(1, 21) for j in range(i + 1, 21)
                 if float(np.linalg.norm(positions[i - 1] - positions[j - 1])) < 4000.0]
        net = line_network(positions, edges, start=1, goal=20,
                           values=list(net_rng.integers(1, 6, 20).astype(float)))
        if not net.goal_reachable():
            continue
        networks += 1
        graph = decode_graph(net, 20, 2.2)
        for _ in range(200):
            keys = net_rng.random(20)
            budget = float(net_rng.uniform(5000.0, 20_000.0))
            try:
                route = decode_route(keys, graph, 1, budget)
            except UndecodableError:
                continue  # walk wandered into a cul-de-sac: the error path, not a violation
            decodes += 1
            assert route.sequence[-1] == 20
            assert len(set(route.edges)) == len(route.edges)
    assert decodes >= 900
    report_pass("criterion 8", f"endpoint error <= 1e-6 m on 1000 legs; {decodes} decodes "
                               "edge-duplicate-free and goal-terminated")


def test_criterion_9_determinism(tmp_path, baseline_batch):
    sc = resolve_scenario("paper_baseline")
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_once(sc, sc.seed, a_dir)
    run_once(sc, sc.seed, b_dir)
    files = ("report.txt", "legs.csv", "ticks.csv", "replans.csv", "paths.csv",
             "de_traces.csv", "field.csv")
    for name in files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    recomputed = aggregate_rows(baseline_batch.rows)
    for col, agg in baseline_batch.aggregates.items():
        if not isinstance(agg, dict):
            assert recomputed[col] == agg
            continue
        for stat, value in agg.items():
            if math.isnan(value):
                assert math.isnan(recomputed[col][stat])
            else:
                assert recomputed[col][stat] == pytest.approx(value, abs=1e-9)
    report_pass("criterion 9", "byte-identical reports and traces; batch aggregates "
                               "recompute exactly")
