import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uuvsim
from uuvsim.errors import NoFeasiblePathError, UndecodableError
import uuvsim.mission as mission_module
from uuvsim.env import (EnvSnapshot, Obstacle, ObstacleColumns, VortexField, VortexParams,
                        cluster_map, current_at, step_obstacles)
from uuvsim.global_planner import decode_graph, decode_route, walk_cost
from uuvsim.local_planner import (LocalCostWeights, SplineConfig, evaluate_paths,
                                  replan_local, straight_genes)
from uuvsim.mission import (LegOutcome, _Executor, _hazard, path_ticks, run_mission,
                            should_replan_global)
from uuvsim.network import edge_length
from uuvsim.scenario import from_dict, resolve_scenario
from tests.oracles import (reference_position_at_time, reference_sample_index_at_time,
                          reference_ticks)
from tests.test_env import grid_from
from tests.test_golden import VARIANTS, artifact_hashes, scenario_file
from tests.test_network import line_network


def two_station_scenario(**overrides):
    sc = resolve_scenario("two_station")
    for section, kv in overrides.items():
        for key, value in kv.items():
            setattr(getattr(sc, section), key, value)
    return sc


def test_trivial_mission_succeeds():
    sc = two_station_scenario()
    report = run_mission(sc)
    assert report.success
    assert report.global_replans == 0
    assert report.residual_time > 0
    assert len(report.legs) == 1
    assert report.executed_sequence == [1, 2]
    assert report.total_value == 3.0


def test_scripted_edge_failure_fails_mission():
    sc = resolve_scenario("two_station")
    data = {
        "name": "line3", "seed": 5,
        "field": {"x": 2000.0, "y": 2000.0, "z": 200.0},
        "map": {"width": 200, "height": 200, "cell_size": 10.0, "islands": 0,
                "coast_border": 2},
        "current": {"count": [0, 0]},
        "obstacles": {"count": 0},
        "network": {
            "records": [
                {"id": 1, "position": [200.0, 1000.0, 50.0], "kind": "fixed", "value": 0},
                {"id": 2, "position": [1000.0, 1000.0, 50.0], "kind": "fixed", "value": 2},
                {"id": 3, "position": [1800.0, 1000.0, 50.0], "kind": "fixed", "value": 2},
            ],
            "edges": [[1, 2], [2, 3]], "start": 1, "goal": 3},
        "vehicle": {"cruise_speed": 2.0, "time_budget": 3600.0},
        "de_global": {"population": 8, "generations": 8, "restarts": 1},
        "de_local": {"population": 16, "generations": 25},
        "mission": {"edge_failures": [{"after_leg": 1, "edge": [2, 3]}]},
    }
    report = run_mission(from_dict(data))
    assert not report.success
    assert "unreachable" in report.failure_reason or "cut off" in report.failure_reason
    assert report.executed_sequence[-1] == 2


def test_report_cost_and_residual_accounting():
    report = run_mission(two_station_scenario())
    assert report.residual_time == pytest.approx(3600.0 - report.path_time)
    assert report.path_time == pytest.approx(sum(l.actual for l in report.legs))
    gap = abs(report.path_time - 3600.0) / 3600.0
    assert report.total_cost == pytest.approx(gap + 2 / (report.total_value + 1.0))


def test_mission_determinism():
    a = run_mission(two_station_scenario())
    b = run_mission(two_station_scenario())
    assert a.ticks.shape == (len(a.ticks), 6) and np.array_equal(a.ticks, b.ticks)
    assert a.executed_sequence == b.executed_sequence
    assert a.path_time == b.path_time and a.total_cost == b.total_cost


# --- should_replan_global ---------------------------------------------------


def replan_fixture():
    net = line_network([(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0), (2000.0, 0.0, 0.0)],
                       [(1, 2), (2, 3)])
    leg = LegOutcome(from_id=1, to_id=2, planned=500.0, actual=500.0)
    return net, leg


def test_no_replan_when_on_plan():
    net, leg = replan_fixture()
    flag, _ = should_replan_global(leg, [2, 3], net, remaining_budget=10_000.0, speed=2.0)
    assert not flag


def test_replan_on_overrun():
    net, leg = replan_fixture()
    leg.actual = 1.5 * leg.planned
    flag, reason = should_replan_global(leg, [2, 3], net, 10_000.0, 2.0)
    assert flag and reason == "leg overran plan"


def test_replan_within_slack_tolerated():
    net, leg = replan_fixture()
    leg.actual = 1.04 * leg.planned
    flag, _ = should_replan_global(leg, [2, 3], net, 10_000.0, 2.0, slack=0.05)
    assert not flag


def test_no_replan_when_drift_shortens_route():
    # station 3 drifted toward 2: remaining time shrinks, so no flag
    net = line_network([(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0), (1400.0, 0.0, 0.0)],
                       [(1, 2), (2, 3)])
    leg = LegOutcome(from_id=1, to_id=2, planned=500.0, actual=500.0)
    flag, _ = should_replan_global(leg, [2, 3], net, remaining_budget=250.0, speed=2.0)
    assert not flag  # 400 m at 2 m/s = 200 s <= 250 s


def test_replan_when_remaining_route_exceeds_budget():
    net, leg = replan_fixture()
    flag, reason = should_replan_global(leg, [2, 3], net, remaining_budget=400.0, speed=2.0)
    assert flag and reason == "remaining route exceeds budget"


def test_replan_on_missing_edge():
    net, leg = replan_fixture()
    from uuvsim.network import consume_edge
    net = consume_edge(net, 2, 3)
    flag, reason = should_replan_global(leg, [2, 3], net, 10_000.0, 2.0)
    assert flag and reason == "route edge missing"


def test_forced_triggers_win_over_an_overrun():
    # With the leg overrun too, the reason names the forced trigger, which the
    # executor may not skip past max_global_replans.
    net, leg = replan_fixture()
    leg.actual = 1.5 * leg.planned
    flag, reason = should_replan_global(leg, [2, 3], net, remaining_budget=400.0, speed=2.0)
    assert flag and reason == "remaining route exceeds budget"
    from uuvsim.network import consume_edge
    flag, reason = should_replan_global(leg, [2, 3], consume_edge(net, 2, 3), 10_000.0, 2.0)
    assert flag and reason == "route edge missing"


# --- ticking ----------------------------------------------------------------


def still_path(length=1000.0, cruise=2.0):
    values = np.zeros((200, 200))
    values[0, 0] = 255
    cmap = cluster_map(grid_from(values, 10.0, 500.0), k=2)
    env = EnvSnapshot(cmap, VortexField(vortices=()))
    p_i = np.array([100.0, 1000.0, 100.0])
    p_j = p_i + np.array([length, 0.0, 0.0])
    spl = SplineConfig()
    _, _, path_of = evaluate_paths(straight_genes(p_i, p_j, spl)[None], p_i, p_j, spl,
                                   LocalCostWeights(cruise_speed=cruise), env)
    return path_of(0), env


def test_tick_advances_by_ground_speed():
    path, env = still_path(cruise=2.0)
    taus, pos, samples = path_ticks(path, dt=1.0)
    assert taus[0] == 1.0 and len(taus) > 1  # the executor charges tau to the battery
    assert np.linalg.norm(pos[0] - path.start) == pytest.approx(2.0, rel=1e-9)
    assert _hazard(pos[0], path, taus[0], samples[0], ObstacleColumns.of(()), 500.0,
                   20.0) is None


def with_repeated_sample(path, k):
    """`path` with sample k doubled: a zero-length segment whose end times are equal."""
    names = ("points", "yaw", "pitch", "surge", "sway", "yaw_rate", "times")
    return replace(path, **{n: np.insert(getattr(path, n), k, getattr(path, n)[k], axis=0)
                            for n in names})


@settings(max_examples=40, deadline=None)
@given(length=st.floats(1.0, 3000.0), dt_share=st.floats(1e-3, 2.0),
       repeat=st.none() | st.integers(0, 99))
@example(length=5.0, dt_share=0.001, repeat=None)  # a full step ends 4e-14 s short of the end
# The last two samples share a time: the final tick lands on a zero-length segment.
@example(length=100.0, dt_share=0.3, repeat=99)
@example(length=100.0, dt_share=0.3, repeat=0)
def test_tick_sums_to_planner_duration(length, dt_share, repeat):
    path, _ = still_path(length=length, cruise=2.0)
    if repeat is not None:
        path = with_repeated_sample(path, repeat)
    dt = dt_share * path.duration
    taus, pos, samples = path_ticks(path, dt)
    before = np.concatenate(([0.0], taus[:-1]))
    assert np.all(before < taus) and np.all(taus <= before + dt)
    assert taus[-1] == path.duration and np.all(taus[:-1] < path.duration)
    np.testing.assert_array_equal(pos[-1], path.end)
    # Bit for bit the ticks of one scalar interpolation per tick.
    want = reference_ticks(path, dt)
    np.testing.assert_array_equal(taus, [t for t, _, _ in want])
    np.testing.assert_array_equal(pos, [p for _, p, _ in want])
    np.testing.assert_array_equal(samples, [k for _, _, k in want])
    assert all(np.array_equal(path.position_at_time(t), p) for t, p, _ in want)


def test_tick_detects_obstacle_stepping_onto_path():
    path, env = still_path(length=1000.0)
    obs = ObstacleColumns.of([Obstacle(id=7, kind="mobile", position=(600.0, 1000.0, 100.0),
                                       radius=50.0, motion_sigma=0.0)])
    taus, pos, samples = path_ticks(path, dt=1.0)
    step_obstacles(obs, env.field, 1.0, np.random.default_rng(0))
    assert _hazard(pos[0], path, taus[0], samples[0], obs, 500.0, 20.0) == 7


def test_advance_truncates_at_arrival():
    path, _ = still_path(length=100.0, cruise=2.0)
    dt = path.duration / 3.5
    taus, pos, _ = path_ticks(path, dt)
    assert len(taus) == 4 and taus[-1] == path.duration
    assert taus[-1] - taus[-2] == pytest.approx(0.5 * dt)
    assert np.linalg.norm(pos[-1] - path.end) < 1e-9


def test_truncated_last_tick_moves_obstacles_for_its_real_duration(monkeypatch):
    # A path's last tick is cut short at arrival; the obstacles move for that
    # shorter time, not for a full dt.
    ex = _Executor(two_station_scenario(), 7)
    path, _ = still_path(length=1000.0)
    ex.sc.mission.dt = 0.4 * path.duration  # ticks at 0.4, 0.8 and 1.0 of the path
    ex.field = VortexField(vortices=(VortexParams(center=(1500.0, 700.0), radius=300.0,
                                                  strength=2000.0),))
    obs = Obstacle(id=3, kind="mobile", position=(1500.0, 500.0, 100.0), radius=20.0)
    ex.obstacles = ObstacleColumns.of([obs])
    steps = []

    def recording(cols, fld, dt, rng):
        steps.append((dt, cols.x[0], cols.y[0], current_at((cols.x[0], cols.y[0]), fld)))
        step_obstacles(cols, fld, dt, rng)

    monkeypatch.setattr(mission_module, "step_obstacles", recording)
    ex._execute_path(path, 0, LegOutcome(from_id=1, to_id=2, planned=0.0, actual=0.0),
                     allow_replans=False)
    taus, _, _ = path_ticks(path, ex.sc.mission.dt)
    assert [dt for dt, *_ in steps] == np.diff(taus, prepend=0.0).tolist()
    dt, x, y, cur = steps[-1]
    assert dt < ex.sc.mission.dt and cur.magnitude > 0.1
    np.testing.assert_allclose([ex.obstacles.x[0] - x, ex.obstacles.y[0] - y],
                               [cur.v_cx * dt, cur.v_cy * dt], rtol=1e-9, atol=1e-12)


def test_aborted_path_keeps_the_ticks_it_flew():
    ex = _Executor(two_station_scenario(), 7)
    path, _ = still_path(length=1000.0)
    ex.obstacles = ObstacleColumns.of(())
    ex.budget = 100.5
    with pytest.raises(mission_module._MissionAbort, match="battery exhausted mid-leg"):
        ex._execute_path(path, 4, LegOutcome(from_id=1, to_id=2, planned=0.0, actual=0.0),
                         allow_replans=True)
    ticks = ex._finalize(ex.report).ticks
    taus, pos, samples = path_ticks(path, ex.sc.mission.dt)
    n = int(np.searchsorted(taus, 100.5, side="right")) + 1  # through the first tick past it
    assert ticks.shape == (n, 6) and ticks[-2, 0] <= 100.5 < ticks[-1, 0]
    np.testing.assert_array_equal(ticks[:, 1:4], pos[:n])
    np.testing.assert_array_equal(ticks[:, 4], path.yaw[samples[:n]])
    assert set(ticks[:, 5]) == {4.0}
    np.testing.assert_array_equal(ex.position, pos[n - 1])


@pytest.mark.parametrize("scenario, seed, hazard", [("hazard_world", 6, False),
                                                    ("hazard_world", 26, True),
                                                    ("two_station", None, False)])
def test_obstacles_step_on_their_own_clock(scenario, seed, hazard, tmp_path, monkeypatch):
    # Each obstacle step covers the mission time since the last one, carried across
    # a hazard break, and every path's arrival steps: on a mission that ends at an
    # arrival the steps add up to the path time.
    sc = resolve_scenario(str(scenario_file(scenario, tmp_path)) if scenario in VARIANTS
                          else scenario)
    steps = []

    def recording(cols, fld, dt, rng):
        steps.append(dt)
        step_obstacles(cols, fld, dt, rng)

    monkeypatch.setattr(mission_module, "step_obstacles", recording)
    report = run_mission(sc, seed)
    assert report.success
    assert any(r[1] == "local" for r in report.replans) == hazard
    assert sum(steps) == pytest.approx(report.path_time, rel=0.0, abs=1e-9)
    assert max(steps) <= mission_module.OBSTACLE_STEP + sc.mission.dt
    paths = int(np.sum(report.path_rows[:, 1] == 0))
    assert len(steps) <= math.ceil(report.path_time / mission_module.OBSTACLE_STEP) + paths


# `tests/golden.json`'s `run hazard_world` hashes from when the obstacles stepped on
# every tick, with the Brownian jitter.
EVERY_TICK_HASHES = {
    6: {
        "de_traces.csv": "000a889d4362e0d791916c879f93aafae51dd65db2c15140eaed6741794cd1b9",
        "field.csv": "5522f40782d5e6cdb95e8c48ecdf680558233ce6854d0d820161e990f1176317",
        "legs.csv": "91e98d5092aac2d3f498f22e71a2c4c3866256e88dafab700811a882f891b740",
        "paths.csv": "36a017446829e7ebf00694e78422b5bab504dbe7daf72219b41d74c05118158a",
        "replans.csv": "2bac3621bff7f4210b3458e6386575c649ae951865ea2f49b1c05100e84f7a6b",
        "report.txt": "b8400b310d4754cea748c6408f34518ee8fca6193e367ce51f38ac7ad15336e1",
        "ticks.csv": "41af1fd324e3aa0fae1c662886cc0d75114c7b2559cad4a63dca925bac63be07",
    },
    26: {
        "de_traces.csv": "4fbb90e21d1a035866b45af22acdf0d1794c03196be99da0e82e47b8787b2864",
        "field.csv": "60fbad1e5627d2207a9afad84503af17ea277c289060e8862e576624299d07d5",
        "legs.csv": "fb9ab2e7e68a0bed3c8ceda04a3455fe9da3522d4fec6bee1ac1981a9bfa00b9",
        "paths.csv": "512be827802175bbb4b7066da6836a4472d81e41fccd442bfad7177d6cde56cc",
        "replans.csv": "36ec9c2f98e1f54c0b585e6e04f0b876540592728aaf9a6ebe6b3524800d464f",
        "report.txt": "6c0d43cb69d564ca25266c458a85ac0ae774c014c9d0a095dfbf69c533df9fd2",
        "ticks.csv": "62a0c408d634f7409e283949f217791b1dd340acd7fa1c8379c8190d99702ed2",
    },
}


@pytest.mark.parametrize("seed", sorted(EVERY_TICK_HASHES))
def test_obstacle_step_of_one_tick_flies_the_every_tick_mission(seed, tmp_path, monkeypatch):
    # OBSTACLE_STEP is the integration step of one model, not a second model: at the
    # tick's length every tick steps, and the outputs are byte for byte those of
    # stepping on every tick.
    monkeypatch.setattr(mission_module, "OBSTACLE_STEP", 1.0)
    assert artifact_hashes(f"run hazard_world --seed {seed}", tmp_path) == EVERY_TICK_HASHES[seed]


@st.composite
def obstacles_near_path(draw):
    """1-4 obstacles of every kind within 125 m of still_path's line; an
    uncertain one's current radius may lie above or below its base."""
    out = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["static", "uncertain", "mobile"]))
        base = draw(st.floats(20.0, 200.0))
        out.append(Obstacle(
            id=i + 1, kind=kind,
            position=(draw(st.floats(0.0, 1300.0)), draw(st.floats(880.0, 1120.0)),
                      draw(st.floats(70.0, 130.0))),
            radius=draw(st.floats(20.0, 200.0)) if kind == "uncertain" else base,
            radius_sigma=draw(st.floats(0.0, 30.0)), motion_sigma=draw(st.floats(0.0, 0.5)),
            base_radius=base))
    return out


@settings(max_examples=200, deadline=None)
@given(obstacles=obstacles_near_path(), tau_share=st.floats(0.0, 1.0),
       sensing=st.floats(100.0, 1500.0), margin=st.floats(0.0, 50.0))
# Radius 100 above base 60, margin 20: the envelope is max(120, 60 + 20 + 2.05 * 20) = 121 m,
# so a path 140 m off is clear. Adding the spread to the current radius (161 m) would flag it.
@example(obstacles=[Obstacle(id=1, kind="uncertain", position=(600.0, 1140.0, 100.0),
                             radius=100.0, radius_sigma=20.0, base_radius=60.0)],
         tau_share=0.0, sensing=1500.0, margin=20.0)
def test_hazard_tests_each_sample_against_the_planners_envelope(obstacles, tau_share,
                                                                 sensing, margin):
    # The executor must ask the question the local planner answered: a remaining
    # sample k is hit when it lies inside obs.inflated(h_k, speed, margin), the
    # envelope the planner avoided, at the sample's own horizon h_k.
    path, _ = still_path(length=1000.0)
    fld = VortexField(vortices=(VortexParams(center=(600.0, 1200.0), radius=200.0,
                                             strength=3000.0),))
    tau = tau_share * path.duration
    pos = reference_position_at_time(path, tau)
    cols = ObstacleColumns.of(obstacles)
    cols.track(fld)
    k0 = reference_sample_index_at_time(path, tau)
    expected = None
    for obs in obstacles:
        dx, dy, dz = (obs.position[i] - pos[i] for i in range(3))
        if obs.kind == "static" or dx * dx + dy * dy + dz * dz > sensing ** 2:
            continue
        speed = current_at(obs.position[:2], fld).magnitude
        d2 = np.sum((path.points[k0:] - np.asarray(obs.position)) ** 2, axis=1)
        if any(d <= obs.inflated(h, speed, margin).envelope_radius ** 2
               for d, h in zip(d2, path.times[k0:] - tau)):
            expected = obs.id
            break
    assert _hazard(pos, path, tau, k0, cols, sensing, margin) == expected


def test_hazard_on_the_planned_path_replans_the_leg_around_it():
    ex = _Executor(two_station_scenario(), 7)
    ex.obstacles = ObstacleColumns.of(())
    plan = ex._plan_leg(ex.network.position(1), ex.network.position(2), horizon=0.0)
    k = int(np.searchsorted(plan.path.times, 150.0))  # about 300 m along the leg
    # An uncertain obstacle without spread stands still at its base radius.
    blocker = Obstacle(id=9, kind="uncertain", position=tuple(plan.path.points[k]),
                       radius=60.0)
    ex.obstacles = ObstacleColumns.of([blocker])
    leg = LegOutcome(from_id=1, to_id=2, planned=0.0, actual=0.0)
    ex._execute_path(plan.path, 0, leg, allow_replans=True)
    assert [r[1:] for r in ex.report.replans] == [("local", "hazard obstacle 9")]
    assert leg.local_replans == 1
    np.testing.assert_array_equal(ex.position, plan.path.end)
    envelope = blocker.inflated(0.0, 0.0, ex.sc.mission.obstacle_margin).envelope_radius
    # The paths table holds the plan's samples, then the replan's, each from sample 0.
    rows = ex._finalize(ex.report).path_rows
    starts = np.flatnonzero(rows[:, 1] == 0).tolist()
    assert starts == [0, len(plan.path.points)]
    replanned = rows[starts[1]:, 2:5]
    gap = np.linalg.norm(replanned - np.asarray(blocker.position), axis=1)
    assert gap.min() > envelope


# --- recovery ---------------------------------------------------------------


def small_mission(records, edges, **mission):
    """A 2 x 2 km world with a coast border, no current, no obstacles, explicit stations."""
    return from_dict({
        "name": "recovery", "seed": 5,
        "field": {"x": 2000.0, "y": 2000.0, "z": 200.0},
        "map": {"width": 200, "height": 200, "cell_size": 10.0, "islands": 0,
                "coast_border": 2},
        "current": {"count": [0, 0]},
        "obstacles": {"count": 0},
        "network": {"records": records, "edges": edges, "start": 1, "goal": 2},
        "vehicle": {"cruise_speed": 2.0, "time_budget": 3600.0},
        "de_global": {"population": 8, "generations": 8, "restarts": 1},
        "de_local": {"population": 16, "generations": 25},
        "mission": mission})


def test_trapped_mid_leg_retreats_to_the_leg_start_and_replans_without_the_edge(monkeypatch):
    # Triangle 1-2-3: with either edge out of station 1 blocked, the other
    # still reaches goal 2.  The leg flies 0, then 1 hazard replans out before
    # the replan that finds no path.
    for replans_out in (0, 1):
        sc = small_mission([{"id": 1, "position": [200.0, 1000.0, 50.0]},
                            {"id": 2, "position": [1800.0, 1000.0, 50.0]},
                            {"id": 3, "position": [1000.0, 1600.0, 50.0], "value": 2}],
                           [[1, 2], [1, 3], [3, 2]])
        sc.current.count = [3, 3]  # a current, so that the paths flown sway
        ex = _Executor(sc, sc.seed)
        hazards = []

        def hazard(position, path, tau, *args):  # about 120 m into each path flown out
            if len(hazards) > replans_out or tau < 60.0:
                return None
            hazards.append(tau)
            return 9

        def replan_until_boxed_in(*args, **kwargs):  # the last hazard's replan finds no path
            if len(hazards) > replans_out:
                raise NoFeasiblePathError("boxed in")
            return replan_local(*args, **kwargs)

        monkeypatch.setattr("uuvsim.mission._hazard", hazard)
        monkeypatch.setattr("uuvsim.mission.replan_local", replan_until_boxed_in)
        flown = []  # the paths of leg 0: its plan, the hazard replans, the retreat
        plan_leg = ex._plan_leg

        def recording_plan_leg(*args, **kwargs):
            plan = plan_leg(*args, **kwargs)
            if not ex.report.legs:
                flown.append(plan.path)
            return plan

        ex._plan_leg = recording_plan_leg
        routes, blocked = [], []
        plan_route = ex._plan_route

        def recording_plan_route(start, generations_factor=1.0):
            blocked.append(set(ex.blocked))
            plan = plan_route(start, generations_factor)
            routes.append(plan.route.sequence)
            return plan

        ex._plan_route = recording_plan_route
        report = ex.run()

        target = routes[0][1]
        first = report.legs[0]
        assert (first.from_id, first.to_id, first.aborted) == (1, 1, True)
        # The aborted leg's time counts the way out (60 s per path) and the way back.
        leg0 = [t[0] for t in report.ticks if t[5] == 0]
        retreat = report.replans[replans_out]
        assert first.actual == leg0[-1] == retreat[0] and first.actual > sum(hazards) + 30.0
        assert report.path_time == pytest.approx(sum(leg.actual for leg in report.legs))
        np.testing.assert_allclose([t[1:4] for t in report.ticks if t[5] == 0][-1],
                                   ex.network.position(1), atol=1e-6)
        assert [r[1:] for r in report.replans[:replans_out + 2]] == (
            [("local", "hazard obstacle 9")] * replans_out
            + [("local", "retreat to leg start"), ("global", "no feasible local path")])
        # The row counts the replans flown out and the limits of every path flown.
        assert first.local_replans == replans_out and len(flown) == replans_out + 2
        assert first.max_surge == max(float(np.max(p.surge)) for p in flown) > 0
        assert first.max_sway == max(float(np.max(np.abs(p.sway))) for p in flown) > 0
        assert first.max_yaw_rate == max(float(np.max(np.abs(p.yaw_rate))) for p in flown) > 0
        # The edge is masked for the replan that excludes it, and for no other plan.
        assert blocked[0] == set() and blocked[1] == {tuple(sorted((1, target)))}
        assert all(b == set() for b in blocked[2:]) and ex.blocked == set()
        assert report.success and report.executed_sequence[0] == 1
        assert report.executed_sequence[1] != target


def test_edge_failure_after_an_aborted_leg_fires_at_the_next_arrival(monkeypatch):
    # Leg 0 flies out along 1-4 and aborts, so legs.csv has 2 rows at the
    # first arrival, at 3: the failure of 1-4 fires there, as a failure
    # whose after_leg the first arrival passes.
    sc = small_mission([{"id": 1, "position": [200.0, 1000.0, 50.0]},
                        {"id": 2, "position": [1800.0, 1000.0, 50.0]},
                        {"id": 3, "position": [1000.0, 1000.0, 50.0], "value": 2},
                        {"id": 4, "position": [600.0, 1500.0, 50.0], "value": 2}],
                       [[1, 3], [3, 2], [1, 4], [3, 4]],
                       edge_failures=[{"after_leg": 1, "edge": [1, 4]}])
    ex = _Executor(sc, sc.seed)
    hazards = []

    def hazard(position, path, tau, *args):  # once, 120 m into leg 0
        if hazards or tau < 60.0:
            return None
        hazards.append(tau)
        return 9

    def boxed_in(*args, **kwargs):
        raise NoFeasiblePathError("boxed in")

    monkeypatch.setattr("uuvsim.mission._hazard", hazard)
    monkeypatch.setattr("uuvsim.mission.replan_local", boxed_in)
    report = ex.run()
    assert [(leg.from_id, leg.to_id, leg.aborted) for leg in report.legs[:2]] == [
        (1, 1, True), (1, 3, False)]
    arrival = report.ticks[report.ticks[:, 5] == 1][-1, 0]  # at 3
    assert (arrival, "event", "edge (1,4) failed") in report.replans
    assert report.success and ex.network.is_used(1, 4)
    flown = {tuple(sorted(pair)) for pair in zip(report.executed_sequence,
                                                   report.executed_sequence[1:])}
    assert (1, 4) not in flown


def test_hazard_replans_beyond_the_per_leg_limit_raise(monkeypatch):
    sc = small_mission([{"id": 1, "position": [200.0, 1000.0, 50.0]},
                        {"id": 2, "position": [1800.0, 1000.0, 50.0]}], [[1, 2]])
    ex = _Executor(sc, sc.seed)
    plan = ex._plan_leg(ex.network.position(1), ex.network.position(2), horizon=0.0)
    monkeypatch.setattr("uuvsim.mission._hazard", lambda *args: 9)
    monkeypatch.setattr(ex, "_plan_leg", lambda *args, **kwargs: plan)
    leg = LegOutcome(from_id=1, to_id=2, planned=0.0, actual=0.0)
    with pytest.raises(NoFeasiblePathError, match="local replan limit reached"):
        ex._execute_path(plan.path, 0, leg, allow_replans=True)
    assert len(ex.report.replans) == 20 and leg.local_replans == 20


def test_forced_global_replan_beyond_the_limit_ends_the_mission():
    # Edge 2-3 fails at station 2. A route edge is missing, so a replan is
    # forced, and max_global_replans = 0 allows none.
    sc = small_mission([{"id": 1, "position": [200.0, 1000.0, 50.0]},
                        {"id": 2, "position": [1000.0, 1000.0, 50.0], "value": 2},
                        {"id": 3, "position": [1800.0, 1000.0, 50.0], "value": 2}],
                       [[1, 2], [2, 3]], max_global_replans=0, replan_slack=10.0,
                       edge_failures=[{"after_leg": 1, "edge": [2, 3]}])
    sc.network.goal = 3
    report = _Executor(sc, sc.seed).run()
    assert not report.success
    assert report.failure_reason == "replan required (route edge missing) beyond limit"
    assert report.global_replans == 0 and report.executed_sequence == [1, 2]


def test_overrun_leg_onto_a_failed_route_edge_ends_the_mission_at_the_limit():
    # Leg 1->2 overruns (773 s planned, 801 s flown at seed 4) as edge 2-3 of
    # the route ahead fails.  The missing edge forces the replan, and past
    # max_global_replans = 0 the mission ends; taken as an unforced overrun,
    # the route was kept and the next leg flew onto the failed edge.
    doc = yaml.safe_load((Path(uuvsim.__file__).with_name("scenarios")
                          / "two_station.yaml").read_text())
    doc["current"]["peak_speed"] = [0.2, 0.3]
    doc["network"].update(
        records=[{"id": 1, "position": [200.0, 200.0, 50.0]},
                 {"id": 2, "position": [1000.0, 1700.0, 80.0], "value": 5},
                 {"id": 3, "position": [1800.0, 300.0, 80.0]}],
        edges=[[1, 2], [2, 3], [1, 3]], goal=3)
    doc["mission"] = {"max_global_replans": 0, "replan_slack": 0.0,
                      "nominal_speed_factor": 1.0,
                      "edge_failures": [{"after_leg": 1, "edge": [2, 3]}]}
    report = run_mission(from_dict(doc), 4)
    assert report.executed_sequence == [1, 2]
    assert report.legs[0].actual > report.legs[0].planned
    assert not report.success
    assert report.failure_reason == "replan required (route edge missing) beyond limit"


# --- the replan policy's exits ------------------------------------------------

LINE = [{"id": 1, "position": [200.0, 1000.0, 50.0]},
        {"id": 2, "position": [700.0, 1000.0, 50.0], "value": 2},
        {"id": 3, "position": [1200.0, 1000.0, 50.0], "value": 2},
        {"id": 4, "position": [1800.0, 1000.0, 50.0], "value": 2}]


def line_mission(stations, **mission):
    """`small_mission` on the first `stations` of LINE, chained 1-2-..., the goal the last."""
    sc = small_mission(LINE[:stations], [[i, i + 1] for i in range(1, stations)], **mission)
    sc.network.goal = stations
    return sc


def test_unforced_overrun_beyond_the_limit_keeps_the_route(monkeypatch):
    # Every leg overruns. The first overrun replans; past the limit of one,
    # the next is not forced, so the mission flies on along the route it has.
    monkeypatch.setattr("uuvsim.mission.should_replan_global",
                        lambda *args, **kwargs: (True, "leg overran plan"))
    sc = line_mission(4, max_global_replans=1)
    report = _Executor(sc, sc.seed).run()
    assert report.success and report.failure_reason == ""
    assert report.global_replans == 1
    assert [r[1:] for r in report.replans] == [("global", "leg overran plan")]
    assert report.executed_sequence == [1, 2, 3, 4]


def refuse_legs_after(monkeypatch, flown: int):
    """Every leg plan after the first `flown` finds no path, at either horizon."""
    calls, real = [], mission_module.plan_local

    def plan_local(*args, **kwargs):
        calls.append(args)
        if len(calls) > flown:
            raise NoFeasiblePathError("boxed in")
        return real(*args, **kwargs)

    monkeypatch.setattr("uuvsim.mission.plan_local", plan_local)
    return calls


def test_no_local_path_beyond_the_limit_ends_the_mission_before_the_reachability_check(
        monkeypatch):
    # Excluding edge 1-2 cuts the goal off too; the limit is checked first.
    calls = refuse_legs_after(monkeypatch, 0)
    sc = line_mission(2, max_global_replans=0)
    report = _Executor(sc, sc.seed).run()
    assert not report.success
    assert report.failure_reason == "replan required (no feasible local path) beyond limit"
    assert report.global_replans == 0 and report.replans == [] and report.legs == []
    assert report.executed_sequence == [1] and len(calls) == 2


def test_no_local_path_that_cuts_the_goal_off_ends_the_mission(monkeypatch):
    # Leg 1-2 flies; both plans of leg 2-3 fail, and without edge 2-3 the goal
    # is cut off from station 2.
    calls = refuse_legs_after(monkeypatch, 1)
    sc = line_mission(3)
    report = _Executor(sc, sc.seed).run()
    assert not report.success and report.failure_reason == "goal cut off from station 2"
    assert report.global_replans == 0 and report.replans == [] and len(report.legs) == 1
    assert report.executed_sequence == [1, 2] and len(calls) == 3


def test_initial_plan_failure_is_prefixed():
    # 1,600 m at 2 * 0.97 m/s is 825 s against a budget of 300 * 0.995 s.
    sc = small_mission([LINE[0], {**LINE[3], "id": 2}], [[1, 2]])
    sc.vehicle.time_budget = 300.0
    report = _Executor(sc, sc.seed).run()
    assert not report.success
    assert report.failure_reason == ("initial plan failed: minimum route time 825s exceeds "
                                     "budget 298s")
    assert report.global_replans == 0 and report.replans == [] and report.legs == []
    assert report.executed_sequence == [1]


def test_battery_exhausted_at_a_station_ends_the_mission():
    # The battery runs out exactly on arrival at station 2, short of the goal.
    sc = line_mission(3)
    ex = _Executor(sc, sc.seed)
    after_leg = ex._after_leg

    def drained():
        after_leg()
        ex.budget = ex.elapsed

    ex._after_leg = drained
    report = ex.run()
    assert not report.success and report.failure_reason == "battery exhausted at station"
    assert report.global_replans == 0 and report.replans == [] and len(report.legs) == 1
    assert report.executed_sequence == [1, 2] and report.residual_time == 0.0


# --- warm-started global replans ----------------------------------------------


def route_cost(network, sequence, visited, budget: float, speed: float) -> float:
    """`walk_cost` of flying `sequence` on `network`, as the route planner scores
    the same walk; inf when one of its edges is gone, used or masked."""
    distance = 0.0
    for a, b in zip(sequence, sequence[1:]):
        if not network.has_edge(a, b) or network.is_used(a, b):
            return math.inf
        distance += edge_length(network.stations[a].position, network.stations[b].position)
    value, seen = 0.0, set(visited) | {sequence[0]}
    for s in sequence[1:]:
        if s not in seen:
            value += network.stations[s].value
            seen.add(s)
    return walk_cost(distance / speed, value, network.size, budget)


@functools.lru_cache(maxsize=None)
def replan_log(name: str, seed: int) -> tuple[dict, ...]:
    """Fly one mission and record each global replan that planned: its reason,
    the route it kept (the last plan's stations from the vehicle on), what
    the seeded genes decode to, the route it returned, and both routes'
    `walk_cost` over the replan's budget on the network it planned over."""
    ex = _Executor(resolve_scenario(name), seed)
    plan_route, replan_global = ex._plan_route, ex._replan_global
    last, log = {}, []

    def recording_plan_route(start, generations_factor=1.0):
        plan = plan_route(start, generations_factor)
        last.update(plan=plan, at=len(ex.report.executed_sequence))
        return plan

    def recording_replan_global(current, reason, forced):
        kept_plan = last["plan"]
        kept = kept_plan.route.sequence[len(ex.report.executed_sequence) - last["at"]:]
        network, visited = ex._planning_network(), frozenset(ex.visited)
        budget = (ex.budget - ex.elapsed) * ex.sc.mission.budget_margin
        graph = decode_graph(network, network.goal_id, ex.speed)
        try:
            seeded = decode_route(ex.seed_genes[0], graph, current, budget, visited).sequence
        except UndecodableError:
            seeded = None
        ahead = replan_global(current, reason, forced)
        if last["plan"] is not kept_plan:
            new = last["plan"].route.sequence
            new_cost = route_cost(network, new, visited, budget, ex.speed)
            assert kept[0] == current and new_cost == last["plan"].cost
            log.append({"reason": reason, "kept": kept, "seeded": seeded, "new": new,
                        "kept_cost": route_cost(network, kept, visited, budget, ex.speed),
                        "new_cost": new_cost})
        return ahead

    ex._plan_route, ex._replan_global = recording_plan_route, recording_replan_global
    assert ex.run().success
    return tuple(log)


# With cold-started replans, each of these three missions had a "leg overran
# plan" replan that returned a costlier route than the one it replaced.
REGRESSED_SEEDS = (20180521, 20180534, 20180548)


@pytest.mark.parametrize("seed", REGRESSED_SEEDS)
def test_overrun_replan_whose_seed_genes_decode_to_the_route_keeps_it(seed):
    first = replan_log("paper_baseline", seed)[0]
    assert first["reason"] == "leg overran plan" and first["seeded"] == first["kept"]
    assert first["new"] == first["kept"]


@pytest.mark.parametrize("seed", REGRESSED_SEEDS)
def test_no_global_replan_returns_a_costlier_route(seed):
    log = replan_log("paper_baseline", seed)
    assert log and all(r["new_cost"] <= r["kept_cost"] for r in log)
