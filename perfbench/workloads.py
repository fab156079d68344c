"""The four workloads: world set-up, one round of requests, and their checks.

A round is a fixed list of requests; every run attempts whole rounds. Each
request is a call into the program's public API, looked up through its module
at call time so that the traced run sees it. The benchmark seed derives the
request inputs; the program receives only those inputs. Import this module
after ./src is on sys.path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from uuvsim import cli, env, network, scenario, seeding
from uuvsim import global_planner as gp
from uuvsim import local_planner as lp

HERE = Path(__file__).resolve().parent

# World seed of the paper_baseline instance the planning workloads draw from,
# and the mission seed of paper_mission: it replans globally 4 times over
# ~14.2k ticks and 13 legs. Mission cost differs by up to ~35 % between seeds,
# so a seed-drawn mission would swamp any bound.
PAPER_SEED = 42

# mc_batch runs trials 1008..1011 of the reduced scenario. Per-trial cost
# ranges 1.4-10 s over seeds with the station count, so a seed-drawn batch of
# four would swamp any bound. These four all complete their missions; 5 of
# seeds 1000..1039 run out of budget, a modelled outcome, not a fault.
MC_BASE_SEED = 1008
MC_TRIALS = 4
MC_JOBS = 2


@dataclass
class Request:
    kind: str                       # name of the median it feeds, e.g. 'leg_replan_p50_s'
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    then: Callable[[Any], list] = field(default=lambda out: [])  # follow-up requests
    # (operations attempted, operations failed) in the output; a trial is one
    # operation of a batch.
    operations: Callable[[Any], tuple[int, int]] = field(default=lambda out: (1, 0))
    reports: Callable[[Any], list] = field(default=lambda out: [])  # MissionReports


def _world(sc, seed: int) -> dict:
    cmap = scenario.build_map(sc, seed)
    fld = scenario.build_field(sc, seed)
    net = scenario.build_network_from_spec(sc, cmap, seed)
    obstacles = scenario.build_obstacles(sc, cmap, net, seed)
    return {"sc": sc, "cmap": cmap, "field": fld, "network": net, "obstacles": obstacles}


def _speed(sc) -> float:
    return sc.vehicle.cruise_speed * sc.mission.nominal_speed_factor


class Workload:
    name = ""

    def setup(self) -> dict:
        """World build before the timed part; timed as setup_s."""
        raise NotImplementedError

    def round(self, world: dict, seed: int, work_dir: Path) -> list[Request]:
        raise NotImplementedError


class PaperMission(Workload):
    """`uuvsim run` on paper_baseline: set-up, mission and artifacts."""

    name = "paper_mission"

    def setup(self):
        return _world(scenario.resolve_scenario("paper_baseline"), PAPER_SEED)

    def round(self, world, seed, work_dir):
        sc, cmap = world["sc"], world["cmap"]
        out_dir = work_dir / "mission"

        def check(result):
            checks.check_mission(checks.mission_from_files(out_dir), world["network"],
                                 cmap.occupancy, cmap.grid.cell_size, sc)
            checks.check_field_csv(out_dir / "field.csv", world["field"].vortices,
                                   np.random.default_rng(seed))

        return [Request("mission_wall_s", "run_once",
                        lambda: cli.run_once(sc, PAPER_SEED, out_dir), check,
                        operations=lambda r: (1, 0 if r[0].success else 1),
                        reports=lambda r: [r[0]])]


def _mid_mission(net, fld, cmap, sc, legs: int, rng: np.random.Generator):
    """Walk `legs` random edges from the start as the executor would.

    Each leg consumes its edge, then every drifting station drifts. Elapsed
    time runs 4 % over the nominal edge time, like executed legs do. The goal
    is never entered early, and a walk after which the minimum-time route no
    longer fits the remaining budget is drawn again.
    """
    speed = _speed(sc)
    start_net = net
    while True:
        net, cur, visited, elapsed = start_net, start_net.start_id, set(), 0.0
        for _ in range(legs):
            options = []
            for a, b in sorted(net.edges - net.used):
                if cur in (a, b):
                    nxt = b if a == cur else a
                    rest = network.consume_edge(net, cur, nxt)
                    if nxt != net.goal_id and rest.goal_reachable(nxt):
                        options.append(nxt)
            nxt = options[int(rng.integers(len(options)))]
            elapsed += network.edge_metrics(net, cur, nxt, speed)[1] * 1.04
            net = network.drift_stations(network.consume_edge(net, cur, nxt), fld, cmap, rng)
            visited.add(nxt)
            cur = nxt
        budget = (sc.vehicle.time_budget - elapsed) * sc.mission.budget_margin
        pos = {sid: np.asarray(st.position, dtype=float) for sid, st in net.stations.items()}
        fastest = checks.min_time_to(net.goal_id, pos, net.edges - net.used, speed)
        if fastest.get(cur, math.inf) <= budget:
            return net, cur, frozenset(visited), budget


class RoutePlanning(Workload):
    """plan_global requests: initial plans and mid-mission replans."""

    name = "route_planning"

    def setup(self):
        world = _world(scenario.resolve_scenario("paper_baseline"), PAPER_SEED)
        world["networks"] = {
            20: world["network"],
            40: scenario.build_network_from_spec(world["sc"], world["cmap"], PAPER_SEED,
                                                 station_count=40)}
        return world

    def round(self, world, seed, work_dir):
        sc = world["sc"]
        speed = _speed(sc)
        rng = np.random.default_rng([seed, 1])
        # (network size, legs already flown); 0 legs is an initial plan.
        specs = [(20, 0), (20, 4), (40, 4)]
        requests = []
        for k, (n, legs) in enumerate(specs):
            net = world["networks"][n]
            cfg = scenario.de_config_from_spec(sc.de_global)
            if legs == 0:
                cur, visited = net.start_id, frozenset()
                budget = sc.vehicle.time_budget * sc.mission.budget_margin
            else:
                net, cur, visited, budget = _mid_mission(net, world["field"], world["cmap"],
                                                         sc, legs, rng)
                cfg.generations = max(1, int(round(
                    cfg.generations * sc.mission.replan_generation_factor)))
            plan_rng = seeding.stream(seed, seeding.DE_GLOBAL, k)

            def call(net=net, cur=cur, budget=budget, cfg=cfg, plan_rng=plan_rng,
                     visited=visited):
                return gp.plan_global(net, cur, net.goal_id, budget, speed, cfg,
                                      restarts=sc.de_global.restarts, rng=plan_rng,
                                      visited=visited)

            def check(plan, net=net, cur=cur, budget=budget, visited=visited):
                checks.check_route(plan, net, cur, net.goal_id, budget, speed, visited)

            kind = "route_plan_p50_s" if legs == 0 else "route_replan_p50_s"
            requests.append(Request(kind, f"{n}st-{legs}legs", call, check))
        return requests


def _planning_env(world, horizon: float):
    """Obstacle envelopes inflated for a prediction horizon, as the executor does."""
    margin = world["sc"].mission.obstacle_margin
    inflated = tuple(
        obs.inflated(horizon, env.current_at(obs.position[:2], world["field"]).magnitude,
                     margin=margin)
        for obs in world["obstacles"])
    return env.EnvSnapshot(world["cmap"], world["field"], inflated)


def _chord_clear(world, p_i, p_j, obstacles) -> bool:
    """True when the straight chord passes the leg check's clearance and limits."""
    cmap, sc = world["cmap"], world["sc"]
    pts = p_i[None, :] + np.linspace(0.0, 1.0, sc.spline.samples)[:, None] * (p_j - p_i)[None, :]
    try:
        checks.leg_clearance(pts, world["coast"], cmap.grid.cell_size,
                             cmap.grid.depth_extent, obstacles)
        checks.leg_kinematics(pts, world["field"].vortices, sc.vehicle)
    except checks.CheckError:
        return False
    return True


class LegPlanning(Workload):
    """plan_local requests over paper_baseline edges, each followed by a
    warm-started hazard replan from part-way along the accepted path."""

    name = "leg_planning"
    QUANTILES = (0.2, 0.6)
    BLOCKED_REPLAN_AT = 0.5  # share of a blocked leg's path flown before its replan

    def setup(self):
        return _world(scenario.resolve_scenario("paper_baseline"), PAPER_SEED)

    def legs(self, world):
        """Edges at fixed length quantiles among those whose straight chord is
        clear under the initial-plan envelopes, then every edge whose chord is
        blocked, as (length, a, b, envelopes, blocked).

        The straight chord seeds every plan, so a clear-chord request cannot
        end without a clean path. A blocked leg must detour round an island or
        an envelope; no seed guarantees that DE finds the detour, so its plan
        and replan use pinned streams and its outcome is the same every run."""
        net, speed = world["network"], _speed(world["sc"])
        clear, blocked = [], []
        for a, b in sorted(net.edges):
            d, t = network.edge_metrics(net, a, b, speed)
            snap = _planning_env(world, t)
            if _chord_clear(world, net.position(a), net.position(b), snap.obstacles):
                clear.append((d, a, b, snap, False))
            else:
                blocked.append((d, a, b, snap, True))
        clear.sort(key=lambda u: u[0])
        return [clear[min(len(clear) - 1, int(q * len(clear)))] for q in self.QUANTILES] + blocked

    def round(self, world, seed, work_dir):
        sc, cmap = world["sc"], world["cmap"]
        weights, spline = scenario.weights_from_spec(sc), scenario.spline_from_spec(sc)
        rng = np.random.default_rng([seed, 2])
        if "legs" not in world:
            world["coast"] = checks.dilated(cmap.occupancy)
            world["legs"] = self.legs(world)

        def check_path(path, p_i, p_j, snap):
            checks.check_leg(path, p_i, p_j, world["coast"], cmap.grid.cell_size,
                             cmap.grid.depth_extent, snap.obstacles, world["field"].vortices,
                             sc.vehicle)

        def replan(path, p_j, fractions, k, plan_seed):
            """Replan from the first of `fractions` of the path whose straight
            remainder is clear, or else from the last one."""
            for f in fractions:
                tau = float(f) * path.duration
                pos = path.position_at_time(tau)
                snap = _planning_env(world, float(np.linalg.norm(p_j - pos)) / _speed(sc))
                if _chord_clear(world, pos, p_j, snap.obstacles):
                    break
            cfg = scenario.de_config_from_spec(sc.de_local)
            cfg.generations = max(1, int(round(
                cfg.generations * sc.mission.replan_generation_factor)))

            def call():
                return lp.replan_local(pos, p_j, snap, weights, spline, cfg,
                                       rng=seeding.stream(plan_seed, seeding.DE_LOCAL, 100 + k),
                                       previous=path, previous_elapsed=tau)

            return Request("leg_replan_p50_s", f"leg{k}@{f:.2f}", call,
                           lambda plan: check_path(plan.path, pos, p_j, snap))

        requests = []
        for k, (_, a, b, snap, blocked) in enumerate(world["legs"]):
            p_i, p_j = world["network"].position(a), world["network"].position(b)
            cfg = scenario.de_config_from_spec(sc.de_local)
            if blocked:
                plan_seed, fractions = PAPER_SEED, (self.BLOCKED_REPLAN_AT,)
            else:
                # Eight drawn points, then the leg's start: its chord and
                # envelopes are those the leg was chosen for, so it qualifies.
                plan_seed, fractions = seed, (*rng.uniform(0.3, 0.6, size=8), 0.0)

            def call(p_i=p_i, p_j=p_j, snap=snap, cfg=cfg, k=k, plan_seed=plan_seed):
                return lp.plan_local(p_i, p_j, snap, weights, spline, cfg,
                                     rng=seeding.stream(plan_seed, seeding.DE_LOCAL, k))

            requests.append(Request(
                "leg_plan_p50_s", f"{a}-{b}", call,
                lambda plan, p_i=p_i, p_j=p_j, snap=snap: check_path(plan.path, p_i, p_j, snap),
                then=lambda plan, p_j=p_j, fractions=fractions, k=k, plan_seed=plan_seed:
                    [replan(plan.path, p_j, fractions, k, plan_seed)]))
        return requests


class McBatch(Workload):
    """`uuvsim montecarlo --jobs 2` on the reduced scenario in scenarios/."""

    name = "mc_batch"

    def setup(self):
        sc = scenario.resolve_scenario(str(HERE / "scenarios" / "mc_reduced.yaml"))
        return _world(sc, MC_BASE_SEED)

    def round(self, world, seed, work_dir):
        sc = world["sc"]
        out_dir = work_dir / "batch"

        def check(summary):
            checks.check_batch(summary, MC_TRIALS, MC_BASE_SEED, out_dir / "trials.csv")
            lo, hi = (int(v) for v in sc.montecarlo.stations)
            for row in summary.rows:
                count = int(seeding.stream(row["seed"], seeding.NETWORK, 9).integers(lo, hi + 1))
                cmap = scenario.build_map(sc, row["seed"])
                net = scenario.build_network_from_spec(sc, cmap, row["seed"], station_count=count)
                checks.check_mission(checks.mission_from_report(row["report"]), net,
                                     cmap.occupancy, cmap.grid.cell_size, sc)

        return [Request("mc_batch_wall_s", "run_monte_carlo",
                        lambda: cli.run_monte_carlo(sc, MC_TRIALS, MC_BASE_SEED, out_dir,
                                                    jobs=MC_JOBS),
                        check,
                        operations=lambda s: (len(s.rows),
                                              sum(1 for r in s.rows if not r["success"])),
                        reports=lambda s: s.reports)]


WORKLOADS = {w.name: w for w in (PaperMission(), RoutePlanning(), LegPlanning(), McBatch())}
