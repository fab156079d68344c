"""Reactive mission executor.

Runs the plan/execute/replan loop: a global route over the network, a local
path per leg, tick-level traversal with obstacle motion and hazard-triggered
local replans, and station-level global replans, warm-started from the plan
they replace, whenever a leg overran its plan, the remaining route broke, or
the remaining budget no longer covers it.
A leg no local path reaches (at its nominal horizon, then at horizon 0, or
after a retreat from mid-leg) has its edge excluded until the world next moves,
and the route is replanned without it.  All timing is accounted against the
battery budget; the mission succeeds when the goal station is reached with
non-negative residual time.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeding
from .env import (EnvSnapshot, ObstacleColumns, envelope, perturb_field, points_in_collision,
                  step_obstacles)
from .errors import (NoFeasiblePathError, NoFeasibleRouteError, UndecodableError,
                     UnreachableGoalError)
from .global_planner import GlobalPlan, plan_global, walk_cost
from .local_planner import LocalPath, LocalPlan, plan_local, replan_local
from .network import Network, _pair, consume_edge, drift_stations, edge_metrics
from .scenario import (Scenario, build_field, build_map, build_network_from_spec,
                       build_obstacles, de_config_from_spec, spline_from_spec,
                       weights_from_spec)

_MAX_LOCAL_REPLANS_PER_LEG = 20
# Seconds of mission time between obstacle steps.  The mobile jitter is
# Brownian per second, so a coarser step integrates the same stochastic model
# with a coarser Euler-Maruyama step; at or below `mission.dt` every tick steps.
OBSTACLE_STEP = 10.0


@dataclass
class LegOutcome:
    from_id: int
    to_id: int
    planned: float
    actual: float
    local_replans: int = 0
    max_surge: float = 0.0
    max_sway: float = 0.0
    max_yaw_rate: float = 0.0
    value_gained: float = 0.0
    aborted: bool = False


@dataclass
class MissionReport:
    scenario: str
    seed: int
    success: bool = False
    failure_reason: str = ""
    global_replans: int = 0
    path_time: float = 0.0          # total executed time
    residual_time: float = 0.0
    total_value: float = 0.0
    stations_visited: int = 0
    total_cost: float = 0.0
    wall_clock: float = 0.0         # informational only; never serialized
    legs: list[LegOutcome] = field(default_factory=list)
    ticks: np.ndarray = field(default_factory=lambda: np.empty((0, 6)))  # rows t, x, y, z, yaw, leg
    replans: list[tuple] = field(default_factory=list)    # (t, kind, reason)
    # Per-sample rows of executed paths: leg, sample, x, y, z, yaw, pitch, surge, sway,
    # yaw_rate, t.
    path_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 11)))
    de_traces: list[tuple] = field(default_factory=list)  # (label, [best costs])
    executed_sequence: list[int] = field(default_factory=list)


def should_replan_global(leg: LegOutcome, remaining_route: list[int], network: Network,
                         remaining_budget: float, speed: float,
                         slack: float = 0.05) -> tuple[bool, str]:
    """Replan when the route broke, time ran short, or the leg overran its plan.

    The budget check recomputes the remaining route time over the drifted
    snapshot; the overrun check allows `slack` relative tolerance.  The two
    forced triggers come first, so "leg overran plan" is an overrun alone.
    """
    total = 0.0
    for a, b in zip(remaining_route, remaining_route[1:]):
        if not network.has_edge(a, b) or network.is_used(a, b):
            return True, "route edge missing"
        total += edge_metrics(network, a, b, speed)[1]
    if total > remaining_budget:
        return True, "remaining route exceeds budget"
    if leg.actual > leg.planned * (1.0 + slack):
        return True, "leg overran plan"
    return False, ""


def _hazard(position: np.ndarray, path: LocalPath, tau: float, k0: int,
            obstacles: ObstacleColumns, sensing_radius: float, margin: float) -> int | None:
    """Id of the first obstacle whose `envelope` cuts the remaining path: its
    samples from `k0`, the sample index at `tau`, on.

    A mobile obstacle's speed is the one `step_obstacles` left in the columns.
    """
    px, py, pz = (float(v) for v in position)
    rem = None
    for i, kind in enumerate(obstacles.kinds):
        if kind == "static":
            continue
        ox, oy, oz = obstacles.x[i], obstacles.y[i], obstacles.z[i]
        dx, dy, dz = ox - px, oy - py, oz - pz
        if dx * dx + dy * dy + dz * dz > sensing_radius ** 2:
            continue
        if rem is None:
            rem, horizons = path.points[k0:], path.times[k0:] - tau
        d2 = np.sum((rem - np.array((ox, oy, oz))) ** 2, axis=1)
        r = envelope(kind, obstacles.radius[i], obstacles.base_radius[i],
                     obstacles.radius_sigma[i], obstacles.motion_sigma[i], horizons,
                     obstacles.speed[i], margin)
        if np.any(d2 <= r ** 2):
            return obstacles.ids[i]
    return None


def path_ticks(path: LocalPath, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every tick of flying a path: tau (n,), position (n, 3) and sample index (n,).

    Each tick advances tau by dt; the last is cut short so that tau lands
    exactly on the path's duration.  Positions and sample indexes are
    `LocalPath.at`'s.
    """
    duration = path.duration
    taus, tau = [], 0.0
    while True:
        tau = tau + max(min(dt, duration - tau), 0.0)
        taus.append(tau)
        if tau >= duration:
            break
    t = np.array(taus)
    return (t, *path.at(t))


class _MissionAbort(Exception):
    """Ends the mission; the message is its failure reason."""


_PLAN_FAILURES = (NoFeasibleRouteError, UnreachableGoalError, UndecodableError)


class _Executor:
    """Owns all mutable mission state; one instance per run_mission call."""

    def __init__(self, sc: Scenario, seed: int, station_count: int | None = None):
        self.sc = sc
        self.seed = seed
        self.cmap = build_map(sc, seed)
        self.base_field = build_field(sc, seed)
        self.field = self.base_field
        self.network = build_network_from_spec(sc, self.cmap, seed, station_count=station_count)
        self.obstacles = ObstacleColumns.of(build_obstacles(sc, self.cmap, self.network, seed))
        self.weights = weights_from_spec(sc)
        self.spline = spline_from_spec(sc)
        self.rng_ticks = seeding.stream(seed, seeding.MISSION, 0)
        self.rng_drift = seeding.stream(seed, seeding.NETWORK, 1)
        self.rng_perturb = seeding.stream(seed, seeding.ENV, 3)
        self.budget = sc.vehicle.time_budget
        # Route timing is derated below cruise so that the physically slower
        # executed paths (spline curvature, adverse current, constraint
        # detours) do not overrun every leg's nominal estimate.
        self.speed = sc.vehicle.cruise_speed * sc.mission.nominal_speed_factor
        self.elapsed = 0.0
        self.unstepped = 0.0  # mission time since the obstacles last stepped
        self.visited: set[int] = set()
        # Edges found locally impassable right now (e.g. a hostile current
        # pocket); blocked only for planning and cleared once the world moves.
        self.blocked: set[tuple[int, int]] = set()
        self.local_plans = 0
        self.seed_genes: tuple[np.ndarray, ...] = ()  # the last global plan's best genes
        self.report = MissionReport(scenario=sc.name, seed=seed)
        # The tick and path tables, one block per path flown.
        self.tick_blocks = [self.report.ticks]
        self.path_blocks = [self.report.path_rows]
        self.rows_at_arrival = 0  # legs.csv rows when the last station was reached
        # The vehicle: where the last tick left it.
        self.position = self.network.position(self.network.start_id)

    # -- planning ------------------------------------------------------------

    def _de_config(self, spec, generations_factor: float):
        """The DE config of a scenario section, its generations scaled by the factor."""
        cfg = de_config_from_spec(spec)
        cfg.generations = max(1, int(round(cfg.generations * generations_factor)))
        return cfg

    def _plan_route(self, start: int, generations_factor: float = 1.0) -> GlobalPlan:
        """A route from `start`; a replan is warm-started from the last plan's genes."""
        cfg = self._de_config(self.sc.de_global, generations_factor)
        rng = seeding.stream(self.seed, seeding.DE_GLOBAL, self.report.global_replans)
        planning_net = self._planning_network()
        plan = plan_global(planning_net, start, planning_net.goal_id,
                           (self.budget - self.elapsed) * self.sc.mission.budget_margin,
                           self.speed, cfg, restarts=self.sc.de_global.restarts, rng=rng,
                           visited=frozenset(self.visited), seed_genes=self.seed_genes)
        self.seed_genes = (plan.genes,)
        for i, trace in enumerate(plan.traces):
            self.report.de_traces.append((f"global-{self.report.global_replans}-r{i}", trace))
        return plan

    def _planning_network(self) -> Network:
        """Network view with transiently impassable edges masked out."""
        if not self.blocked:
            return self.network
        return replace(self.network, used=self.network.used | self.blocked)

    def _planning_env(self, horizon: float) -> EnvSnapshot:
        self.obstacles.track(self.field)
        inflated = tuple(obs.inflated(horizon, speed, margin=self.sc.mission.obstacle_margin)
                         for obs, speed in zip(self.obstacles.rows(), self.obstacles.speed))
        return EnvSnapshot(self.cmap, self.field, inflated)

    def _plan_leg(self, start_pos, target_pos, horizon: float,
                  previous: LocalPath | None = None, elapsed_on_previous: float = 0.0,
                  generations_factor: float = 1.0) -> LocalPlan:
        cfg = self._de_config(self.sc.de_local, generations_factor)
        rng = seeding.stream(self.seed, seeding.DE_LOCAL, self.local_plans)
        self.local_plans += 1
        env = self._planning_env(horizon)
        if previous is None:
            plan = plan_local(start_pos, target_pos, env, self.weights, self.spline, cfg, rng=rng)
        else:
            plan = replan_local(start_pos, target_pos, env, self.weights, self.spline, cfg,
                                rng=rng, previous=previous, previous_elapsed=elapsed_on_previous)
        self.report.de_traces.append((f"local-{self.local_plans - 1}", plan.trace))
        return plan

    # -- execution -----------------------------------------------------------

    def _execute_path(self, path: LocalPath, leg_index: int, leg: LegOutcome,
                      allow_replans: bool):
        """Tick a planned path to its end, replanning locally on hazards.

        The one record of what a leg flew: each path, as it starts, adds its
        rows to the paths table and its limits to the leg's maxima; each tick
        adds its time to `leg.actual`, and each hazard replan counts.  The
        ticks of a path, as far as it was flown, become one block of the tick
        table.  The obstacles step for the time since they last stepped once
        that reaches `OBSTACLE_STEP`, and on the path's last tick, so each
        field moves them only for the time flown under it; across a hazard
        break the time carries over.  The collision and hazard tests read the
        last stepped obstacles.
        """
        mission = self.sc.mission
        while True:
            k = np.arange(len(path.times), dtype=float)
            self.path_blocks.append(np.column_stack(
                (np.full_like(k, leg_index), k, path.points, path.yaw, path.pitch, path.surge,
                 path.sway, path.yaw_rate, path.times)))
            leg.max_surge = max(leg.max_surge, float(np.max(path.surge)))
            leg.max_sway = max(leg.max_sway, float(np.max(np.abs(path.sway))))
            leg.max_yaw_rate = max(leg.max_yaw_rate, float(np.max(np.abs(path.yaw_rate))))
            taus, points, samples = path_ticks(path, mission.dt)
            coast = points_in_collision(points, self.cmap).tolist()
            xyz = points.tolist()
            flown, hazard = [], None  # the elapsed time after each tick flown
            try:
                for i, step in enumerate(np.diff(taus, prepend=0.0).tolist()):
                    before = self.elapsed
                    self.elapsed += step
                    leg.actual += self.elapsed - before
                    flown.append(self.elapsed)
                    if self.elapsed > self.budget:
                        raise _MissionAbort("battery exhausted mid-leg")
                    if coast[i] or self.obstacles.contains(*xyz[i]):
                        raise _MissionAbort("collision during execution")
                    self.unstepped += step
                    arrived = i == len(xyz) - 1
                    if arrived or self.unstepped >= OBSTACLE_STEP:
                        step_obstacles(self.obstacles, self.field, self.unstepped,
                                       self.rng_ticks)
                        self.unstepped = 0.0
                    if arrived:
                        break
                    if allow_replans:
                        hazard = _hazard(points[i], path, taus[i], samples[i], self.obstacles,
                                         mission.sensing_radius, mission.obstacle_margin)
                        if hazard is not None:
                            break
            finally:
                n = len(flown)
                self.position = points[n - 1]
                self.tick_blocks.append(np.column_stack(
                    (flown, points[:n], path.yaw[samples[:n]], np.full(n, float(leg_index)))))
            if hazard is None:
                return
            if leg.local_replans >= _MAX_LOCAL_REPLANS_PER_LEG:
                raise NoFeasiblePathError("local replan limit reached")
            remaining_chord = float(np.linalg.norm(path.end - self.position))
            path = self._plan_leg(self.position, path.end,
                                  horizon=remaining_chord / self.speed,
                                  previous=path, elapsed_on_previous=float(taus[n - 1]),
                                  generations_factor=mission.replan_generation_factor).path
            leg.local_replans += 1
            self.report.replans.append((self.elapsed, "local", f"hazard obstacle {hazard}"))

    def _after_leg(self):
        """Drift, perturbation, and scripted edge failures at a station."""
        self.network = drift_stations(self.network, self.field, self.cmap, self.rng_drift)
        # Perturb around the originally sampled field: chaining the
        # multiplicative update compounds into unbounded parameter drift.
        self.field = perturb_field(self.base_field, self.rng_perturb)
        self.blocked.clear()
        # A failure fires at the first arrival that leaves at least after_leg rows.
        seen, self.rows_at_arrival = self.rows_at_arrival, len(self.report.legs)
        for failure in self.sc.mission.edge_failures:
            if seen < int(failure["after_leg"]) <= self.rows_at_arrival:
                i, j = (int(v) for v in failure["edge"])
                if self.network.has_edge(i, j) and not self.network.is_used(i, j):
                    self.network = consume_edge(self.network, i, j)
                    self.report.replans.append((self.elapsed, "event", f"edge ({i},{j}) failed"))

    # -- main loop -----------------------------------------------------------

    def run(self) -> MissionReport:
        report = self.report
        current = self.network.start_id
        report.executed_sequence = [current]
        try:
            ahead = list(self._plan_route(current).route.sequence[1:])  # stations still to reach
        except _PLAN_FAILURES as exc:
            report.failure_reason = f"initial plan failed: {exc}"
            return self._finalize(report)

        try:
            while current != self.network.goal_id:
                target = ahead.pop(0)
                if not self._fly_leg(current, target):
                    # No path to the target: mask its edge until the world moves.
                    self.blocked.add(_pair(current, target))
                    ahead = self._replan_global(current, "no feasible local path", forced=True)
                    continue
                leg = report.legs[-1]
                if target not in self.visited and target != self.network.start_id:
                    leg.value_gained = self.network.stations[target].value
                    report.total_value += leg.value_gained
                    self.visited.add(target)
                self.network = consume_edge(self.network, current, target)
                current = target
                report.executed_sequence.append(current)
                self._after_leg()

                if current == self.network.goal_id:
                    break
                remaining_budget = self.budget - self.elapsed
                if remaining_budget <= 0:
                    raise _MissionAbort("battery exhausted at station")
                flag, reason = should_replan_global(leg, [current, *ahead], self.network,
                                                    remaining_budget, self.speed,
                                                    slack=self.sc.mission.replan_slack)
                if flag:  # an overrun alone leaves a route that still reaches the goal
                    forced = reason != "leg overran plan"
                    ahead = self._replan_global(current, reason, forced) or ahead

            report.success = True
        except (_MissionAbort, *_PLAN_FAILURES) as exc:
            report.failure_reason = str(exc)
        return self._finalize(report)

    def _fly_leg(self, current: int, target: int) -> bool:
        """Plan and fly the leg to `target`; whether the vehicle reached it.

        Trapped mid-leg, the vehicle retreats to `current` and the row is marked
        aborted; a leg with no plan, or whose flight ends the mission, has no row.
        """
        _, t_planned = edge_metrics(self.network, current, target, self.speed)
        start, end = self.network.position(current), self.network.position(target)
        # The retry at horizon 0 uses unexpanded envelopes: a predicted-motion
        # envelope parked over either endpoint would otherwise block every candidate.
        for horizon in (t_planned, 0.0):
            try:
                path = self._plan_leg(start, end, horizon=horizon).path
                break
            except NoFeasiblePathError:
                continue
        else:
            return False

        leg_index, leg_start = len(self.report.legs), self.elapsed
        leg = LegOutcome(from_id=current, to_id=target, planned=t_planned, actual=0.0)
        try:
            self._execute_path(path, leg_index, leg, allow_replans=True)
        except NoFeasiblePathError:
            try:
                self._retreat(current, leg_index, leg)
            except NoFeasiblePathError:
                raise _MissionAbort("trapped mid-leg with no retreat path")
            leg.to_id, leg.actual, leg.aborted = current, self.elapsed - leg_start, True
        self.report.legs.append(leg)
        return not leg.aborted

    def _replan_global(self, current: int, reason: str, forced: bool) -> list[int] | None:
        """The stations ahead of a new route from `current`; None keeps the route.

        Past `max_global_replans` a forced replan ends the mission and an unforced
        one keeps the route.  An edge masked at this station may cut the goal off.
        """
        if self.report.global_replans >= self.sc.mission.max_global_replans:
            if forced:
                raise _MissionAbort(f"replan required ({reason}) beyond limit")
            return None
        if self.blocked and not self._planning_network().goal_reachable(current):
            raise _MissionAbort(f"goal cut off from station {current}")
        self.report.replans.append((self.elapsed, "global", reason))
        self.report.global_replans += 1
        plan = self._plan_route(current, generations_factor=self.sc.mission.replan_generation_factor)
        return list(plan.route.sequence[1:])

    def _retreat(self, station: int, leg_index: int, leg: LegOutcome):
        """Fly back to the leg's start station, recording the path in `leg`; no replans."""
        start_pos = self.network.position(station)
        chord = float(np.linalg.norm(start_pos - self.position))
        if chord < 1e-6:
            return
        plan = self._plan_leg(self.position, start_pos, horizon=chord / self.speed)
        self._execute_path(plan.path, leg_index, leg, allow_replans=False)
        self.report.replans.append((self.elapsed, "local", "retreat to leg start"))

    def _finalize(self, report: MissionReport) -> MissionReport:
        report.ticks = np.concatenate(self.tick_blocks)
        report.path_rows = np.concatenate(self.path_blocks)
        report.path_time = self.elapsed
        report.residual_time = self.budget - self.elapsed
        report.stations_visited = len(set(report.executed_sequence))
        report.total_cost = walk_cost(report.path_time, report.total_value,
                                      self.network.size, self.budget)
        return report


def run_mission(sc: Scenario, seed: int | None = None,
                station_count: int | None = None) -> MissionReport:
    """Execute one mission; always returns a report (success flag inside).

    `station_count` overrides the scenario's station count, as a Monte Carlo
    trial that redraws it does.
    """
    t0 = _time.perf_counter()
    actual_seed = sc.seed if seed is None else seed
    executor = _Executor(sc, actual_seed, station_count=station_count)
    report = executor.run()
    report.wall_clock = _time.perf_counter() - t0
    return report
