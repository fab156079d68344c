"""Self-test of the benchmark's checks: each accepts a real output and rejects
a corrupted copy of it.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds. Exits 1 if a check
rejects a valid output or accepts a corrupted one.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from uuvsim import cli, env, global_planner, local_planner, scenario, seeding  # noqa: E402
from uuvsim.env import Obstacle, VortexParams  # noqa: E402

WORK = HERE / "_work" / "selftest"
failures: list[str] = []


def expect(label: str, fn, rejects: bool):
    try:
        fn()
        rejected, why = False, ""
    except checks.CheckError as exc:
        rejected, why = True, str(exc)
    ok = rejected == rejects
    verdict = "rejects" if rejected else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}{' (' + why + ')' if why else ''}")
    if not ok:
        failures.append(label)


def mission_cases():
    sc = scenario.resolve_scenario("two_station")
    out = WORK / "mission"
    cli.run_once(sc, sc.seed, out)
    cmap = scenario.build_map(sc, sc.seed)
    net = scenario.build_network_from_spec(sc, cmap, sc.seed)
    fld = scenario.build_field(sc, sc.seed)
    good = checks.mission_from_files(out)

    def run(m):
        return lambda: checks.check_mission(m, net, cmap.occupancy, cmap.grid.cell_size, sc)

    expect("mission: valid artifacts", run(good), rejects=False)

    def corrupt(label, edit):
        m = copy.deepcopy(good)
        edit(m)
        expect(f"mission: {label}", run(m), rejects=True)

    corrupt("mission failed", lambda m: m.update(success=False))
    corrupt("negative residual", lambda m: m.update(residual=-1.0,
                                                    path_time=sc.vehicle.time_budget + 1.0))
    corrupt("walk repeats an edge", lambda m: m.update(sequence=m["sequence"] * 2))
    corrupt("walk leaves the network", lambda m: m.update(sequence=[1, 3, 2]))
    corrupt("total value off by one", lambda m: m.update(total_value=m["total_value"] + 1))
    corrupt("total cost off by 1e-6", lambda m: m.update(total_cost=m["total_cost"] + 1e-6))
    corrupt("tick time repeats", lambda m: m["ticks"].__setitem__((1, 0), m["ticks"][0, 0]))
    corrupt("tick step exceeds dt", lambda m: m["ticks"].__setitem__(
        (slice(1, None), 0), m["ticks"][1:, 0] + 0.5))
    corrupt("last tick misses path time", lambda m: m["ticks"].__setitem__(
        (-1, 0), m["ticks"][-1, 0] - 1e-3))
    corrupt("tick on a coast cell", lambda m: m["ticks"].__setitem__((3, slice(1, 3)), 5.0))
    corrupt("leg surge over the limit", lambda m: m["legs"].__setitem__(0, (2.71, 0.0, 0.0)))
    corrupt("path sway over the limit", lambda m: m["paths"][5].update(sway="0.51"))
    corrupt("path heading turns too fast", lambda m: m["paths"][1].update(
        yaw=repr(float(m["paths"][1]["yaw"]) + 0.5), t="0.5"))
    corrupt("DE trace increases", lambda m: m["traces"][0].append(m["traces"][0][-1] + 1e-9))

    expect("field.csv: valid", lambda: checks.check_field_csv(
        out / "field.csv", fld.vortices, np.random.default_rng(0), samples=10_000),
        rejects=False)
    lines = (out / "field.csv").read_text().splitlines()
    x, y, vx, vy = lines[500].split(",")
    lines[500] = ",".join([x, y, repr(float(vx) + 2e-9), vy])
    bad = WORK / "field-bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    expect("field.csv: one value off by 2e-9", lambda: checks.check_field_csv(
        bad, fld.vortices, np.random.default_rng(0), samples=10_000), rejects=True)


def _small_world():
    sc = scenario.resolve_scenario(str(HERE / "scenarios" / "mc_reduced.yaml"))
    seed = 1008
    cmap = scenario.build_map(sc, seed)
    net = scenario.build_network_from_spec(sc, cmap, seed)
    return sc, cmap, scenario.build_field(sc, seed), net


def route_cases(sc, net):
    speed = sc.vehicle.cruise_speed * sc.mission.nominal_speed_factor
    budget = sc.vehicle.time_budget * sc.mission.budget_margin
    cfg = scenario.de_config_from_spec(sc.de_global)
    cfg.generations = 20
    plan = global_planner.plan_global(net, net.start_id, net.goal_id, budget, speed, cfg,
                                      restarts=1, rng=seeding.stream(1, seeding.DE_GLOBAL, 0))

    def run(p, b=budget):
        return lambda: checks.check_route(p, net, net.start_id, net.goal_id, b, speed)

    expect("route: valid plan", run(plan), rejects=False)
    r = plan.route

    def with_route(**changes):
        return dataclasses.replace(plan, route=dataclasses.replace(r, **changes))

    seq = list(r.sequence)
    looped = seq[:2] + [seq[0]] + seq[1:]
    expect("route: walk repeats an edge", run(with_route(
        sequence=tuple(looped),
        edges=tuple(checks._pair(a, b) for a, b in zip(looped, looped[1:])))),
        rejects=True)
    expect("route: time off by 1e-6", run(with_route(time=r.time * (1 + 1e-6))), rejects=True)
    expect("route: value off by one", run(with_route(total_value=r.total_value + 1)),
           rejects=True)
    expect("route: cost off by 1e-6", run(dataclasses.replace(plan, cost=plan.cost + 1e-6)),
           rejects=True)
    used = dataclasses.replace(net, used=frozenset([checks._pair(seq[0], seq[1])]))
    expect("route: uses a consumed edge", lambda: checks.check_route(
        plan, used, net.start_id, net.goal_id, budget, speed), rejects=True)
    pos = {sid: np.asarray(st.position) for sid, st in net.stations.items()}
    fastest = checks.min_time_to(net.goal_id, pos, net.edges, speed)[net.start_id]
    if r.time > fastest * 1.01:
        tight = (fastest + r.time) / 2
        expect("route: over a budget the fastest route fits", lambda: checks.check_route(
            dataclasses.replace(
                plan, cost=checks.route_cost(r.time, r.total_value, net.size, tight)),
            net, net.start_id, net.goal_id, tight, speed), rejects=True)


def leg_cases(sc, cmap, fld, net):
    a, b = sorted(net.edges)[0]
    p_i, p_j = net.position(a), net.position(b)
    snap = env.EnvSnapshot(cmap, fld, ())
    cfg = scenario.de_config_from_spec(sc.de_local)
    cfg.generations = 10
    plan = local_planner.plan_local(p_i, p_j, snap, scenario.weights_from_spec(sc),
                                    scenario.spline_from_spec(sc), cfg,
                                    rng=seeding.stream(1, seeding.DE_LOCAL, 0))
    path = plan.path
    coast = checks.dilated(cmap.occupancy)

    def run(pth, obstacles=(), vortices=fld.vortices):
        return lambda: checks.check_leg(pth, p_i, p_j, coast, cmap.grid.cell_size,
                                        cmap.grid.depth_extent, obstacles, vortices, sc.vehicle)

    expect("leg: valid path", run(path), rejects=False)

    def with_points(edit):
        pts = path.points.copy()
        edit(pts)
        return dataclasses.replace(path, points=pts)

    expect("leg: start moved 1e-3 m", run(with_points(lambda p: p[0].__iadd__(1e-3))),
           rejects=True)
    on_coast = np.argwhere(coast)[0]
    expect("leg: sample on the dilated coast", run(with_points(lambda p: p.__setitem__(
        (50, slice(0, 2)), (on_coast[::-1] + 0.5) * cmap.grid.cell_size))), rejects=True)
    mid = path.points[50]
    blocker = Obstacle(id=99, kind="static", position=tuple(mid + [3.0, 0.0, 0.0]), radius=5.0)
    expect("leg: crosses an obstacle envelope", run(path, obstacles=(blocker,)), rejects=True)
    expect("leg: duration off by 1e-6", run(dataclasses.replace(
        path, duration=path.duration * (1 + 1e-6))), rejects=True)
    sharp = np.array([[0.0, 0.0, 10.0], [1.0, 0.0, 10.0], [1.0, 1.0, 10.0], [1.0, 2.0, 10.0]])
    expect("leg: yaw rate over the limit", lambda: checks.leg_kinematics(
        sharp, (), sc.vehicle), rejects=True)
    jet = (VortexParams(center=(0.5, 30.0), radius=50.0, strength=2000.0),)
    expect("leg: surge or sway over the limit", lambda: checks.leg_kinematics(
        sharp[:2], jet, sc.vehicle), rejects=True)


def batch_cases():
    sc = scenario.resolve_scenario("two_station")
    out = WORK / "batch"
    summary = cli.run_monte_carlo(sc, 3, 50, out, jobs=1)
    csv_path = out / "trials.csv"

    def run(s, path=csv_path, base=50):
        return lambda: checks.check_batch(s, 3, base, path)

    expect("batch: valid summary", run(summary), rejects=False)
    expect("batch: seeds not base + i", run(summary, base=51), rejects=True)

    def corrupt(label, edit):
        s = copy.deepcopy(summary)
        edit(s)
        expect(f"batch: {label}", run(s), rejects=True)

    corrupt("a trial failed", lambda s: s.rows[1].update(success=False, error="x"))
    corrupt("mean off by 1e-6", lambda s: s.aggregates["path_time"].__setitem__(
        "mean", s.aggregates["path_time"]["mean"] + 1e-6))
    corrupt("std off by 1e-6", lambda s: s.aggregates["total_cost"].__setitem__(
        "std", s.aggregates["total_cost"]["std"] + 1e-6))
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)  # path_time of trial 0
    bad = WORK / "trials-bad.csv"
    bad.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    expect("batch: trials.csv path_time changed", run(summary, path=bad), rejects=True)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    mission_cases()
    sc, cmap, fld, net = _small_world()
    route_cases(sc, net)
    leg_cases(sc, cmap, fld, net)
    batch_cases()
    print(f"{len(failures)} self-test failure(s)" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
