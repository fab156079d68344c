"""Correctness checks computed apart from the program.

Each check restates the quantity it tests from first principles (edge walks,
the route cost formula, a closed-form Lamb vortex sum, a dilated occupancy
raster, cruise-plus-current kinematics) instead of calling the program's own
helpers, and never compares against stored output. A failed check raises
CheckError with a message naming what broke.
"""

from __future__ import annotations

import csv
import heapq
import math
from pathlib import Path

import numpy as np

TOL = 1e-9


class CheckError(AssertionError):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float = TOL, abs_: float = TOL) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# --- independent models -----------------------------------------------------------


def lamb_velocity(xy: np.ndarray, vortices) -> np.ndarray:
    """Closed-form Lamb vortex superposition, one vortex at a time.

    Tangential speed Gamma / (2 pi r) * (1 - exp(-(r / ell)^2)) along the
    counter-clockwise unit tangent; zero inside r < 1e-9 ell.
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    out = np.zeros_like(xy)
    for v in vortices:
        dx = xy[:, 0] - v.center[0]
        dy = xy[:, 1] - v.center[1]
        r = np.hypot(dx, dy)
        core = r < 1e-9 * v.radius
        r_safe = np.where(core, 1.0, r)
        speed = v.strength / (2.0 * math.pi * r_safe) * -np.expm1(-(r_safe / v.radius) ** 2)
        speed = np.where(core, 0.0, speed)
        out[:, 0] += speed * (-dy / r_safe)
        out[:, 1] += speed * (dx / r_safe)
    return out


def dilated(occupancy: np.ndarray) -> np.ndarray:
    """Coast raster grown by one cell in all eight directions."""
    occ = np.asarray(occupancy) == 1
    h, w = occ.shape
    pad = np.pad(occ, 1)
    out = np.zeros_like(occ)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out |= pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    return out


def min_time_to(goal: int, positions: dict, edges, speed: float) -> dict:
    """Dijkstra over undirected edges with Euclidean length / speed."""
    adj: dict[int, list[int]] = {sid: [] for sid in positions}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {goal: 0.0}
    heap = [(0.0, goal)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adj[u]:
            nd = d + float(np.linalg.norm(positions[u] - positions[v])) / speed
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def route_cost(time: float, value: float, n_stations: int, budget: float) -> float:
    """Budget gap + inverse value + overtime penalty with its constant floor."""
    gap = abs(time - budget) / budget
    over = max(0.0, (time - budget) / budget)
    return gap + n_stations / (value + 1.0) + (100.0 * (1.0 + over) if over > 0 else 0.0)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def check_walk(sequence, start: int, goal: int, edges, used=frozenset()):
    """Start-to-goal walk over available edges that repeats no edge."""
    require(len(sequence) >= 2, f"walk {sequence} too short")
    require(sequence[0] == start, f"walk starts at {sequence[0]}, not {start}")
    require(sequence[-1] == goal, f"walk ends at {sequence[-1]}, not {goal}")
    seen = set()
    for a, b in zip(sequence, sequence[1:]):
        p = _pair(a, b)
        require(p in edges, f"walk step {a}-{b} is not a network edge")
        require(p not in used, f"walk step {a}-{b} uses a consumed edge")
        require(p not in seen, f"walk repeats edge {a}-{b}")
        seen.add(p)


def first_visit_value(sequence, values: dict, already=frozenset()) -> float:
    seen = set(already) | {sequence[0]}
    total = 0.0
    for sid in sequence[1:]:
        if sid not in seen:
            total += values[sid]
            seen.add(sid)
    return total


def yaw_rate(yaw: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Central-difference heading rate, one-sided at the ends, angles wrapped."""
    def wrap(a):
        return (a + math.pi) % (2.0 * math.pi) - math.pi

    out = np.zeros(len(yaw))
    out[0] = wrap(yaw[1] - yaw[0]) / max(t[1] - t[0], 1e-12)
    out[-1] = wrap(yaw[-1] - yaw[-2]) / max(t[-1] - t[-2], 1e-12)
    out[1:-1] = wrap(yaw[2:] - yaw[:-2]) / np.maximum(t[2:] - t[:-2], 1e-12)
    return out


# --- missions ---------------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with path.open() as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines()[1:]:
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def mission_from_files(out_dir: Path) -> dict:
    """The facts a mission check needs, parsed from the run's artifacts."""
    rep = read_report(out_dir / "report.txt")
    ticks = read_csv(out_dir / "ticks.csv")
    traces: dict[str, list[float]] = {}
    for row in read_csv(out_dir / "de_traces.csv"):
        traces.setdefault(row["plan"], []).append(float(row["best_cost"]))
    return {
        "success": rep["success"] == "True",
        "residual": float(rep["residual_time_s"]),
        "path_time": float(rep["global_path_time_s"]),
        "total_value": float(rep["total_value"]),
        "total_cost": float(rep["total_cost"]),
        "sequence": [int(s) for s in rep["sequence"].split("-")],
        "ticks": np.array([[float(r["t"]), float(r["x"]), float(r["y"]), float(r["z"])]
                           for r in ticks]),
        "legs": [(float(r["max_surge"]), float(r["max_sway"]), float(r["max_yaw_rate_deg"]))
                 for r in read_csv(out_dir / "legs.csv")],
        "paths": read_csv(out_dir / "paths.csv"),
        "traces": list(traces.values()),
    }


def mission_from_report(report) -> dict:
    """The same facts taken from an in-memory MissionReport (batch trials)."""
    cols = ("leg", "sample", "x", "y", "z", "yaw", "pitch", "surge", "sway", "yaw_rate", "t")
    return {
        "success": report.success,
        "residual": report.residual_time,
        "path_time": report.path_time,
        "total_value": report.total_value,
        "total_cost": report.total_cost,
        "sequence": list(report.executed_sequence),
        "ticks": np.array([t[:4] for t in report.ticks]),
        "legs": [(leg.max_surge, leg.max_sway, math.degrees(leg.max_yaw_rate))
                 for leg in report.legs],
        "paths": [dict(zip(cols, row)) for row in report.path_rows],
        "traces": [trace for _, trace in report.de_traces],
    }


def check_mission(m: dict, network, occupancy: np.ndarray, cell: float, sc):
    """Success, walk, value, cost, tick timing and position, limits, DE traces."""
    vehicle = sc.vehicle
    require(m["success"], "mission did not succeed")
    require(m["residual"] >= 0.0, f"residual time {m['residual']} < 0")
    require(close(m["residual"], vehicle.time_budget - m["path_time"]),
            "residual time is not budget minus path time")
    check_walk(m["sequence"], network.start_id, network.goal_id, network.edges)

    values = {sid: st.value for sid, st in network.stations.items()}
    value = first_visit_value(m["sequence"], values)
    require(close(value, m["total_value"]),
            f"total value {m['total_value']} != recomputed {value}")
    cost = route_cost(m["path_time"], value, len(values), vehicle.time_budget)
    require(close(cost, m["total_cost"]), f"total cost {m['total_cost']} != recomputed {cost}")

    ticks = m["ticks"]
    require(len(ticks) > 0, "no ticks recorded")
    t = ticks[:, 0]
    steps = np.diff(np.concatenate([[0.0], t]))
    require(np.all(steps > 0.0), "tick times do not increase strictly")
    require(np.all(steps <= sc.mission.dt + TOL), f"a tick step exceeds dt={sc.mission.dt}")
    require(close(t[-1], m["path_time"]), f"last tick {t[-1]} != path time {m['path_time']}")
    cols = np.floor(ticks[:, 1] / cell).astype(np.int64)
    rows = np.floor(ticks[:, 2] / cell).astype(np.int64)
    h, w = occupancy.shape
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    require(np.all(inside), "a tick position lies outside the map")
    require(not np.any(occupancy[rows, cols] == 1), "a tick position lies on a coast cell")

    yaw_limit = vehicle.yaw_rate_max_deg
    for surge, sway, yaw in m["legs"]:
        require(surge <= vehicle.surge_max + TOL, f"leg surge {surge} over the limit")
        require(sway <= vehicle.sway_max + TOL, f"leg sway {sway} over the limit")
        require(yaw <= yaw_limit + TOL, f"leg yaw rate {yaw} deg/s over the limit")
    for plan in _split_plans(m["paths"]):
        require(np.all(plan["surge"] <= vehicle.surge_max + TOL), "path surge over the limit")
        require(np.all(np.abs(plan["sway"]) <= vehicle.sway_max + TOL), "path sway over the limit")
        rate = np.degrees(np.abs(yaw_rate(plan["yaw"], plan["t"])))
        require(np.all(rate <= yaw_limit + 1e-6), "recomputed path yaw rate over the limit")

    require(len(m["traces"]) > 0, "no DE traces recorded")
    for trace in m["traces"]:
        require(np.all(np.diff(np.asarray(trace, dtype=float)) <= 0.0),
                "a DE best-cost trace increases")


def _split_plans(rows) -> list[dict]:
    """paths rows -> one array set per executed plan (sample index restarts at 0)."""
    plans, current = [], []
    for row in rows:
        if int(row["sample"]) == 0 and current:
            plans.append(current)
            current = []
        current.append(row)
    if current:
        plans.append(current)
    return [{k: np.array([float(r[k]) for r in plan]) for k in ("surge", "sway", "yaw", "t")}
            for plan in plans]


def check_field_csv(path: Path, vortices, rng: np.random.Generator, samples: int = 400):
    """A seeded subsample of field.csv agrees with the closed form to 1e-9."""
    rows = read_csv(path)
    require(len(rows) > 0, "field.csv is empty")
    pick = rng.choice(len(rows), size=min(samples, len(rows)), replace=False)
    xy = np.array([[float(rows[i]["x"]), float(rows[i]["y"])] for i in pick])
    got = np.array([[float(rows[i]["v_cx"]), float(rows[i]["v_cy"])] for i in pick])
    want = lamb_velocity(xy, vortices)
    worst = float(np.max(np.abs(got - want)))
    require(worst <= 1e-9, f"field.csv deviates from the closed form by {worst:.3g}")


# --- routes -----------------------------------------------------------------------


def check_route(plan, network, start: int, goal: int, budget: float, speed: float,
                visited=frozenset()):
    """Valid walk; distance, time, value and cost recomputed; on budget if it can be."""
    route = plan.route
    seq = list(route.sequence)
    check_walk(seq, start, goal, network.edges, network.used)
    require([_pair(a, b) for a, b in zip(seq, seq[1:])] == [tuple(e) for e in route.edges],
            "route edges do not match its sequence")
    pos = {sid: np.asarray(st.position, dtype=float) for sid, st in network.stations.items()}
    distance = sum(float(np.linalg.norm(pos[a] - pos[b])) for a, b in zip(seq, seq[1:]))
    require(close(distance, route.distance), f"distance {route.distance} != {distance}")
    require(close(distance / speed, route.time), f"time {route.time} != {distance / speed}")
    values = {sid: st.value for sid, st in network.stations.items()}
    value = first_visit_value(seq, values, visited)
    require(close(value, route.total_value), f"value {route.total_value} != {value}")
    cost = route_cost(route.time, value, len(values), budget)
    require(close(cost, plan.cost), f"cost {plan.cost} != recomputed {cost}")
    available = [e for e in network.edges if e not in network.used]
    fastest = min_time_to(goal, pos, available, speed).get(start, math.inf)
    if fastest <= budget:
        require(route.time <= budget * (1.0 + TOL),
                f"route time {route.time:.1f} s over budget {budget:.1f} s "
                f"although {fastest:.1f} s fits")


# --- leg paths --------------------------------------------------------------------


def leg_clearance(pts: np.ndarray, coast: np.ndarray, cell: float, depth: float,
                  obstacles):
    """Sample every segment at quarter-cell spacing; clear of `coast` (the
    dilated raster), inside the map and depth range, and strictly outside
    every envelope."""
    seg = np.diff(pts, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    q = max(1, int(math.ceil(float(lens.max()) / (0.25 * cell))))
    frac = np.arange(q) / q
    dense = (pts[:-1, None, :] + frac[None, :, None] * seg[:, None, :]).reshape(-1, 3)
    dense = np.vstack([dense, pts[-1:]])
    cols = np.floor(dense[:, 0] / cell).astype(np.int64)
    rows = np.floor(dense[:, 1] / cell).astype(np.int64)
    h, w = coast.shape
    require(np.all((cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)), "path leaves the map")
    require(np.all((dense[:, 2] >= 0.0) & (dense[:, 2] <= depth)), "path leaves the depth range")
    require(not np.any(coast[rows, cols]), "path touches the dilated coast")
    for obs in obstacles:
        d = np.linalg.norm(dense - np.asarray(obs.position), axis=1)
        require(np.all(d > obs.envelope_radius),
                f"path enters the envelope of obstacle {obs.id}")


def leg_kinematics(pts: np.ndarray, vortices, vehicle) -> float:
    """Cruise along the tangent plus the horizontal current; checks the surge,
    sway and yaw-rate limits and returns the traversal time."""
    seg = np.diff(pts, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    moving = lens > 1e-12
    tx, ty = seg[:, 0] / np.maximum(lens, 1e-12), seg[:, 1] / np.maximum(lens, 1e-12)
    cur = lamb_velocity(pts[:-1, :2], vortices)
    surge = vehicle.cruise_speed + tx * cur[:, 0] + ty * cur[:, 1]
    require(np.all(surge[moving] > 0.0), "path stalls against the current")
    heading = np.arctan2(seg[:, 1], seg[:, 0])
    sway = -np.sin(heading) * cur[:, 0] + np.cos(heading) * cur[:, 1]
    seg_t = np.where(moving, lens / np.maximum(surge, 0.1 * vehicle.cruise_speed), 0.0)
    t = np.concatenate([[0.0], np.cumsum(seg_t)])
    require(np.all(surge <= vehicle.surge_max + TOL), "surge over the limit")
    require(np.all(np.abs(sway) <= vehicle.sway_max + TOL), "sway over the limit")
    yaw = np.concatenate([heading, heading[-1:]])
    rate = np.degrees(np.abs(yaw_rate(yaw, t)))
    require(np.all(rate <= vehicle.yaw_rate_max_deg + 1e-6), "yaw rate over the limit")
    return float(t[-1])


def check_leg(path, p_i, p_j, coast: np.ndarray, cell: float, depth: float,
              obstacles, vortices, vehicle):
    """Endpoints, clearance at sub-cell spacing, duration and kinematic limits."""
    pts = np.asarray(path.points, dtype=float)
    require(np.linalg.norm(pts[0] - np.asarray(p_i)) <= 1e-6, "path does not start at p_i")
    require(np.linalg.norm(pts[-1] - np.asarray(p_j)) <= 1e-6, "path does not end at p_j")
    leg_clearance(pts, coast, cell, depth, obstacles)
    duration = leg_kinematics(pts, vortices, vehicle)
    require(close(duration, float(path.duration)),
            f"duration {path.duration} != recomputed {duration}")


# --- Monte Carlo batches ------------------------------------------------------------

DETERMINISTIC_COLUMNS = ("global_replans", "path_time", "residual_time", "total_value",
                         "stations_visited", "total_cost")


def check_batch(summary, trials: int, base_seed: int, trials_csv: Path):
    """Seeds base + i, every trial succeeds, aggregates recomputed from the rows.

    `wall_clock` differs between identical batches, so only the deterministic
    columns of trials.csv are compared.
    """
    rows = summary.rows
    require(len(rows) == trials, f"{len(rows)} rows for {trials} trials")
    for i, row in enumerate(rows):
        require(row["trial"] == i and row["seed"] == base_seed + i,
                f"trial {row['trial']} has seed {row['seed']}, expected {base_seed + i}")
        require(row["success"], f"trial {i} failed: {row['error']}")
    agg = summary.aggregates
    require(agg["trials"] == trials and agg["successes"] == trials, "aggregate counts are wrong")
    for col in DETERMINISTIC_COLUMNS:
        vals = [float(r[col]) for r in rows]
        mean = sum(vals) / len(vals)
        std = (math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
               if len(vals) > 1 else 0.0)
        require(close(agg[col]["mean"], mean), f"{col} mean {agg[col]['mean']} != {mean}")
        require(close(agg[col]["std"], std), f"{col} std {agg[col]['std']} != {std}")
        require(close(agg[col]["se"], std / math.sqrt(len(vals))), f"{col} se is wrong")
    written = read_csv(trials_csv)
    require(len(written) == trials, "trials.csv row count is wrong")
    for row, rec in zip(rows, written):
        require(int(rec["seed"]) == row["seed"], "trials.csv seed column disagrees")
        for col in DETERMINISTIC_COLUMNS:
            require(close(float(rec[col]), float(row[col]), rel=0.0, abs_=0.0),
                    f"trials.csv {col} disagrees with the batch rows")
