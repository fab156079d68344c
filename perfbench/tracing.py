"""Span tracing for the traced run, done entirely from the benchmark's side.

The program carries no timers. `install` replaces each traced function by a
wrapper in every module namespace a caller looks it up in (for example both
`uuvsim.local_planner.current_grid` and `uuvsim.env.current_grid`), and wraps
the evaluator handed to `de.optimize`, the boundary between the optimizer and
the two planners. Each call records one span: id, name, start, end, parent,
a work count and whether it raised. Spans stay in memory and are written out
when the run ends. Monte Carlo workers are forked with the wrappers in place;
each worker writes its trial's spans to a file that the parent merges.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name). A function appears once per namespace its
# callers use: `from .env import current_grid` binds a second name.
_TRACED = [
    ("uuvsim.scenario", "resolve_scenario", "scenario.load"),
    ("uuvsim.scenario", "build_map", "scenario.build_map"),
    ("uuvsim.mission", "build_map", "scenario.build_map"),
    ("uuvsim.cli", "build_map", "scenario.build_map"),
    ("uuvsim.scenario", "build_field", "scenario.build_field"),
    ("uuvsim.mission", "build_field", "scenario.build_field"),
    ("uuvsim.cli", "build_field", "scenario.build_field"),
    ("uuvsim.scenario", "build_network_from_spec", "scenario.build_network"),
    ("uuvsim.mission", "build_network_from_spec", "scenario.build_network"),
    ("uuvsim.cli", "build_network_from_spec", "scenario.build_network"),
    ("uuvsim.scenario", "build_obstacles", "scenario.build_obstacles"),
    ("uuvsim.mission", "build_obstacles", "scenario.build_obstacles"),
    ("uuvsim.env", "current_grid", "env.current_grid"),
    ("uuvsim.local_planner", "current_grid", "env.current_grid"),
    ("uuvsim.cli", "current_grid", "env.current_grid"),
    ("uuvsim.env", "points_in_collision", "env.points_in_collision"),
    ("uuvsim.local_planner", "points_in_collision", "env.points_in_collision"),
    ("uuvsim.mission", "step_obstacles", "env.step_obstacles"),
    ("uuvsim.mission", "drift_stations", "network.drift_stations"),
    ("uuvsim.global_planner", "shortest_times_to", "network.shortest_paths"),
    ("uuvsim.network.Network", "goal_reachable", "network.shortest_paths"),
    ("uuvsim.global_planner", "decode_route", "global_planner.decode_route"),
    ("uuvsim.global_planner", "plan_global", "global_planner.plan_global"),
    ("uuvsim.mission", "plan_global", "global_planner.plan_global"),
    ("uuvsim.cli", "plan_global", "global_planner.plan_global"),
    ("uuvsim.local_planner", "plan_local", "local_planner.plan_local"),
    ("uuvsim.mission", "plan_local", "local_planner.plan_local"),
    ("uuvsim.local_planner", "replan_local", "local_planner.replan_local"),
    ("uuvsim.mission", "replan_local", "local_planner.replan_local"),
    ("uuvsim.mission", "run_mission", "mission.run_mission"),
    ("uuvsim.cli", "run_mission", "mission.run_mission"),
    ("uuvsim.cli", "write_outputs", "cli.write_outputs"),
    ("uuvsim.cli", "field_dump", "cli.field_dump"),
    ("uuvsim.cli", "run_monte_carlo", "cli.run_monte_carlo"),
]


def _pairs(args, kwargs) -> int:
    points = kwargs.get("points", args[0] if args else None)
    fld = kwargs.get("fld", args[1] if len(args) > 1 else None)
    return int(np.atleast_2d(np.asarray(points)).shape[0]) * len(fld.vortices)


def _points(args, kwargs) -> int:
    points = kwargs.get("points", args[0] if args else None)
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _rows(args, kwargs) -> int:
    return int(np.atleast_2d(args[0]).shape[0])


_WORK = {"env.current_grid": _pairs, "env.points_in_collision": _points,
         "de.evaluate": _rows}


class Tracer:
    """In-memory span recorder: (id, name, start, end, parent, work, raised)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False  # wrappers pass straight through while False
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, fn, name: str):
        work = _WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     work(args, kwargs) if work else 0, raised))

        return traced

    def reset_in_worker(self):
        """A forked worker starts with a copy of the parent's spans; drop them."""
        self.spans = []
        self._stack = []
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self._next = self.pid << 32  # ids stay unique once merged


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds the wrapper adds to one call: a traced no-op that also counts
    its work, as the field and evaluator spans do, against a bare one. The
    median of `repeats` timings of `calls` calls each."""

    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    tracer.active = True
    traced = tracer.wrap(noop, "de.evaluate")
    arg = np.zeros((2, 3))
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(arg)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(arg)
        costs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def install(tracer: Tracer, worker_dir: Path):
    """Wrap every traced function; returns a callable that restores them all."""
    import uuvsim.cli
    import uuvsim.de

    saved = []

    def put(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for owner_path, attr, name in _TRACED:
        owner = _resolve(owner_path)
        put(owner, attr, tracer.wrap(getattr(owner, attr), name))

    traced_optimize = tracer.wrap(uuvsim.de.optimize, "de.optimize")

    @functools.wraps(uuvsim.de.optimize)
    def optimize(cost_fn, *args, **kwargs):
        if not tracer.active:
            return traced_optimize(cost_fn, *args, **kwargs)
        return traced_optimize(tracer.wrap(cost_fn, "de.evaluate"), *args, **kwargs)

    put(uuvsim.de, "optimize", optimize)

    traced_trial = tracer.wrap(uuvsim.cli._run_trial, "cli.run_trial")
    parent_pid = os.getpid()

    @functools.wraps(uuvsim.cli._run_trial)
    def run_trial(args):
        if os.getpid() == parent_pid:
            return traced_trial(args)
        tracer.reset_in_worker()
        result = traced_trial(args)
        out = worker_dir / f"worker-{os.getpid()}-{args[1]}.json"
        out.write_text(json.dumps(tracer.spans))
        return result

    put(uuvsim.cli, "_run_trial", run_trial)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def merge_worker_spans(tracer: Tracer, worker_dir: Path):
    """Fold the spans written by forked workers into the parent's list."""
    for path in sorted(worker_dir.glob("worker-*.json")):
        tracer.spans.extend(tuple(s) for s in json.loads(path.read_text()))
        path.unlink()


def write_spans(tracer: Tracer, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write("id,name,start,end,parent,work,raised\n")
        for sid, name, start, end, parent, work, raised in tracer.spans:
            f.write(f"{sid},{name},{start!r},{end!r},{parent},{work},{int(raised)}\n")


# --- per-layer metrics from spans -------------------------------------------------

_SETUP = {"scenario.load", "scenario.build_map", "scenario.build_field",
          "scenario.build_network", "scenario.build_obstacles"}
_PLANNING = {"global_planner.plan_global", "local_planner.plan_local",
             "local_planner.replan_local"}


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}

    def ancestors(self, span):
        parent = span[4]
        while parent != -1 and parent in self.by_id:
            p = self.by_id[parent]
            yield p
            parent = p[4]

    def named(self, names):
        return [s for s in self.spans if s[1] in names]

    def busy(self, names) -> float:
        """Time inside any span of `names`, not counting nested repeats twice."""
        return sum(s[3] - s[2] for s in self.named(names)
                   if not any(a[1] in names for a in self.ancestors(s)))


def layer_metrics(spans: list[tuple], reports, artifact_bytes: int, jobs: int) -> dict:
    """Per-layer busy times, counts and ratios (see README for what each moves)."""
    ix = _Index(spans)
    child_of: dict[int, list[tuple]] = {}
    for s in spans:
        child_of.setdefault(s[4], []).append(s)

    def dur(s):
        return s[3] - s[2]

    grid = ix.named({"env.current_grid"})
    grid_s = sum(dur(s) for s in grid)
    pairs = sum(s[5] for s in grid)
    coll = ix.named({"env.points_in_collision"})
    opt = ix.named({"de.optimize"})
    evals = ix.named({"de.evaluate"})
    opt_total = sum(dur(s) for s in opt)
    opt_self = opt_total - sum(dur(c) for s in opt for c in child_of.get(s[0], ()))
    n_evals = sum(s[5] for s in evals)

    global_genomes = 0
    for s in evals:
        optimizer = ix.by_id.get(s[4])
        caller = ix.by_id.get(optimizer[4]) if optimizer else None
        if caller is not None and caller[1] == "global_planner.plan_global":
            global_genomes += s[5]
    decodes = ix.named({"global_planner.decode_route"})

    tick_loop = 0.0
    for s in ix.named({"mission.run_mission"}):
        spent = sum(dur(c) for c in child_of.get(s[0], ()) if c[1] in _SETUP | _PLANNING)
        tick_loop += dur(s) - spent
    ticks = sum(len(r.ticks) for r in reports)

    trials = ix.named({"cli.run_trial"})
    batches = ix.named({"cli.run_monte_carlo"})
    trial_busy = sum(dur(s) for s in trials)
    batch_wall = sum(dur(s) for s in batches)
    plans = ix.named({"local_planner.plan_local"})

    return {
        "scenario.build_map_s": (ix.busy({"scenario.build_map"}), "s"),
        "scenario.build_world_s": (ix.busy(_SETUP - {"scenario.build_map"}), "s"),
        "env.current_grid_s": (grid_s, "s"),
        "env.current_grid_calls": (len(grid), "count"),
        "env.current_grid_pairs": (pairs, "count"),
        "env.current_grid_ns_per_pair": (grid_s / pairs * 1e9 if pairs else 0.0, "ns"),
        "env.points_in_collision_s": (sum(dur(s) for s in coll), "s"),
        "env.points_in_collision_points": (sum(s[5] for s in coll), "count"),
        "env.step_obstacles_s": (ix.busy({"env.step_obstacles"}), "s"),
        "env.step_obstacles_calls": (len(ix.named({"env.step_obstacles"})), "count"),
        "network.drift_stations_s": (ix.busy({"network.drift_stations"}), "s"),
        "network.shortest_paths_s": (ix.busy({"network.shortest_paths"}), "s"),
        "de.optimize_self_s": (opt_self, "s"),
        "de.evaluations": (n_evals, "count"),
        "de.evals_per_s": (n_evals / opt_total if opt_total else 0.0, "1/s"),
        "global_planner.plan_global_s": (ix.busy({"global_planner.plan_global"}), "s"),
        "global_planner.plan_global_calls": (len(ix.named({"global_planner.plan_global"})),
                                             "count"),
        "global_planner.decode_route_s": (ix.busy({"global_planner.decode_route"}), "s"),
        "global_planner.decode_route_calls": (len(decodes), "count"),
        "global_planner.decode_cache_hit_ratio": (
            1.0 - len(decodes) / global_genomes if global_genomes else 0.0, "ratio"),
        "local_planner.plan_local_s": (
            ix.busy({"local_planner.plan_local", "local_planner.replan_local"}), "s"),
        "local_planner.plan_local_calls": (len(plans), "count"),
        "local_planner.no_feasible_path": (sum(1 for s in plans if s[6]), "count"),
        "mission.tick_loop_s": (tick_loop, "s"),
        "mission.ticks": (ticks, "count"),
        "mission.ticks_per_s": (ticks / tick_loop if tick_loop > 0 else 0.0, "1/s"),
        "mission.global_replans": (sum(r.global_replans for r in reports), "count"),
        "mission.local_replans": (sum(leg.local_replans for r in reports for leg in r.legs),
                                  "count"),
        "cli.write_outputs_s": (ix.busy({"cli.write_outputs", "cli.field_dump"}), "s"),
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "cli.mc_worker_busy_s": (trial_busy, "s"),
        "cli.mc_pool_efficiency": (trial_busy / (jobs * batch_wall) if batch_wall else 0.0,
                                   "ratio"),
    }
