"""Command line interface: plan, run, montecarlo, field-dump, echo.

Every file of `plan`, `run`, `montecarlo` and `field-dump` starts with a
comment line naming the artifact version, scenario and seed; `echo --out`
writes the bare resolved YAML, which loads as a scenario.  CSV files are
comma-separated with '.' decimals and LF line endings; text holding a comma,
quote or newline is double-quoted.
Identical (scenario, seed) runs produce byte-identical files.
Exit codes: 0 success, 2 scenario error (invalid, or its world cannot be built),
3 mission failure, 4 IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, seeding
from .env import current_grid
from .errors import NoFeasibleRouteError, ScenarioValidationError, UUVSimError
from .global_planner import plan_global
from .mission import MissionReport, run_mission
from .network import edge_metrics
from .scenario import (POSITIVE, Rule, Scenario, build_field, build_map,
                       build_network_from_spec, de_config_from_spec, echo, integer,
                       resolve_scenario)


# _write_csv formats and writes this many rows at a time, so a long table never
# holds all its row tuples and text at once.
_WRITE_ROWS = 4096


def _real(x: float) -> str:
    return f"{x:.17g}"  # exact float64 round-trip


def _quote(text: str) -> str:
    """A text field as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("", text))
    return buf.getvalue()[1:-1]


def _header(sc: Scenario, seed: int) -> str:
    return f"# uuvsim={__version__} scenario={sc.name} seed={seed}"


def _write_csv(path: Path, sc: Scenario, seed: int, columns: list[str], fmt: str, rows) -> None:
    """The header line, the column names, then `fmt % row` for each row.

    `rows` is a list of row tuples or a 2-D array, written _WRITE_ROWS rows
    at a time; an array's rows become tuples of Python numbers one block at a
    time.  `fmt` formats a whole row: "%d" for indexes, ids and flags, "%.17g"
    for reals (the exact float64 round-trip; integers print as integers), and
    "%s" for text that is already `_quote`d.
    """
    line = fmt + "\n"
    with path.open("w", newline="") as fh:
        fh.write(f"{_header(sc, seed)}\n{','.join(columns)}\n")
        for start in range(0, len(rows), _WRITE_ROWS):
            block = rows[start:start + _WRITE_ROWS]
            if isinstance(block, np.ndarray):
                block = map(tuple, block.tolist())
            fh.write("".join([line % row for row in block]))


def _write_record(path: Path, sc: Scenario, seed: int, items) -> None:
    """The header line, then a `key: value` line for each (key, value) pair."""
    path.write_text("".join([f"{_header(sc, seed)}\n", *(f"{k}: {v}\n" for k, v in items)]))


def _trace_rows(traces) -> list[tuple]:
    """(quoted label, generation, best cost) rows of labelled DE traces."""
    rows = []
    for label, trace in traces:
        quoted = _quote(label)
        rows.extend((quoted, g, c) for g, c in enumerate(trace))
    return rows


_DE_TRACES = (["plan", "generation", "best_cost"], "%s,%d,%.17g")  # columns, row format


def write_outputs(report: MissionReport, sc: Scenario, out_dir: Path) -> list[Path]:
    """report.txt, then each table; wall-clock time is deliberately not written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_record(out_dir / "report.txt", sc, report.seed, [
        ("success", report.success), ("failure_reason", report.failure_reason),
        ("global_replans", report.global_replans),
        ("global_path_time_s", _real(report.path_time)),
        ("residual_time_s", _real(report.residual_time)),
        ("total_value", _real(report.total_value)),
        ("stations_visited", report.stations_visited),
        ("total_cost", _real(report.total_cost)), ("legs", len(report.legs)),
        ("sequence", "-".join(str(s) for s in report.executed_sequence))])
    # (file, columns, row format, rows); each table's rows are built as it is written.
    tables = [
        ("legs.csv", ["leg", "from", "to", "planned_s", "actual_s", "local_replans", "aborted",
                      "max_surge", "max_sway", "max_yaw_rate_deg", "value_gained"],
         "%d,%d,%d,%.17g,%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g",
         lambda: [(i, leg.from_id, leg.to_id, leg.planned, leg.actual, leg.local_replans,
                   leg.aborted, leg.max_surge, leg.max_sway, math.degrees(leg.max_yaw_rate),
                   leg.value_gained) for i, leg in enumerate(report.legs)]),
        ("ticks.csv", ["t", "x", "y", "z", "yaw", "leg"], "%.17g,%.17g,%.17g,%.17g,%.17g,%d",
         lambda: report.ticks),
        ("replans.csv", ["t", "kind", "reason"], "%.17g,%s,%s",
         lambda: [(t, _quote(kind), _quote(reason)) for t, kind, reason in report.replans]),
        ("paths.csv", ["leg", "sample", "x", "y", "z", "yaw", "pitch", "surge", "sway",
                       "yaw_rate", "t"], "%d,%d" + ",%.17g" * 9,
         lambda: report.path_rows),
        ("de_traces.csv", *_DE_TRACES, lambda: _trace_rows(report.de_traces)),
    ]
    for name, columns, fmt, rows in tables:
        _write_csv(out_dir / name, sc, report.seed, columns, fmt, rows())
    return [out_dir / name for name in ["report.txt", *(table[0] for table in tables)]]


def run_once(sc: Scenario, seed: int | None, out_dir: Path) -> tuple[MissionReport, list[Path]]:
    """Run one mission and write the report, leg/tick/replan tables and DE traces."""
    report = run_mission(sc, seed)
    paths = write_outputs(report, sc, out_dir)
    paths.append(field_dump(sc, report.seed, 100, out_dir / "field.csv"))
    return report, paths


def field_dump(sc: Scenario, seed: int, resolution: int, out_path: Path,
               extent: tuple[float, float] | None = None) -> Path:
    """Sample the current field on a regular grid and write x,y,v_cx,v_cy rows."""
    fld = build_field(sc, seed)
    ext = extent if extent is not None else (sc.field.x, sc.field.y)
    xs = np.linspace(0.0, ext[0], resolution)
    ys = np.linspace(0.0, ext[1], resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vel = current_grid(pts, fld)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out_path, sc, seed, ["x", "y", "v_cx", "v_cy"], "%.17g,%.17g,%.17g,%.17g",
               np.column_stack([pts, vel]))
    return out_path


@dataclass
class BatchSummary:
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    @property
    def reports(self) -> list[MissionReport]:
        return [r["report"] for r in self.rows]


# Rows also carry `wall_clock`; it differs between identical batches, so it is
# neither aggregated nor written.
_AGG_COLUMNS = ["global_replans", "path_time", "residual_time", "total_value",
                "stations_visited", "total_cost"]


def aggregate_rows(rows: list[dict]) -> dict:
    """mean, sample std and standard error per column over successful trials."""
    ok = [r for r in rows if r["success"]]
    out = {"trials": len(rows), "successes": len(ok),
           "success_rate": len(ok) / len(rows) if rows else 0.0}
    for col in _AGG_COLUMNS:
        vals = np.array([float(r[col]) for r in ok])
        if len(vals) == 0:
            out[col] = {"mean": math.nan, "std": math.nan, "se": math.nan}
            continue
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        out[col] = {"mean": float(np.mean(vals)), "std": std,
                    "se": std / math.sqrt(len(vals))}
    return out


def _trial_row(trial: int, seed: int, report: MissionReport | None, error: str = "") -> dict:
    """A trial's row; with no report, its error text and NaN for every number."""
    return {"trial": trial, "seed": seed, "success": getattr(report, "success", False),
            "error": getattr(report, "failure_reason", error),
            **{col: getattr(report, col, math.nan) for col in [*_AGG_COLUMNS, "wall_clock"]},
            "report": report}


def _run_trial(args) -> tuple[int, int, MissionReport | None, str]:
    """One trial; any failure becomes the trial's error text, so the batch goes on."""
    sc, trial, seed = args
    try:
        if sc.montecarlo.stations is None:
            report = run_mission(sc, seed)
        else:
            lo, hi = (int(v) for v in sc.montecarlo.stations)
            count = int(seeding.stream(seed, seeding.NETWORK, 9).integers(lo, hi + 1))
            report = run_mission(sc, seed, station_count=count)
        return trial, seed, report, ""
    except UUVSimError as exc:
        return trial, seed, None, str(exc)
    except Exception as exc:  # a fault in one trial must not discard the others
        traceback.print_exc()
        return trial, seed, None, f"{type(exc).__name__}: {exc}"


def run_monte_carlo(sc: Scenario, trials: int, base_seed: int, out_dir: Path | None = None,
                    jobs: int = 1) -> BatchSummary:
    """Independent trials with seeds base_seed + i; failures recorded, batch continues."""
    if trials < 1:
        raise ScenarioValidationError("trials must be >= 1")
    tasks = [(sc, i, base_seed + i) for i in range(trials)]
    if jobs > 1:  # map returns the results in task order, as the serial list does
        with ProcessPoolExecutor(max_workers=min(jobs, trials)) as pool:
            results = list(pool.map(_run_trial, tasks))
    else:
        results = [_run_trial(t) for t in tasks]

    summary = BatchSummary()
    for trial, seed, report, error in results:
        summary.rows.append(_trial_row(trial, seed, report, error))
    summary.aggregates = aggregate_rows(summary.rows)

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        cols = ["trial", "seed", "success"] + _AGG_COLUMNS + ["error"]
        # A failed trial's counts are NaN, so every aggregate column is real.
        _write_csv(out_dir / "trials.csv", sc, base_seed, cols,
                   "%d,%d,%d" + ",%.17g" * len(_AGG_COLUMNS) + ",%s",
                   [(*(row[c] for c in cols[:-1]), _quote(row["error"]))
                    for row in summary.rows])
        agg = summary.aggregates
        _write_record(out_dir / "summary.txt", sc, base_seed, [
            ("trials", agg["trials"]), ("successes", agg["successes"]),
            ("success_rate", _real(agg["success_rate"])),
            *((col, " ".join(f"{k}={_real(agg[col][k])}" for k in ("mean", "std", "se")))
              for col in _AGG_COLUMNS)])
    return summary


# --- commands ---------------------------------------------------------------


def _cmd_plan(sc: Scenario, args) -> int:
    seed = sc.seed if args.seed is None else args.seed
    cmap = build_map(sc, seed)
    net = build_network_from_spec(sc, cmap, seed)
    cfg = de_config_from_spec(sc.de_global)
    rng = seeding.stream(seed, seeding.DE_GLOBAL, 0)
    speed = sc.vehicle.cruise_speed * sc.mission.nominal_speed_factor  # as the mission plans
    try:
        plan = plan_global(net, net.start_id, net.goal_id,
                           sc.vehicle.time_budget * sc.mission.budget_margin,
                           speed, cfg, restarts=sc.de_global.restarts, rng=rng)
    except NoFeasibleRouteError as exc:
        print(f"no feasible route: {exc}", file=sys.stderr)
        return 3
    route = plan.route
    print(f"route: {'-'.join(str(s) for s in route.sequence)}")
    print(f"time: {route.time:.1f} s of {sc.vehicle.time_budget:.0f} s budget")
    print(f"value: {route.total_value:.0f}  stations: {route.stations_visited}  "
          f"cost: {plan.cost:.4f}")
    print("leg,from,to,distance_m,time_s")
    rows = []
    for idx, (a, b) in enumerate(zip(route.sequence, route.sequence[1:])):
        d, t = edge_metrics(net, a, b, speed)
        rows.append((idx, a, b, d, t))
        print(f"{idx},{a},{b},{d:.1f},{t:.1f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "route.csv", sc, seed, ["leg", "from", "to", "distance_m", "time_s"],
                   "%d,%d,%d,%.17g,%.17g", rows)
        _write_csv(out / "de_traces.csv", sc, seed, *_DE_TRACES,
                   _trace_rows((f"global-r{i}", tr) for i, tr in enumerate(plan.traces)))
    return 0


def _cmd_run(sc: Scenario, args) -> int:
    out_dir = Path(args.out) if args.out else Path("out") / sc.name
    report, paths = run_once(sc, args.seed, out_dir)
    print(f"success: {report.success}")
    if report.failure_reason:
        print(f"reason: {report.failure_reason}")
    print(f"global_replans: {report.global_replans}")
    print(f"path_time: {report.path_time:.1f} s  residual: {report.residual_time:.1f} s")
    print(f"value: {report.total_value:.0f}  stations: {report.stations_visited}  "
          f"cost: {report.total_cost:.4f}  wall: {report.wall_clock:.1f} s")
    for p in paths:
        print(f"wrote {p}")
    return 0 if report.success else 3


def _cmd_montecarlo(sc: Scenario, args) -> int:
    out_dir = Path(args.out) if args.out else Path("out") / f"{sc.name}-mc"
    base = sc.seed if args.seed is None else args.seed
    summary = run_monte_carlo(sc, args.trials, base, out_dir, jobs=args.jobs)
    agg = summary.aggregates
    print(f"trials: {agg['trials']}  successes: {agg['successes']}")
    for col in _AGG_COLUMNS:
        a = agg[col]
        print(f"{col}: mean={a['mean']:.3f} std={a['std']:.3f} se={a['se']:.3f}")
    print(f"wrote {out_dir / 'trials.csv'}")
    return 0


def _cmd_field_dump(sc: Scenario, args) -> int:
    seed = sc.seed if args.seed is None else args.seed
    out = Path(args.out) if args.out else Path(f"{sc.name}-field.csv")
    if out.is_dir():
        out = out / "field.csv"
    extent = tuple(args.extent) if args.extent else None
    path = field_dump(sc, seed, args.resolution, out, extent=extent)
    print(f"wrote {path}")
    return 0


def _cmd_echo(sc: Scenario, args) -> int:
    text = echo(sc)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _flag(name: str, cast, rule: Rule):
    """An argparse type called `name`: `cast` the text, then refuse what `rule` refuses."""
    def check(text: str):
        value = cast(text)
        if not rule.test(value):
            raise argparse.ArgumentTypeError(f"must be {rule.words}, got {text}")
        return value
    check.__name__ = name  # argparse names it in "invalid <name> value"
    return check


_count = _flag("_count", int, integer(1))
_seed = _flag("_seed", int, next(f for f in fields(Scenario) if f.name == "seed").metadata["rule"])
_length = _flag("_length", float, POSITIVE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uuvsim",
                                     description="Mission planning simulator for an "
                                                 "underwater vehicle in a drifting sensor network")
    parser.add_argument("--version", action="version", version=f"uuvsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled scenario name")
        p.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="output directory or file")

    p = sub.add_parser("plan", help="plan the initial global route only")
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="run a single mission")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("montecarlo", help="run a batch of seeded trials")
    common(p)
    p.add_argument("--trials", type=_count, default=30)
    p.add_argument("--jobs", type=_count, default=1, help="parallel worker processes")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("field-dump", help="sample the current field to CSV")
    common(p)
    p.add_argument("--resolution", type=_count, default=200, help="grid points per axis")
    p.add_argument("--extent", type=_length, nargs=2, default=None,
                   metavar=("X", "Y"), help="sample window size in meters")
    p.set_defaults(func=_cmd_field_dump)

    p = sub.add_parser("echo", help="validate a scenario and emit it with defaults filled")
    common(p)
    p.set_defaults(func=_cmd_echo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(resolve_scenario(args.scenario), args)
    except UUVSimError as exc:  # a bad file, or a world its values cannot build
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
