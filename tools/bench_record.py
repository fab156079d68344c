"""Record the benchmark of this checkout in one JSON file.

    python3 tools/bench_record.py BENCH_<n>.json [--against REV]

Run from the repository root. For each of the four workloads and seeds 1-5,
it runs `python3 perfbench/run.py --workload W --seed i --seconds 20 --trace 0`
as its own process, one after another, then each workload once with
`--trace 1` at seed 1. The file holds, per workload, the median, first and
third quartile of each end-to-end metric with every run's values and round
count, the traced per-layer metrics, the commit, whether `src`, `tests` or
`tools` differ from it (`dirty`), the Python, numpy and PyYAML versions,
whether that PyYAML has libyaml (`pyyaml_libyaml`: scenario parsing, and so
`setup_s`, uses it when present), the version of scipy, which only the
tests' reference basis uses, the machine
(architecture, usable CPUs and, where /proc/cpuinfo is readable, the CPU
model) and the line count of `src/uuvsim/*.py`. Its `startup` block holds
the peak RSS of a fresh process after `import uuvsim.cli` and the wall time
of `python -m uuvsim.cli --help`, each the median of 5 processes. Its
`setup` block holds, for `paper_baseline` seeds 42 and 43 and `mc_reduced`
seed 1008, the median wall time of 15 in-process `scenario.build_map` calls
(after one untimed build) and the tracemalloc peak of one more, each case
in a fresh process: a world set-up number that no other layer's heap moves.
Its `end_to_end` block holds the wall time of `cli.run_once` on `paper_baseline`
seeds 42, 43 and 20180520 (median of 2 runs) and the trials per minute of a
30-trial `run_monte_carlo` of `paper_baseline` at jobs 1 and 2, run in this
process. If any run is not correct or has a failed operation, it writes
nothing and exits 1.

With `--against REV`, REV is extracted with `git archive` into a temporary
directory, and each (workload, seed) run is made from there and from this
checkout in turn, alternating which side goes first, so both sides see the
same machine phase. Each workload then also holds an `against` block: REV's
runs and traced per-layer metrics, and per end-to-end metric both sides'
median and quartiles, the pairs the checkout won, lost and tied in the
direction `BENCHMARK.json` declares as better, and whether the gap between
the medians exceeds REV's quartile spread. The top-level `against` block
holds REV's commit, its `startup` and `setup` blocks and its
`pyyaml_libyaml`; each `setup` case is measured on both trees in turn,
alternating which goes first.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper_mission", "route_planning", "leg_planning", "mc_batch")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20
MISSION_SEEDS = (42, 43, 20180520)
MC_TRIALS = 30
STARTUP_RUNS = 5
IMPORT_RSS = ("import resource, uuvsim.cli; "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
LIBYAML = "import yaml; print(yaml.__with_libyaml__)"
SETUP_CASES = (("paper_baseline", 42), ("paper_baseline", 43),
               ("perfbench/scenarios/mc_reduced.yaml", 1008))
SETUP_BUILDS = 15
# argv: scenario, seed, builds.  Prints the median and every timed build's
# wall (s) and the tracemalloc peak (B) of one more build.
SETUP = """
import json, statistics, sys, time, tracemalloc
from uuvsim import scenario
sc, seed, builds = scenario.resolve_scenario(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
scenario.build_map(sc, seed)
walls = []
for _ in range(builds):
    start = time.perf_counter()
    scenario.build_map(sc, seed)
    walls.append(time.perf_counter() - start)
tracemalloc.start()
scenario.build_map(sc, seed)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"build_map_s": statistics.median(walls), "peak_bytes": peak, "runs_s": walls}))
"""


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> tuple[dict, int | None]:
    """One perfbench run of the tree at `root`: its result and, untraced, its round count."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    rounds = re.search(r" (\d+) round\(s\)", done.stdout)
    return json.loads(done.stdout.splitlines()[-1]), rounds and int(rounds.group(1))


def run_row(seed: int, result: dict, rounds: int | None) -> dict:
    return {"seed": seed, "rounds": rounds, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            **{k: m["value"] for k, m in result["metrics"].items()}}


def extract(rev: str, into: Path) -> str:
    """Write the tree of `rev` into `into`; return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def machine() -> dict:
    """Architecture, the CPUs this process may run on, and the CPU model if readable."""
    model = None
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"arch": platform.machine(), "cpus": len(os.sched_getaffinity(0)), "model": model}


def libyaml(root: Path = ROOT) -> bool:
    """Whether the PyYAML a fresh process of the tree at `root` imports has libyaml."""
    done = subprocess.run([sys.executable, "-c", LIBYAML], cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


def environment() -> dict:
    """The versions and the machine this checkout runs on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "pyyaml": version("PyYAML"), "pyyaml_libyaml": libyaml(),
            "scipy_test_oracle": version("scipy"), "machine": machine()}


def startup(root: Path = ROOT) -> dict:
    """Median over STARTUP_RUNS fresh processes of the tree at `root`: peak RSS
    (MB, Linux `ru_maxrss`) after `import uuvsim.cli`, and the wall time of
    `python -m uuvsim.cli --help`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    rss, walls = [], []
    for _ in range(STARTUP_RUNS):
        done = subprocess.run([sys.executable, "-c", IMPORT_RSS], cwd=root, env=env,
                              capture_output=True, text=True, check=True)
        rss.append(float(done.stdout))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "uuvsim.cli", "--help"], cwd=root, env=env,
                       capture_output=True, check=True)
        walls.append(time.perf_counter() - start)
    return {"import_rss_mb": statistics.median(rss), "help_wall_s": statistics.median(walls),
            "runs": {"import_rss_mb": rss, "help_wall_s": walls}}


def setup(sides: dict[str, Path]) -> dict[str, dict]:
    """Per side (a tree root) and SETUP_CASES case, named `<scenario>_<seed>`:
    `scenario.build_map`'s median wall over SETUP_BUILDS builds and its
    tracemalloc peak, each case in a fresh process of each tree in turn."""
    out = {side: {} for side in sides}
    for k, (ref, seed) in enumerate(SETUP_CASES):
        for side in sorted(sides, reverse=k % 2 == 1):
            root = sides[side]
            done = subprocess.run([sys.executable, "-c", SETUP, ref, str(seed), str(SETUP_BUILDS)],
                                  cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                                  capture_output=True, text=True, check=True)
            out[side][f"{Path(ref).stem}_{seed}"] = json.loads(done.stdout)
    return out


def version(distribution: str) -> str | None:
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def end_to_end() -> dict:
    """Mission walls and Monte Carlo throughput of `paper_baseline`."""
    sys.path.insert(0, str(ROOT / "src"))
    from uuvsim import cli, scenario

    sc = scenario.resolve_scenario("paper_baseline")
    missions = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in MISSION_SEEDS:
            walls = []
            for run in range(2):
                start = time.perf_counter()
                cli.run_once(sc, seed, Path(tmp) / f"{seed}-{run}")
                walls.append(time.perf_counter() - start)
            missions[str(seed)] = {"median_s": statistics.median(walls), "runs_s": walls}
            print(f"run_once seed {seed}: {walls}", file=sys.stderr, flush=True)
    batches = {}
    for jobs in (1, 2):
        start = time.perf_counter()
        summary = cli.run_monte_carlo(sc, MC_TRIALS, sc.seed, jobs=jobs)
        wall = time.perf_counter() - start
        batches[f"jobs_{jobs}"] = {"trials_per_min": 60.0 * MC_TRIALS / wall, "wall_s": wall,
                                   "successes": summary.aggregates["successes"]}
        print(f"montecarlo jobs {jobs}: {batches[f'jobs_{jobs}']}", file=sys.stderr, flush=True)
    return {"run_once_wall_s": missions,
            "montecarlo": {"trials": MC_TRIALS, "base_seed": sc.seed, **batches}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def paired_summary(parent_runs: list[dict], change_runs: list[dict],
                   better: dict[str, str]) -> dict:
    """Per end-to-end metric in `better` ("lower" or "higher"): both sides'
    quartiles, the seeds' pairs the change won, lost and tied, and whether the
    median gap exceeds the parent's quartile spread."""
    by_seed = {r["seed"]: r for r in parent_runs}
    out = {}
    for name, direction in better.items():
        sign = -1.0 if direction == "lower" else 1.0
        gains = [sign * (r[name] - by_seed[r["seed"]][name]) for r in change_runs]
        parent = quartiles([r[name] for r in parent_runs])
        change = quartiles([r[name] for r in change_runs])
        out[name] = {"better": direction, "parent": parent, "change": change,
                     "won": sum(g > 0 for g in gains), "lost": sum(g < 0 for g in gains),
                     "tied": sum(g == 0 for g in gains),
                     "gap_exceeds_parent_spread": (abs(change["median"] - parent["median"])
                                                   > parent["q3"] - parent["q1"])}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record, bad = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        against = args.against and {"rev": args.against, "commit": extract(args.against, parent)}
        for workload in WORKLOADS:
            sides = {"change": ROOT, "parent": parent} if against else {"change": ROOT}
            runs = {side: [] for side in sides}
            for k, seed in enumerate(SEEDS):
                for side in sorted(sides, reverse=k % 2 == 1):  # change first on even k
                    runs[side].append(run_row(seed, *bench(workload, seed, 0, sides[side])))
                    print(f"{workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr,
                          flush=True)
            traced = {side: bench(workload, 1, 1, root)[0] for side, root in sides.items()}
            for side in sides:
                label = "" if side == "change" else f"{side} "
                bad += [f"{label}{workload} seed {r['seed']}" for r in runs[side]
                        if not r["correct"] or r["failed"]]
                if not traced[side]["correct"] or traced[side]["failed"]:
                    bad.append(f"{label}{workload} traced")
            names = [k for k in runs["change"][0] if k not in ("seed", "rounds", "attempted",
                                                               "failed", "correct")]
            layers = {side: {k: m["value"] for k, m in t["metrics"].items()}
                      for side, t in traced.items()}
            record[workload] = {
                "end_to_end": {k: quartiles([r[k] for r in runs["change"]]) for k in names},
                "runs": runs["change"],
                "per_layer_seed_1": layers["change"],
            }
            if against:
                record[workload]["against"] = {
                    "runs": runs["parent"], "per_layer_seed_1": layers["parent"],
                    "summary": paired_summary(runs["parent"], runs["change"],
                                              {k: v for k, v in better.items() if k in names}),
                }
        started = startup()
        built = setup({"change": ROOT, "parent": parent} if against else {"change": ROOT})
        if against:
            against["startup"] = startup(parent)
            against["setup"] = built["parent"]
            against["pyyaml_libyaml"] = libyaml(parent)
    if bad:
        print(f"not written: incorrect or failed runs: {', '.join(bad)}", file=sys.stderr)
        return 1
    measured = end_to_end()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    changed = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests", "tools"],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "uuvsim").glob("*.py")))
    doc = {"command": f"python3 perfbench/run.py --workload W --seed i --seconds {SECONDS}",
           "seeds": list(SEEDS), "commit": commit, "dirty": bool(changed.strip()),
           **environment(), "src_lines": src_lines, "startup": started,
           "setup": built["change"],
           "workloads": record, "end_to_end": measured}
    if against:
        doc["against"] = against
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
