"""Record the benchmark of this checkout in one JSON file.

    python3 tools/bench_record.py BENCH_<n>.json

Run from the repository root. For each of the four workloads and seeds 1-5,
it runs `python3 perfbench/run.py --workload W --seed i --seconds 20 --trace 0`
as its own process, one after another, then each workload once with
`--trace 1` at seed 1. The file holds, per workload, the median, first and
third quartile of each end-to-end metric with every run's values and round
count, the traced per-layer metrics, the commit, the Python, numpy and scipy
versions, the machine (architecture, usable CPUs and, where /proc/cpuinfo is
readable, the CPU model) and the line count of `src/uuvsim/*.py`. If any run
is not correct or has a failed operation, it writes nothing and exits 1.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper_mission", "route_planning", "leg_planning", "mc_batch")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20


def bench(workload: str, seed: int, trace: int) -> tuple[dict, int | None]:
    """One perfbench run: its result object and, untraced, its round count."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    rounds = re.search(r" (\d+) round\(s\)", done.stdout)
    return json.loads(done.stdout.splitlines()[-1]), rounds and int(rounds.group(1))


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


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0])
    record, bad = {}, []
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, rounds = bench(workload, seed, 0)
            runs.append({"seed": seed, "rounds": rounds, "attempted": result["attempted"],
                         "failed": result["failed"], "correct": result["correct"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        traced, _ = bench(workload, 1, 1)
        bad += [f"{workload} seed {r['seed']}" for r in runs if not r["correct"] or r["failed"]]
        if not traced["correct"] or traced["failed"]:
            bad.append(f"{workload} traced")
        names = [k for k in runs[0] if k not in ("seed", "rounds", "attempted", "failed",
                                                 "correct")]
        record[workload] = {
            "end_to_end": {k: quartiles([r[k] for r in runs]) for k in names},
            "runs": runs,
            "per_layer_seed_1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if bad:
        print(f"not written: incorrect or failed runs: {', '.join(bad)}", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "uuvsim").glob("*.py")))
    doc = {"command": f"python3 perfbench/run.py --workload W --seed i --seconds {SECONDS}",
           "seeds": list(SEEDS), "commit": commit, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__, "machine": machine(),
           "src_lines": src_lines, "workloads": record}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
