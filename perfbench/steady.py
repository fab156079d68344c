"""Steadiness: run each workload repeatedly and report every end-to-end metric's
median and quartile spread.

    python3 perfbench/steady.py --runs 10 [--seconds 20]

Every workload in BENCHMARK.json runs --runs times, with seeds 1, 2, ....
The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); the bounds in BENCHMARK.json are set from
it. Also reports the share of failed operations, which must be
the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(name, seed, seconds)
            results.append(res)
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{name} seed={seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: all correct={all(r['correct'] for r in results)}, "
              f"failed shares {shares}")
        summary[name] = {}
        for metric in results[0]["metrics"]:
            median, rel = spread([r["metrics"][metric]["value"] for r in results])
            bound = bounds.get(metric)
            summary[name][metric] = {"median": median, "spread": rel}
            print(f"  {metric:<18} median {median:12.5g}  spread {rel:7.2%}  "
                  f"bound {bound if bound is not None else '-'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
