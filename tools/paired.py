"""Compare two Monte Carlo batches seed by seed.

    python3 tools/paired.py A/trials.csv B/trials.csv [--json OUT.json]

Both files come from `uuvsim montecarlo` with the same base seed and trial
count: two scenarios, or one scenario at two commits.  A trial's outcome
depends mostly on its world, so the difference between the two sides on one
seed varies far less than either side over seeds.  For each metric the tool
takes B - A over the seeds that both sides completed and reports its mean,
its standard error (sample std / sqrt(n)) and how many seeds B has lower,
equal and higher than A.  It also reports each side's successes and failure
reasons, and the seeds that only one side completed.

It prints one markdown table, then one line per side; `--json` also writes
the numbers as JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from pathlib import Path

METRICS = ("total_cost", "residual_time", "path_time", "total_value", "global_replans")


def read_trials(path) -> dict[int, dict]:
    """The rows of a trials.csv by seed; the `#` header line is skipped."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        out = {}
        for row in rows:
            seed = int(row["seed"])
            if seed in out:
                raise ValueError(f"{path}: seed {seed} appears twice")
            out[seed] = {"success": row["success"] == "1", "error": row["error"],
                         **{m: float(row[m]) for m in METRICS}}
    return out


def _side(rows: dict[int, dict]) -> dict:
    reasons = Counter(r["error"] for r in rows.values() if not r["success"])
    return {"trials": len(rows), "successes": sum(r["success"] for r in rows.values()),
            "failure_reasons": dict(sorted(reasons.items()))}


def compare(a: dict[int, dict], b: dict[int, dict]) -> dict:
    """Paired differences B - A per metric over the seeds both sides completed."""
    done_a = {s for s, r in a.items() if r["success"]}
    done_b = {s for s, r in b.items() if r["success"]}
    both = sorted(done_a & done_b)
    metrics = {}
    for m in METRICS:
        d = [b[s][m] - a[s][m] for s in both]
        n = len(d)
        mean = math.fsum(d) / n if n else math.nan
        se = (math.sqrt(math.fsum((x - mean) ** 2 for x in d) / (n - 1) / n)
              if n > 1 else math.nan)
        metrics[m] = {"mean_a": math.fsum(a[s][m] for s in both) / n if n else math.nan,
                      "mean_b": math.fsum(b[s][m] for s in both) / n if n else math.nan,
                      "mean_diff": mean, "se": se,
                      "lower": sum(x < 0 for x in d), "equal": sum(x == 0 for x in d),
                      "higher": sum(x > 0 for x in d)}
    return {"paired": len(both), "a": _side(a), "b": _side(b),
            "only_a": sorted(done_a - done_b), "only_b": sorted(done_b - done_a),
            "unmatched_seeds": sorted(set(a) ^ set(b)), "metrics": metrics}


def markdown(result: dict, label_a: str = "A", label_b: str = "B") -> str:
    lines = [f"| metric (B - A, {result['paired']} paired seeds) | mean A | mean B | "
             "mean diff | se | lower / equal / higher |",
             "| --- | --- | --- | --- | --- | --- |"]
    for m, r in result["metrics"].items():
        lines.append(f"| `{m}` | {r['mean_a']:.6g} | {r['mean_b']:.6g} | "
                     f"{r['mean_diff']:+.4g} | {r['se']:.2g} | "
                     f"{r['lower']} / {r['equal']} / {r['higher']} |")
    lines.append("")
    for key, label in (("a", label_a), ("b", label_b)):
        side = result[key]
        reasons = "; ".join(f"{why} x{n}" for why, n in side["failure_reasons"].items())
        only = result[f"only_{key}"]
        lines.append(f"- {key.upper()} ({label}): {side['successes']}/{side['trials']} successes"
                     + (f"; failures: {reasons}" if reasons else "")
                     + (f"; only this side completed seeds {only}" if only else ""))
    if result["unmatched_seeds"]:
        lines.append(f"- seeds in one file only: {result['unmatched_seeds']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="trials.csv of side A")
    parser.add_argument("b", type=Path, help="trials.csv of side B")
    parser.add_argument("--json", type=Path, default=None, help="also write the numbers here")
    args = parser.parse_args(argv)
    result = compare(read_trials(args.a), read_trials(args.b))
    print(markdown(result, str(args.a), str(args.b)))
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
