"""Golden artifact hashes: the CLI's outputs must stay byte-identical.

`golden.json` holds the sha256 of every file that `uuvsim run` writes for
`two_station` (its own seed) and for `paper_baseline` seed 42, and of the
`trials.csv` and `summary.txt` that `uuvsim montecarlo --trials 3` writes for
`two_station`.  It also holds the `route.csv` and `de_traces.csv` of
`uuvsim plan` for `paper_baseline` seed 42 and for a test-only variant of it
on 40 stations, whose plans divert onto shortest paths far more often.  Only a
change that declares an output change may edit the hashes of a case;
`python tests/test_golden.py` prints the current hashes in its format.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

import uuvsim
from uuvsim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
BUNDLED = Path(uuvsim.__file__).with_name("scenarios")

PLAN_FILES = ("route.csv", "de_traces.csv")
RUN_FILES = ("report.txt", "legs.csv", "ticks.csv", "replans.csv", "paths.csv",
             "de_traces.csv", "field.csv")

CASES = {
    "run two_station": (["run", "--scenario", "two_station"], RUN_FILES),
    "run paper_baseline --seed 42": (["run", "--scenario", "paper_baseline", "--seed", "42"],
                                     RUN_FILES),
    "montecarlo two_station --trials 3": (["montecarlo", "--scenario", "two_station",
                                           "--trials", "3"], ("trials.csv", "summary.txt")),
    "plan paper_baseline --seed 42": (["plan", "--scenario", "paper_baseline", "--seed", "42"],
                                      PLAN_FILES),
    "plan paper_baseline_40 --seed 42": (["plan", "--scenario", "paper_baseline_40",
                                          "--seed", "42"], PLAN_FILES),
}

# Test-only scenarios: a bundled scenario with some network keys replaced.
VARIANTS = {"paper_baseline_40": ("paper_baseline", {"stations": 40, "goal": 40})}


def scenario_file(name: str, out_dir: Path) -> Path:
    """Write the variant `name` into out_dir and return its path."""
    base, network = VARIANTS[name]
    doc = yaml.safe_load(BUNDLED.joinpath(f"{base}.yaml").read_text())
    doc["name"] = name
    doc["network"].update(network)
    path = out_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def artifact_hashes(case: str, out_dir: Path) -> dict[str, str]:
    """Run one CLI case into out_dir and return {file name: sha256 hex}."""
    argv, files = CASES[case]
    if argv[2] in VARIANTS:
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [*argv[:2], str(scenario_file(argv[2], out_dir)), *argv[3:]]
    main([*argv, "--out", str(out_dir)])
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_hashes(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert artifact_hashes(case, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        hashes = {case: artifact_hashes(case, Path(tmp) / str(i))
                  for i, case in enumerate(sorted(CASES))}
    sys.stdout.write(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
