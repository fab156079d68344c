"""Golden artifact hashes: the CLI's outputs must stay byte-identical.

`golden.json` holds the sha256 of every file that `uuvsim run` writes for
`two_station` (its own seed) and for `paper_baseline` seed 42, and of the
`trials.csv` and `summary.txt` that `uuvsim montecarlo --trials 3` writes for
`two_station`.  It also holds the `route.csv` and `de_traces.csv` of
`uuvsim plan` for `paper_baseline` seed 42 and for a test-only variant of it
on 40 stations, whose plans divert onto shortest paths far more often, and the
`uuvsim run` files of a test-only hazard world: the 2 x 2 km two-record world
of `tests/test_cli.py` with its default six obstacles.  There seed 6 flies its
one leg with no replan, and seed 26 flies one hazard replan; stepped on every
tick, seed 26 ends trapped mid-leg (exit 3), which
`tests/test_mission.py` pins at `OBSTACLE_STEP = 1.0`.  Only a
change that declares an output change may edit the hashes of a case;
`python -m tests.test_golden`, run from the repo root with `src` on the path,
prints the current hashes in its format.
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
from tests.test_cli import small_world_file, two_records

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
    "run hazard_world --seed 6": (["run", "--scenario", "hazard_world", "--seed", "6"],
                                  RUN_FILES),
    "run hazard_world --seed 26": (["run", "--scenario", "hazard_world", "--seed", "26"],
                                   RUN_FILES),
}


def _bundled(base: str, **network):
    """A bundled scenario with some network keys replaced."""
    def doc(out_dir: Path) -> dict:
        out = yaml.safe_load(BUNDLED.joinpath(f"{base}.yaml").read_text())
        out["network"].update(network)
        return out
    return doc


def _hazard_world(out_dir: Path) -> dict:
    return yaml.safe_load(Path(small_world_file(out_dir, two_records())).read_text())


# Test-only scenarios: each writes its document given a scratch directory.
VARIANTS = {"paper_baseline_40": _bundled("paper_baseline", stations=40, goal=40),
            "hazard_world": _hazard_world}


def scenario_file(name: str, out_dir: Path) -> Path:
    """Write the variant `name` into out_dir and return its path."""
    doc = VARIANTS[name](out_dir)
    doc["name"] = name
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
