"""Golden artifact hashes: the CLI's outputs must stay byte-identical.

`golden.json` holds the sha256 of every file that `uuvsim run` writes for
`two_station` (its own seed) and for `paper_baseline` seed 42, and of the
`trials.csv` and `summary.txt` that `uuvsim montecarlo --trials 3` writes for
`two_station`.  Only a change that declares an output change may edit the
file; `python tests/test_golden.py` prints the current hashes in its format.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from uuvsim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

RUN_FILES = ("report.txt", "legs.csv", "ticks.csv", "replans.csv", "paths.csv",
             "de_traces.csv", "field.csv")

CASES = {
    "run two_station": (["run", "--scenario", "two_station"], RUN_FILES),
    "run paper_baseline --seed 42": (["run", "--scenario", "paper_baseline", "--seed", "42"],
                                     RUN_FILES),
    "montecarlo two_station --trials 3": (["montecarlo", "--scenario", "two_station",
                                           "--trials", "3"], ("trials.csv", "summary.txt")),
}


def artifact_hashes(case: str, out_dir: Path) -> dict[str, str]:
    """Run one CLI case into out_dir and return {file name: sha256 hex}."""
    argv, files = CASES[case]
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
