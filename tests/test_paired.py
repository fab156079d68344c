import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parents[1] / "tools" / "paired.py")
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

COLUMNS = ("trial,seed,success,global_replans,path_time,residual_time,total_value,"
           "stations_visited,total_cost,error")


def write_trials(path, rows):
    """A trials.csv as `uuvsim montecarlo` writes it; rows are
    (seed, success, global_replans, path_time, residual_time, total_value, total_cost, error)."""
    lines = ["# uuvsim=0.1.0 scenario=hand seed=1", COLUMNS]
    for i, (seed, ok, replans, path_t, residual, value, cost, error) in enumerate(rows):
        nums = (replans, path_t, residual, value, 5, cost) if ok else (math.nan,) * 6
        lines.append(f"{i},{seed},{int(ok)}," + ",".join(f"{v:.17g}" for v in nums)
                     + f",{error}")
    path.write_text("\n".join(lines) + "\n")
    return path


A_ROWS = [(1, True, 1, 1000.0, 300.0, 10, 1.0, ""),
          (2, True, 0, 2000.0, 300.0, 20, 2.0, ""),
          (3, True, 2, 3000.0, 300.0, 30, 3.0, ""),
          (4, False, 0, 0, 0, 0, 0, "minimum route time exceeds budget")]
B_ROWS = [(1, True, 1, 1000.0, 300.0, 10, 0.0, ""),
          (2, True, 1, 2000.0, 300.0, 20, 2.0, ""),
          (3, True, 2, 3000.0, 300.0, 30, 7.0, ""),
          (4, True, 0, 1500.0, 300.0, 15, 1.5, "")]


def test_two_copies_of_one_file_differ_by_nothing(tmp_path):
    path = write_trials(tmp_path / "trials.csv", A_ROWS)
    result = paired.compare(paired.read_trials(path), paired.read_trials(path))
    assert result["paired"] == 3 and result["only_a"] == result["only_b"] == []
    for metric in paired.METRICS:
        r = result["metrics"][metric]
        assert r["mean_diff"] == 0.0 and r["se"] == 0.0
        assert (r["lower"], r["equal"], r["higher"]) == (0, 3, 0)


def test_hand_made_pair_gives_the_hand_computed_numbers(tmp_path, capsys):
    a = write_trials(tmp_path / "a.csv", A_ROWS)
    b = write_trials(tmp_path / "b.csv", B_ROWS)
    result = paired.compare(paired.read_trials(a), paired.read_trials(b))
    # Seed 4 failed on A, so seeds 1-3 pair up.
    assert result["paired"] == 3 and result["only_b"] == [4] and result["only_a"] == []
    assert result["a"] == {"trials": 4, "successes": 3,
                           "failure_reasons": {"minimum route time exceeds budget": 1}}
    assert result["b"] == {"trials": 4, "successes": 4, "failure_reasons": {}}
    # total_cost differences -1, 0, +4: mean 1, deviations -2, -1, 3, sample variance 7.
    cost = result["metrics"]["total_cost"]
    assert cost["mean_diff"] == 1.0 and cost["se"] == pytest.approx(math.sqrt(7 / 3))
    assert (cost["mean_a"], cost["mean_b"]) == (2.0, 3.0)
    assert (cost["lower"], cost["equal"], cost["higher"]) == (1, 1, 1)
    # global_replans differences 0, 1, 0: mean 1/3, sample variance 1/3.
    replans = result["metrics"]["global_replans"]
    assert replans["mean_diff"] == pytest.approx(1 / 3)
    assert replans["se"] == pytest.approx(1 / 3)
    assert (replans["lower"], replans["equal"], replans["higher"]) == (0, 2, 1)
    residual = result["metrics"]["residual_time"]
    assert residual["mean_diff"] == 0.0 and residual["se"] == 0.0

    assert paired.main([str(a), str(b), "--json", str(tmp_path / "out.json")]) == 0
    table = capsys.readouterr().out
    assert "| `total_cost` | 2 | 3 | +1 | 1.5 | 1 / 1 / 1 |" in table
    assert "3/4 successes; failures: minimum route time exceeds budget x1" in table
    assert "only this side completed seeds [4]" in table
    assert (tmp_path / "out.json").exists()
