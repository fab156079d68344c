import importlib.util
from pathlib import Path

import yaml

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def runs(**metrics):
    """Runs for seeds 1-5, each metric given as its five values in seed order."""
    return [{"seed": seed, **{name: values[i] for name, values in metrics.items()}}
            for i, seed in enumerate((1, 2, 3, 4, 5))]


def test_paired_summary_counts_pairs_in_the_better_direction():
    # Parent and change runs listed in different orders still pair by seed.
    parent = runs(requests_per_min=[10.0, 12.0, 11.0, 13.0, 14.0],
                  setup_s=[0.5, 0.5, 0.5, 0.5, 0.5])
    change = runs(requests_per_min=[11.0, 12.0, 30.0, 12.0, 20.0],
                  setup_s=[0.4, 0.6, 0.5, 0.4, 0.4])[::-1]
    got = bench_record.paired_summary(parent, change,
                                      {"requests_per_min": "higher", "setup_s": "lower"})
    rpm = got["requests_per_min"]
    assert (rpm["won"], rpm["lost"], rpm["tied"]) == (3, 1, 1)
    assert rpm["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert rpm["change"] == {"median": 12.0, "q1": 12.0, "q3": 20.0}
    assert rpm["better"] == "higher" and not rpm["gap_exceeds_parent_spread"]
    setup = got["setup_s"]
    assert (setup["won"], setup["lost"], setup["tied"]) == (3, 1, 1)
    assert setup["change"]["median"] == 0.4
    # The parent's five equal runs have no spread, so any gap exceeds it.
    assert setup["gap_exceeds_parent_spread"]


def test_a_gap_within_the_parent_spread_is_not_flagged():
    parent = runs(peak_rss_mb=[100.0, 90.0, 110.0, 95.0, 105.0])
    change = runs(peak_rss_mb=[101.0, 96.0, 104.0, 99.0, 107.0])
    got = bench_record.paired_summary(parent, change, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert (got["won"], got["lost"], got["tied"]) == (1, 4, 0)
    assert got["change"]["median"] - got["parent"]["median"] == 1.0
    assert not got["gap_exceeds_parent_spread"]


def test_startup_block_holds_each_fresh_process_and_their_median(monkeypatch):
    monkeypatch.setattr(bench_record, "STARTUP_RUNS", 3)
    got = bench_record.startup()
    assert set(got) == {"import_rss_mb", "help_wall_s", "runs"}
    for name in ("import_rss_mb", "help_wall_s"):
        runs = got["runs"][name]
        assert len(runs) == 3 and all(v > 0 for v in runs)
        assert got[name] == sorted(runs)[1]


def test_setup_block_times_and_traces_build_map_on_each_side(monkeypatch):
    # Both sides are this tree here; under --against the parent's is the other.
    monkeypatch.setattr(bench_record, "SETUP_BUILDS", 3)
    monkeypatch.setattr(bench_record, "SETUP_CASES", (("two_station", 1), ("paper_baseline", 42)))
    root = bench_record.ROOT
    got = bench_record.setup({"change": root, "parent": root})
    assert set(got) == {"change", "parent"}
    for side in got.values():
        assert set(side) == {"two_station_1", "paper_baseline_42"}
        for case in side.values():
            assert len(case["runs_s"]) == 3 and all(v > 0 for v in case["runs_s"])
            assert case["build_map_s"] == sorted(case["runs_s"])[1]
            assert 0 < case["peak_bytes"] <= 4e6
    # The paper world's 1000 x 1000 raster outweighs the two-station one.
    change = got["change"]
    assert change["paper_baseline_42"]["peak_bytes"] > change["two_station_1"]["peak_bytes"]


def test_environment_records_whether_pyyaml_has_libyaml():
    # Scenario parsing, and so setup_s, is faster with libyaml; under --against
    # the parent's tree is asked the same in a fresh process.
    got = bench_record.environment()
    assert got["pyyaml"] == yaml.__version__
    assert got["pyyaml_libyaml"] is yaml.__with_libyaml__
    assert {"python", "numpy", "scipy_test_oracle", "machine"} <= set(got)
