import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import uuvsim.cli as cli
import uuvsim.mission as mission
from uuvsim import __version__
from uuvsim.cli import (aggregate_rows, field_dump, main, run_monte_carlo, run_once)
from uuvsim.env import current_at
from uuvsim.errors import ScenarioValidationError
from uuvsim.scenario import (POSITIVE, Scenario, build_field, from_dict, integer,
                             resolve_scenario)


def test_the_program_imports_no_scipy():
    # scipy is the tests' reference for the spline basis, not a runtime
    # dependency; a stray import would bring back its ~50 MB per process.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import pkgutil, sys, uuvsim\n"
            "for m in pkgutil.iter_modules(uuvsim.__path__, 'uuvsim.'):\n"
            "    __import__(m.name)\n"
            "print(len([m for m in sys.modules if m.startswith('uuvsim.')]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    loaded, scipy_modules = done.stdout.splitlines()
    assert int(loaded) >= 10 and scipy_modules == "[]"


def small_scenario(**mission):
    sc = resolve_scenario("two_station")
    for k, v in mission.items():
        setattr(sc.mission, k, v)
    return sc


def test_run_once_writes_all_outputs(tmp_path):
    sc = small_scenario()
    report, paths = run_once(sc, None, tmp_path)
    assert report.success
    names = {p.name for p in paths}
    assert {"report.txt", "legs.csv", "ticks.csv", "replans.csv",
            "paths.csv", "de_traces.csv", "field.csv"} <= names
    path_lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert path_lines[1].startswith("leg,sample,x,y,z,yaw,pitch,surge,sway")
    assert len(path_lines) > 100
    header = (tmp_path / "report.txt").read_text().splitlines()[0]
    assert "uuvsim=" in header and "scenario=two_station" in header and "seed=7" in header
    assert "wall" not in (tmp_path / "report.txt").read_text()


def test_run_once_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_once(small_scenario(), 123, a_dir)
    run_once(small_scenario(), 123, b_dir)
    for name in ("report.txt", "legs.csv", "ticks.csv", "replans.csv",
                 "paths.csv", "de_traces.csv", "field.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_field_dump_row_count_and_consistency(tmp_path):
    sc = small_scenario()
    out = field_dump(sc, sc.seed, resolution=50, out_path=tmp_path / "field.csv")
    lines = out.read_text().splitlines()
    assert lines[1] == "x,y,v_cx,v_cy"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2500
    fld = build_field(sc, sc.seed)
    for row in rows[::251]:
        x, y, vx, vy = map(float, row)
        s = current_at((x, y), fld)
        assert vx == pytest.approx(s.v_cx, abs=1e-12)
        assert vy == pytest.approx(s.v_cy, abs=1e-12)


def test_field_dump_empty_field_is_zero(tmp_path):
    sc = small_scenario()
    sc.current.count = [0, 0]
    out = field_dump(sc, sc.seed, resolution=10, out_path=tmp_path / "f.csv")
    for line in out.read_text().splitlines()[2:]:
        _, _, vx, vy = line.split(",")
        assert float(vx) == 0.0 and float(vy) == 0.0


def test_field_dump_paper_window_row_count(tmp_path):
    sc = small_scenario()
    out = field_dump(sc, sc.seed, resolution=200, out_path=tmp_path / "w.csv",
                     extent=(2000.0, 2000.0))
    assert len(out.read_text().splitlines()) == 2 + 200 * 200


def test_monte_carlo_single_trial_equals_run(tmp_path):
    sc = small_scenario()
    summary = run_monte_carlo(sc, trials=1, base_seed=7, out_dir=tmp_path)
    row = summary.rows[0]
    report, _ = run_once(sc, 7, tmp_path / "single")
    assert row["residual_time"] == pytest.approx(report.residual_time)
    assert row["total_value"] == report.total_value
    assert summary.aggregates["successes"] == 1


def test_monte_carlo_aggregates_recompute_exactly(tmp_path):
    sc = small_scenario()
    summary = run_monte_carlo(sc, trials=4, base_seed=100, out_dir=tmp_path)
    ok = [r for r in summary.rows if r["success"]]
    for col in ("residual_time", "total_value", "path_time"):
        vals = np.array([r[col] for r in ok], dtype=float)
        agg = summary.aggregates[col]
        assert agg["mean"] == pytest.approx(vals.mean(), abs=1e-9)
        if len(vals) > 1:
            assert agg["std"] == pytest.approx(vals.std(ddof=1), abs=1e-9)
            assert agg["se"] == pytest.approx(vals.std(ddof=1) / math.sqrt(len(vals)), abs=1e-9)
    trials_csv = (tmp_path / "trials.csv").read_text().splitlines()
    assert len(trials_csv) == 2 + 4


def per_value_csv(columns, rows) -> str:
    """The tables as csv.writer writes them from one formatted string per value."""

    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, float):
            return f"{x:.17g}"
        return str(x)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return out.getvalue()


_reals = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**6, 10**6),
                   st.sampled_from([0.0, -0.0, 1e-300, 2.0**53 + 1]),
                   st.floats(-1e9, 1e9).map(np.float64))
_texts = st.text(st.sampled_from('ab ,"\r\n\t;'), max_size=6)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-10**12, 10**12), st.booleans(), _reals, _texts,
                               _reals), max_size=5))
def test_row_formats_write_what_csv_writer_wrote_per_value(rows, tmp_path_factory):
    # One %-format string per row against the per-value formatting it
    # replaced: ints and flags under %d, reals (ints among them) under
    # %.17g, text quoted once by _quote, so the artifacts keep their bytes.
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    sc = Scenario(name="csv")
    columns = ["i", "flag", "x", "note", "y"]
    cli._write_csv(path, sc, 5, columns, "%d,%d,%.17g,%s,%.17g",
                   [(i, b, x, cli._quote(t), y) for i, b, x, t, y in rows])
    expected = cli._header(sc, 5) + "\n" + per_value_csv(columns, rows)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
def test_write_csv_blocks_keep_the_bytes_of_the_whole_table(tmp_path, n):
    # Rows are formatted and written _WRITE_ROWS (4,096) at a time, an
    # array's turned into Python numbers block by block; the bytes are those
    # of the whole table formatted at once, from an array or a list.
    rng = np.random.default_rng(n)
    table = np.column_stack([rng.normal(size=(n, 2)), rng.integers(0, 9, n)])
    sc, fmt = Scenario(name="csv"), "%.17g,%.17g,%d"
    expected = "".join([f"{cli._header(sc, 1)}\na,b,c\n",
                        *(fmt % tuple(row) + "\n" for row in table.tolist())])
    for rows in (table, [tuple(row) for row in table.tolist()]):
        cli._write_csv(tmp_path / "t.csv", sc, 1, ["a", "b", "c"], fmt, rows)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_monte_carlo_records_trial_failures(tmp_path):
    sc = small_scenario()
    sc.network.records = None
    sc.network.stations = 2
    sc.network.edges = None
    sc.network.comm_range = 1.0  # nothing connects: every trial fails to build
    summary = run_monte_carlo(sc, trials=2, base_seed=0)
    assert summary.aggregates["successes"] == 0
    assert all(not r["success"] and r["error"] for r in summary.rows)


HEADER = f"# uuvsim={__version__} scenario=two_station"


@pytest.mark.parametrize("raised, error", [
    (None, "goal 2 not reachable from start 1"),
    (ValueError('bad, "draw"'), '"ValueError: bad, ""draw"""'),
], ids=["world-cannot-build", "error-text-quoted"])
def test_monte_carlo_all_failed_batch_files(tmp_path, monkeypatch, raised, error):
    # No golden case has a failed trial: every number is NaN, so is every
    # aggregate, and the error text is the last field, quoted as csv quotes it.
    sc = small_scenario()
    sc.network.records = None
    sc.network.stations = 2
    sc.network.edges = None
    sc.network.comm_range = 1.0

    def fail(*args, **kw):
        raise raised

    if raised is not None:
        monkeypatch.setattr(cli, "run_mission", fail)
    run_monte_carlo(sc, trials=2, base_seed=0, out_dir=tmp_path)
    assert (tmp_path / "summary.txt").read_text() == "".join(
        [f"{HEADER} seed=0\ntrials: 2\nsuccesses: 0\nsuccess_rate: 0\n"]
        + [f"{col}: mean=nan std=nan se=nan\n" for col in
           ("global_replans", "path_time", "residual_time", "total_value",
            "stations_visited", "total_cost")])
    assert (tmp_path / "trials.csv").read_text() == (
        f"{HEADER} seed=0\n"
        "trial,seed,success,global_replans,path_time,residual_time,total_value,"
        "stations_visited,total_cost,error\n"
        f"0,0,0,nan,nan,nan,nan,nan,nan,{error}\n"
        f"1,1,0,nan,nan,nan,nan,nan,nan,{error}\n")


def test_monte_carlo_survives_unexpected_trial_error(monkeypatch):
    sc = small_scenario()
    run_mission = cli.run_mission

    def flaky(sc, seed, **kw):
        if seed == 11:
            raise ValueError("bad draw")
        return run_mission(sc, seed, **kw)

    monkeypatch.setattr(cli, "run_mission", flaky)
    summary = run_monte_carlo(sc, trials=3, base_seed=10, jobs=1)
    assert [r["seed"] for r in summary.rows] == [10, 11, 12]
    bad = summary.rows[1]
    assert not bad["success"] and bad["report"] is None
    assert bad["error"] == "ValueError: bad draw"
    assert all(r["success"] and r["report"] for r in (summary.rows[0], summary.rows[2]))
    assert summary.aggregates["successes"] == 2


def test_monte_carlo_files_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    rows = run_monte_carlo(small_scenario(), trials=3, base_seed=7, out_dir=a_dir).rows
    run_monte_carlo(small_scenario(), trials=3, base_seed=7, out_dir=b_dir)
    for name in ("trials.csv", "summary.txt"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name
    assert all(r["wall_clock"] > 0 for r in rows)


def redraw_scenario():
    sc = small_scenario()
    sc.network.records = None
    sc.network.edges = None
    sc.network.stations = 6
    sc.network.comm_range = 3000.0
    sc.field.x = sc.field.y = 3000.0
    sc.map.width = sc.map.height = 300
    sc.montecarlo.stations = [5, 9]
    return sc


def test_monte_carlo_station_redraw(tmp_path):
    summary = run_monte_carlo(redraw_scenario(), trials=3, base_seed=40)
    visited_counts = [r["report"].stations_visited for r in summary.rows if r["report"]]
    assert len(visited_counts) == 3


def test_monte_carlo_station_redraw_builds_each_map_once(monkeypatch):
    seeds = []
    build_map = mission.build_map

    def counting(sc, seed):
        seeds.append(seed)
        return build_map(sc, seed)

    monkeypatch.setattr(mission, "build_map", counting)
    monkeypatch.setattr(cli, "build_map", counting)
    run_monte_carlo(redraw_scenario(), trials=2, base_seed=40, jobs=1)
    assert seeds == [40, 41]


# --- command line -----------------------------------------------------------


def test_cli_echo_round_trip(tmp_path, capsys):
    rc = main(["echo", "--scenario", "two_station"])
    assert rc == 0
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["name"] == "two_station"
    assert doc["vehicle"]["max_speed"] == 2.82


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("vehicle: {time_budget: -1}\n")
    rc = main(["run", "--scenario", str(bad)])
    assert rc == 2
    assert "time_budget" in capsys.readouterr().err


def small_world_file(tmp_path, doc) -> str:
    """`doc`'s sections merged into a small generated world: 2 x 2 km, a coast border."""
    world = {"field": {"x": 2000.0, "y": 2000.0, "z": 200.0},
             "map": {"width": 200, "height": 200, "cell_size": 10.0, "islands": 0,
                     "coast_border": 2}}
    for section, values in doc.items():
        world[section] = ({**world.get(section, {}), **values} if isinstance(values, dict)
                          else values)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(world))
    return str(path)


def two_records(position=(200.0, 200.0, 50.0), edges=((1, 2),), first=None, **station) -> dict:
    """A `two_station` network whose station 1 sits at `position` with `station`'s keys.

    `first`, when given, is the whole first record instead.
    """
    if first is None:
        first = {"id": 1, "position": list(position) if isinstance(position, tuple) else position,
                 **station}
    return {"network": {"records": [first, {"id": 2, "position": [1800.0, 1700.0, 80.0]}],
                        "edges": [list(e) for e in edges], "start": 1, "goal": 2}}


def drifting_middle(**station) -> dict:
    """A network of three records in a line whose middle station drifts, with `station`'s keys."""
    return {"network": {"records": [
        {"id": 1, "position": [200.0, 1000.0, 50.0]},
        {"id": 2, "position": [1000.0, 1000.0, 50.0], "kind": "drifting", **station},
        {"id": 3, "position": [1800.0, 1000.0, 50.0]}], "edges": [[1, 2], [2, 3]],
        "start": 1, "goal": 3}}


def edge_failure(after_leg, edge) -> dict:
    """`two_records()` with one scripted edge failure."""
    return {**two_records(), "mission": {"edge_failures": [{"after_leg": after_leg,
                                                            "edge": edge}]}}


@pytest.mark.parametrize("doc, message", [
    ({"obstacles": {"count": 2, "kinds": []}}, "obstacles.kinds must not be empty"),
    ({"network": {"stations": 5, "goal": 9}}, "network.goal must be in 1..network.stations"),
    ({"network": {"stations": 5, "start": 7}}, "network.start must be in 1..network.stations"),
    ({"obstacles": {"motion_sigma": math.nan}}, "obstacles.motion_sigma must be finite and >= 0"),
    ({"obstacles": {"radius_sigma": -1.0}}, "obstacles.radius_sigma must be finite and >= 0"),
    ({"network": {"drift_sigma": math.nan}}, "network.drift_sigma must be finite and >= 0"),
    ({"montecarlo": {"stations": [1, 5]}},
     "montecarlo.stations[0] must be a whole number >= 2, got 1"),
    ({"vehicle": {"time_budget": math.inf}}, "vehicle.time_budget must be finite and > 0"),
    ({"de_global": {"restarts": 1.5}}, "de_global.restarts must be an integer >= 1"),
    # A value of another type than its field's used to crash or be truncated.
    ({"seed": "abc"}, "seed must be an integer >= 0, got 'abc'"),
    ({"seed": 4.5}, "seed must be an integer >= 0, got 4.5"),
    ({"mission": {"dt": "fast"}}, "mission.dt must be finite and > 0, got 'fast'"),
    ({"field": {"x": "2000"}}, "field.x must be finite and > 0, got '2000'"),
    ({"vehicle": {"cruise_speed": True}}, "vehicle.cruise_speed must be finite and > 0, got True"),
    ({"map": {"k": 2.5}}, "map.k must be an integer >= 2, got 2.5"),
    ({"map": {"width": 1000.5}}, "map.width must be an integer >= 1, got 1000.5"),
    ({"map": {"water": 1}}, "map.water must be low or high, got 1"),
    ({"de_global": {"population": 36.5}},
     "de_global.population must be an integer >= 4, got 36.5"),
    ({"obstacles": {"count": 2.5}}, "obstacles.count must be an integer >= 0, got 2.5"),
    ({"obstacles": {"kinds": "static"}}, "obstacles.kinds must be a list, got 'static'"),
    ({"network": {"stations": 20.5}},
     "network.stations must be null or an integer >= 2, got 20.5"),
    ({"spline": {"samples": 100.5}}, "spline.samples must be an integer, got 100.5"),
    # List elements, key shapes and seeds that used to crash with a traceback.
    ({"network": {"value_range": ["a", 5]}},
     "network.value_range[0] must be a whole number >= 0, got 'a'"),
    ({"map": {"island_radius": ["a", 600]}},
     "map.island_radius[0] must be finite and >= 0, got 'a'"),
    ({"map": {"island_radius": [2, 1]}},
     "map.island_radius must be a [low, high] pair with low <= high, got [2, 1]"),
    ({"network": {"drift_bound": ["a", 1, 2]}},
     "network.drift_bound[0] must be finite and >= 0, got 'a'"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"name": [1, 2]}, "name must be a string, got [1, 2]"),
    # Each passed a `> 0` check; the mission's LocalCostWeights used to raise mid-run.
    ({"vehicle": {"surge_max": math.inf}}, "vehicle.surge_max must be finite and > 0, got inf"),
    ({"vehicle": {"sway_max": math.inf}}, "vehicle.sway_max must be finite and > 0, got inf"),
    ({"vehicle": {"yaw_rate_max_deg": math.inf}},
     "vehicle.yaw_rate_max_deg must be finite and > 0, got inf"),
    ({"vehicle": {"cruise_speed": math.inf, "max_speed": math.inf}},
     "vehicle.cruise_speed must be finite and > 0, got inf"),
    # Station record keys the build read unchecked: each crashed, or passed `plan`
    # and crashed `run` at the first drift, or was accepted silently.
    (drifting_middle(drift_bound=-5),
     "network.records[1].drift_bound must be absent or three numbers, got -5"),
    (drifting_middle(drift_bound=[1, 2]),
     "network.records[1].drift_bound must be absent or three numbers, got [1, 2]"),
    (drifting_middle(drift_bound="abc"),
     "network.records[1].drift_bound must be absent or three numbers, got 'abc'"),
    (drifting_middle(drift_bound=["a", "b", "c"]),
     "network.records[1].drift_bound[0] must be finite and >= 0, got 'a'"),
    (drifting_middle(value=math.inf), "network.records[1].value must be absent or finite and >= 0"),
    (drifting_middle(value=math.nan), "network.records[1].value must be absent or finite and >= 0"),
    (drifting_middle(value=True),
     "network.records[1].value must be absent or finite and >= 0, got True"),
    (drifting_middle(drift_sigma=math.inf),
     "network.records[1].drift_sigma must be absent or finite and >= 0, got inf"),
    (drifting_middle(colour="red"), "unknown key network.records[1].colour"),
    ({**two_records(), "mission": {"edge_failures": [
        {"after_leg": 1, "edge": [1, 2], "colour": "red"}]}},
     "unknown key mission.edge_failures[0].colour"),
    # A failure fires on arrival, when legs.csv has at least one row: these never fired.
    (edge_failure(0, [1, 2]), "mission.edge_failures[0].after_leg must be an integer >= 1"),
    (edge_failure(-1, [1, 2]), "mission.edge_failures[0].after_leg must be an integer >= 1"),
], ids=["empty-kinds", "goal-out-of-range", "start-out-of-range", "motion-sigma-nan",
        "radius-sigma-negative", "drift-sigma-nan", "mc-stations-range", "budget-inf",
        "restarts-float", "seed-word", "seed-real", "dt-word", "field-x-text", "cruise-bool",
        "map-k-real", "map-width-real", "water-number", "population-real", "obstacle-count-real",
        "kinds-text", "stations-real", "samples-real", "pair-element-word", "island-radius-word",
        "island-radius-reversed", "drift-bound-word", "seed-negative", "name-list",
        "surge-max-inf", "sway-max-inf", "yaw-rate-inf", "cruise-and-max-speed-inf",
        "record-drift-bound-negative", "record-drift-bound-pair", "record-drift-bound-word",
        "record-drift-bound-words", "record-value-inf", "record-value-nan", "record-value-bool",
        "record-drift-sigma-inf", "record-unknown-key", "edge-failure-unknown-key",
        "failure-after-leg-zero", "failure-after-leg-negative"])
def test_cli_run_rejects_values_that_break_the_mission(tmp_path, capsys, doc, message):
    path = small_world_file(tmp_path, doc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def raster_map(text: str):
    """A map section reading `text` from a raster file written under the test's tmp_path."""
    def doc(tmp_path) -> dict:
        path = tmp_path / "coast.grid"
        path.write_text(text)
        return {"map": {"source": "raster", "path": str(path)}}
    return doc


@pytest.mark.parametrize("command", ["plan", "run"])
@pytest.mark.parametrize("doc, message", [
    ({"map": {"k": 300}}, "k=300 exceeds"),
    (raster_map(""), "coast.grid: no intensities"),
    (raster_map("0 0 255 0\n0 255\n0 0 0 0\n"),
     "coast.grid: the number of columns changed from 4 to 2 at row 2"),
    (raster_map("0 0 255\n0 land 0\n"), "coast.grid: could not convert string 'land'"),
    (raster_map("0 0 255\n0 nan 0\n"), "coast.grid: intensities must be finite integers"),
    (raster_map("0 0 255\n0 0.5 0\n"), "coast.grid: intensities must be finite integers"),
    ({"network": {"comm_range": 10.0}}, "goal 20 not reachable from start 1"),
    (two_records([math.nan, 200.0, 50.0]), "station 1 at (nan, 200.0, 50.0) is not (x, y, z)"),
    (two_records([200.0, 200.0, 250.0]), "station 1 at (200.0, 200.0, 250.0) is not (x, y, z)"),
    (two_records([25.0, 1000.0, 50.0]), "station 1 at (25.0, 1000.0, 50.0) is not (x, y, z)"),
    (two_records([200.0, 200.0]), "station 1 at (200.0, 200.0) is not (x, y, z)"),
    (two_records(kind="buoy"),
     "network.records[0].kind must be absent, fixed or drifting, got 'buoy'"),
    (two_records(value=-2), "network.records[0].value must be absent or finite and >= 0, got -2"),
    (two_records(edges=[(1, 2), (1, 3)]), "network: edge (1,3) references missing station"),
    (two_records(first="station 1"), "network.records[0] must be a mapping"),
    (two_records(first={"position": [200.0, 200.0, 50.0]}),
     "network.records[0].id must be an integer"),
    (two_records(5), "network.records[0].position must be absent, random or a list"),
    ({"network": {"records": [{"id": 1, "position": [200.0, 200.0, 50.0]},
                              {"id": 2, "position": [1800.0, 1700.0, 80.0]},
                              {"id": 2, "position": [1000.0, 1000.0, 60.0]}],
                  "edges": [[1, 2]], "start": 1, "goal": 2}}, "network.records ids must be unique"),
    (two_records(edges=[(1, 2, 3)]), "network.edges[0] must be two station ids"),
    (edge_failure(1, [1, 2, 3]), "mission.edge_failures[0].edge must be two station ids"),
    (edge_failure(1.5, [1, 2]), "mission.edge_failures[0].after_leg must be an integer"),
    (edge_failure(0, [1, 2]), "mission.edge_failures[0].after_leg must be an integer >= 1"),
    # Discs that cover no cell centre, and no border: the k-means split the water noise,
    # and `run` failed later with an unreachable goal.
    ({"map": {"islands": 2, "coast_border": 0, "island_radius": [0, 0]}},
     "synthetic map drew no land: no island covers a cell centre (map.island_radius) and "
     "map.coast_border is 0"),
    ({"map": {"islands": 2, "coast_border": 0, "island_radius": [0.5, 1.0]}},
     "synthetic map drew no land"),
], ids=["k-too-large", "raster-empty", "raster-ragged", "raster-word", "raster-nan",
        "raster-fraction", "unreachable-goal", "station-nan", "station-below-depth",
        "station-in-coast-band", "station-2d", "station-kind", "station-value", "edge-to-nowhere",
        "record-not-mapping", "record-without-id", "position-scalar", "record-id-twice",
        "edge-three-ids", "failure-edge-three-ids", "failure-after-leg-float",
        "failure-after-leg-zero", "no-land-radius-zero", "no-land-sub-cell-radius"])
def test_cli_world_build_errors_exit_2(tmp_path, capsys, command, doc, message):
    # Each is one line naming the key: validation refuses the input's shape,
    # and the build refuses a map or network that cannot be built from it.
    path = small_world_file(tmp_path, doc(tmp_path) if callable(doc) else doc)
    assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_cli_run_has_no_dt_flag(capsys):
    # The tick length is the scenario key mission.dt, which validation checks.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "two_station", "--dt", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt" in capsys.readouterr().err


# A Monte Carlo redraw numbers its stations 1..count with count >= 5 here.
MC_REDRAW = {"montecarlo": {"stations": [5, 6]},
             "de_global": {"population": 8, "generations": 8, "restarts": 1},
             "de_local": {"population": 16, "generations": 25}}


@pytest.mark.parametrize("network", [{"stations": 12, "goal": 11}, {"stations": 12, "start": 6}],
                         ids=["goal-above-redraw", "start-above-redraw"])
@pytest.mark.parametrize("command", ["echo", "montecarlo"])
def test_cli_rejects_stations_the_montecarlo_redraw_drops(tmp_path, capsys, command, network):
    # Both used to pass, and every trial then failed with 'station 11 not defined'.
    path = small_world_file(tmp_path, {**MC_REDRAW, "network": network})
    assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    assert ("scenario error: network.start and goal must be <= the montecarlo.stations low "
            "bound") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["echo", "montecarlo"])
def test_cli_rejects_a_montecarlo_redraw_of_explicit_records(tmp_path, capsys, command):
    # Both used to pass, and every trial flew the records' two stations.
    path = small_world_file(tmp_path, {**two_records(), "montecarlo": {"stations": [5, 8]}})
    assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    assert ("scenario error: montecarlo.stations redraws generated stations; it cannot go "
            "with network.records") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["echo", "plan"])
def test_cli_rejects_a_synthetic_map_that_misses_the_field(tmp_path, capsys, command):
    # echo used to pass it, and plan refused it only after drawing the raster.
    path = small_world_file(tmp_path, {"field": {"x": 4000.0}})
    assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    assert ("scenario error: map extent 2000 x 2000 m (width/height x cell_size) differs "
            "from field.x/field.y 4000 x 2000 m") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("network", [{"stations": 12, "goal": 12}, {"stations": 12, "goal": 4},
                                     {"stations": 12, "start": 5, "goal": 2}],
                         ids=["goal-follows-redraw", "goal-below-redraw", "start-at-low-bound"])
def test_cli_montecarlo_accepts_stations_every_redraw_keeps(tmp_path, capsys, network):
    path = small_world_file(tmp_path, {**MC_REDRAW, "network": network})
    assert main(["echo", "--scenario", path]) == 0
    assert main(["montecarlo", "--scenario", path, "--trials", "1", "--seed", "3",
                 "--out", str(tmp_path / "mc")]) == 0
    lines = (tmp_path / "mc" / "trials.csv").read_text().splitlines()
    [trial] = csv.DictReader(lines[1:])
    assert (trial["success"], trial["error"]) == ("1", "")


def generated_failure(edge, **network) -> dict:
    """Generated stations with `network`'s keys and one scripted failure of `edge`."""
    return {"network": {"stations": 4, **network},
            "mission": {"edge_failures": [{"after_leg": 1, "edge": edge}]}}


@pytest.mark.parametrize("command", ["plan", "run", "montecarlo"])
@pytest.mark.parametrize("doc, message", [
    # The decoder's walk stops at the goal: each planned no leg and "succeeded".
    ({"network": {"stations": 4, "start": 2, "goal": 2}}, "network.start and goal must differ"),
    ({"network": {"stations": 4, "start": 4}}, "network.start and goal must differ"),
    ({"network": {**two_records()["network"], "start": 2, "goal": None}},
     "network.start and goal must differ"),
    ({"network": {"stations": 5, "start": 2}, "montecarlo": {"stations": [2, 3]}},
     "network.start must be below the montecarlo.stations low bound when the goal follows "
     "the redraw"),
    # Scripted failures of edges no network can hold: each never fired.
    (generated_failure([1, 99]),
     "mission.edge_failures[0].edge must be two different station ids, got [1, 99]"),
    (generated_failure([2, 2]),
     "mission.edge_failures[0].edge must be two different station ids, got [2, 2]"),
    (edge_failure(1, [1, 3]),
     "mission.edge_failures[0].edge must be two different station ids, got [1, 3]"),
    (generated_failure([1, 5], stations=6, goal=2) | {"montecarlo": {"stations": [4, 6]}},
     "mission.edge_failures[0].edge must be two different station ids, got [1, 5]"),
], ids=["goal-is-start", "default-goal-is-start", "last-record-is-start",
        "redraw-goal-can-be-start", "failure-edge-to-nowhere", "failure-self-edge",
        "failure-edge-to-no-record", "failure-edge-beyond-redraw"])
def test_cli_refuses_missions_that_cannot_fly_what_they_say(tmp_path, capsys, command, doc,
                                                            message):
    path = small_world_file(tmp_path, doc)
    argv = [command, "--scenario", path, "--out", str(tmp_path / "out")]
    assert main(argv + (["--trials", "1"] if command == "montecarlo" else [])) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    rc = main(["run", "--scenario", "two_station", "--out", str(tmp_path / "ok")])
    assert rc == 0
    fail = {
        "name": "cutoff", "seed": 5,
        "field": {"x": 2000.0, "y": 2000.0, "z": 200.0},
        "map": {"width": 200, "height": 200, "cell_size": 10.0, "islands": 0,
                "coast_border": 2},
        "current": {"count": [0, 0]},
        "obstacles": {"count": 0},
        "network": {
            "records": [
                {"id": 1, "position": [200.0, 1000.0, 50.0]},
                {"id": 2, "position": [1000.0, 1000.0, 50.0], "value": 2},
                {"id": 3, "position": [1800.0, 1000.0, 50.0], "value": 2},
            ],
            "edges": [[1, 2], [2, 3]], "start": 1, "goal": 3},
        "vehicle": {"cruise_speed": 2.0, "time_budget": 3600.0},
        "de_global": {"population": 8, "generations": 8, "restarts": 1},
        "de_local": {"population": 16, "generations": 25},
        "mission": {"edge_failures": [{"after_leg": 1, "edge": [2, 3]}]},
    }
    path = tmp_path / "fail.yaml"
    path.write_text(yaml.safe_dump(fail))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "fail")])
    assert rc == 3
    # The failure reason 'edge (2,3) failed' holds a comma; it must stay one field.
    lines = (tmp_path / "fail" / "replans.csv").read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["t", "kind", "reason"]
    assert any("," in row[2] for row in rows[1:])
    assert all(len(row) == 3 for row in rows)


def test_cli_plan_prints_route(capsys):
    rc = main(["plan", "--scenario", "two_station"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "route: 1-2" in out


def test_cli_plan_matches_mission_initial_route(capsys, monkeypatch):
    class FirstPlan(Exception):
        pass

    plan_global = mission.plan_global

    def stop_at_first_plan(*args, **kwargs):
        raise FirstPlan(plan_global(*args, **kwargs))

    assert main(["plan", "--scenario", "paper_baseline", "--seed", "42"]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    monkeypatch.setattr(mission, "plan_global", stop_at_first_plan)
    with pytest.raises(FirstPlan) as first:
        mission.run_mission(resolve_scenario("paper_baseline"), 42)
    sequence = first.value.args[0].route.sequence
    assert printed == f"route: {'-'.join(str(s) for s in sequence)}"


def test_cli_field_dump(tmp_path):
    rc = main(["field-dump", "--scenario", "two_station", "--resolution", "20",
               "--out", str(tmp_path / "grid.csv")])
    assert rc == 0
    assert len((tmp_path / "grid.csv").read_text().splitlines()) == 2 + 400


def test_cli_field_dump_file_text(tmp_path):
    # x-major rows over the --extent window, every real at %.17g.
    assert main(["field-dump", "--scenario", "two_station", "--resolution", "3",
                 "--extent", "500", "400", "--out", str(tmp_path / "grid.csv")]) == 0
    assert (tmp_path / "grid.csv").read_text() == (
        f"{HEADER} seed=7\n"
        "x,y,v_cx,v_cy\n"
        "0,0,-0.042942744507148682,0.089250776378141619\n"
        "0,200,-0.022711429778491325,0.093968393332126893\n"
        "0,400,-0.0069945724191790883,0.087979524347699123\n"
        "250,0,-0.066185025648056575,0.12464808073959004\n"
        "250,200,-0.012861587797538297,0.13184735634618985\n"
        "250,400,0.015541872609227791,0.10215523135930338\n"
        "500,0,-0.13582823099220628,0.13111175078121129\n"
        "500,200,0.036914534532804778,0.14196079132807246\n"
        "500,400,0.071872815587611688,0.082458412463180877\n")


@pytest.mark.parametrize("argv, message", [
    (["field-dump", "--resolution", "-5"], "--resolution: must be an integer >= 1, got -5"),
    (["field-dump", "--resolution", "0"], "--resolution: must be an integer >= 1, got 0"),
    (["field-dump", "--resolution", "2.5"], "--resolution: invalid _count value: '2.5'"),
    (["field-dump", "--extent", "-100", "nan"], "--extent: must be finite and > 0, got -100"),
    (["field-dump", "--extent", "100", "nan"], "--extent: must be finite and > 0, got nan"),
    (["field-dump", "--extent", "100", "inf"], "--extent: must be finite and > 0, got inf"),
    (["field-dump", "--extent", "0", "100"], "--extent: must be finite and > 0, got 0"),
    (["montecarlo", "--jobs", "0"], "--jobs: must be an integer >= 1, got 0"),
    (["montecarlo", "--jobs", "-1"], "--jobs: must be an integer >= 1, got -1"),
    (["montecarlo", "--trials", "0"], "--trials: must be an integer >= 1, got 0"),
    (["montecarlo", "--trials", "-3"], "--trials: must be an integer >= 1, got -3"),
    (["run", "--seed", "-1"], "--seed: must be an integer >= 0, got -1"),
], ids=["resolution-negative", "resolution-zero", "resolution-real", "extent-negative",
        "extent-nan", "extent-inf", "extent-zero", "jobs-zero", "jobs-negative", "trials-zero",
        "trials-negative", "seed-negative"])
def test_cli_refuses_arguments_that_crash_or_write_nonsense(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scenario", "two_station", "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def seed_key_refusal(value):
    """The words of the `seed` key's refusal of `value`, or None when it takes it."""
    try:
        from_dict({"seed": value})
    except ScenarioValidationError as exc:
        return str(exc).removeprefix("seed must be ").rsplit(", got ", 1)[0]
    return None


@pytest.mark.parametrize("text", ["0", "7", "-1", "2.5", "1e3", "abc", "nan", "inf"])
@pytest.mark.parametrize("command, flag, cast, rule", [
    ("echo", "--seed", int, None),  # the scenario's own seed key
    ("montecarlo", "--trials", int, integer(1)),
    ("field-dump", "--extent", float, POSITIVE),
], ids=["seed", "trials", "extent"])
def test_a_flag_takes_what_its_rule_takes(capsys, command, flag, cast, rule, text):
    argv = [command, "--scenario", "two_station", flag, text, *(["100"] * (flag == "--extent"))]
    try:
        value = cast(text)
    except ValueError:  # argparse refuses what the flag's type cannot cast
        expected = f"{flag}: invalid"
    else:
        refused = seed_key_refusal(value) if rule is None else (
            None if rule.test(value) else rule.words)
        expected = refused and f"{flag}: must be {refused}, got {text}"
    if expected is None:
        assert getattr(cli.build_parser().parse_args(argv), flag[2:]) in (value, [value, 100.0])
        return
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert expected in capsys.readouterr().err


def test_cli_montecarlo(tmp_path, capsys):
    rc = main(["montecarlo", "--scenario", "two_station", "--trials", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trials.csv").exists()
    assert (tmp_path / "summary.txt").exists()


def test_cli_montecarlo_files_do_not_depend_on_jobs(tmp_path):
    # Trial i has seed base + i and its row i, in a pool or in one process.
    for jobs in ("1", "2"):
        assert main(["montecarlo", "--scenario", "two_station", "--trials", "3",
                     "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    for name in ("trials.csv", "summary.txt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_montecarlo_pool_has_no_more_workers_than_trials(monkeypatch):
    # Under fork the pool starts every worker at its first submit, so a worker
    # beyond the trial count would be a process that never runs a trial.
    asked = []

    class InProcess:  # records the pool size and runs the trials here
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcess)
    pooled = run_monte_carlo(small_scenario(), trials=2, base_seed=10, jobs=8)
    serial = run_monte_carlo(small_scenario(), trials=2, base_seed=10, jobs=1)
    assert asked == [2]
    assert [row["path_time"] for row in pooled.rows] == [row["path_time"] for row in serial.rows]


def test_cli_run_legs_agree_with_the_paths_and_replans_flown(tmp_path):
    # Each legs.csv row is the record of the paths its leg flew (paths.csv),
    # and the legs' times and hazard replans add up to the mission's.
    assert main(["run", "--scenario", "paper_baseline", "--seed", "42",
                 "--out", str(tmp_path)]) == 0

    def table(name):
        return list(csv.DictReader((tmp_path / name).read_text().splitlines()[1:]))

    legs, paths, replans = table("legs.csv"), table("paths.csv"), table("replans.csv")
    assert {row["leg"] for row in paths} == {row["leg"] for row in legs}
    for leg in legs:
        flown = [row for row in paths if row["leg"] == leg["leg"]]
        assert float(leg["max_surge"]) == max(float(row["surge"]) for row in flown)
        assert float(leg["max_sway"]) == max(abs(float(row["sway"])) for row in flown)
        assert float(leg["max_yaw_rate_deg"]) == math.degrees(
            max(abs(float(row["yaw_rate"])) for row in flown))
    report = dict(line.split(": ", 1) for line in (tmp_path / "report.txt").read_text()
                  .splitlines()[1:])
    assert sum(float(leg["actual_s"]) for leg in legs) == pytest.approx(
        float(report["global_path_time_s"]), rel=1e-12)
    assert sum(int(leg["local_replans"]) for leg in legs) == sum(
        row["reason"].startswith("hazard obstacle") for row in replans)
