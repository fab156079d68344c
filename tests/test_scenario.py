import collections
import copy
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import uuvsim.scenario as scenario_module
from uuvsim.cli import main
from uuvsim.env import point_in_collision
from uuvsim.errors import ScenarioParseError, ScenarioValidationError
from uuvsim.network import drift_stations
from uuvsim.scenario import (Scenario, _check, build_field, build_map, build_network_from_spec,
                             build_obstacles, de_config_from_spec, echo, from_dict,
                             load_scenario, resolve_scenario, spline_from_spec, to_dict,
                             weights_from_spec)


def test_minimal_document_gets_all_defaults(tmp_path):
    path = tmp_path / "min.yaml"
    path.write_text("name: tiny\n")
    sc = load_scenario(path)
    doc = to_dict(sc)
    assert doc["name"] == "tiny"
    assert doc["vehicle"]["time_budget"] == 14_400.0
    assert doc["vehicle"]["max_speed"] == 2.82
    assert doc["map"]["k"] == 2
    assert doc["mission"]["dt"] == 1.0
    assert doc["de_global"]["restarts"] == 2
    for section in ("field", "map", "current", "obstacles", "network", "vehicle",
                    "de_global", "de_local", "weights", "spline", "mission", "montecarlo"):
        assert section in doc


def test_every_default_passes_its_own_rule():
    # de_global and de_local are DESpecs with defaults of their own; both are checked.
    sc = Scenario()
    sections = [f.name for f in dataclasses.fields(sc) if "rule" not in f.metadata]
    checked = [("", f, sc) for f in dataclasses.fields(sc) if "rule" in f.metadata]
    checked += [(f"{name}.", f, getattr(sc, name)) for name in sections
                for f in dataclasses.fields(getattr(sc, name))]
    for prefix, f, spec in checked:
        _check(prefix + f.name, f.metadata["rule"], getattr(spec, f.name))
    assert len(sections) == 12 and len(checked) == 72


@pytest.mark.parametrize("ref, digest", [
    ("paper_baseline", "b62ba39add118903fe395c0282b382d0994212bf159de75255cf94f364852617"),
    ("two_station", "46e1c6d789d9634835745934f8114ff79677fba45dc5b842d959f531a840a1df"),
    (str(Path(__file__).parents[1] / "perfbench" / "scenarios" / "mc_reduced.yaml"),
     "1a9c66e3abf67ad9c7e358bcd844bb6dcd63b39a321b1d1a050a5d185b2f0437"),
], ids=["paper_baseline", "two_station", "mc_reduced"])
def test_echo_of_the_shipped_scenarios_is_unchanged(ref, digest):
    assert hashlib.sha256(echo(resolve_scenario(ref)).encode()).hexdigest() == digest


def test_echo_round_trip_is_identity():
    sc = resolve_scenario("paper_baseline")
    again = from_dict(yaml.safe_load(echo(sc)))
    assert again == sc


def test_negative_budget_rejected():
    with pytest.raises(ScenarioValidationError, match="vehicle.time_budget"):
        from_dict({"vehicle": {"time_budget": -5.0}})


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioValidationError, match="unknown key propulsion"):
        from_dict({"propulsion": {}})
    with pytest.raises(ScenarioValidationError, match="unknown key vehicle.warp"):
        from_dict({"vehicle": {"warp": 9}})
    with pytest.raises(ScenarioValidationError, match="unknown key obstacles.explicit"):
        from_dict({"obstacles": {"explicit": []}})
    # Fixed by the program, not by a key: synthetic intensities, k-means
    # iterations, line of sight, drift and field perturbation after every leg.
    for section, key, value in [("map", "water_intensity", 40.0), ("map", "land_intensity", 220.0),
                                ("map", "intensity_sigma", 12.0), ("map", "max_iters", 100),
                                ("network", "line_of_sight", True),
                                ("mission", "drift_per_leg", True),
                                ("mission", "perturb_per_leg", True)]:
        with pytest.raises(ScenarioValidationError, match=f"unknown key {section}.{key}$"):
            from_dict({section: {key: value}})


def test_cruise_above_max_rejected():
    with pytest.raises(ScenarioValidationError, match="cruise_speed"):
        from_dict({"vehicle": {"cruise_speed": 3.0, "max_speed": 2.82}})


def test_missing_raster_rejected(tmp_path):
    with pytest.raises(ScenarioValidationError, match="map.path"):
        from_dict({"map": {"source": "raster", "path": str(tmp_path / "nope.grid")}})


# The pure-Python parser, and libyaml's where PyYAML was built with it; the
# loader picks the second when it can.
LOADERS = [pytest.param(yaml.SafeLoader, id="SafeLoader"),
           pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                        marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                                 reason="PyYAML built without libyaml"))]
MC_REDUCED = Path(__file__).parents[1] / "perfbench" / "scenarios" / "mc_reduced.yaml"


@pytest.mark.parametrize("loader", LOADERS)
def test_both_yaml_loaders_build_the_same_scenarios(loader, monkeypatch):
    bundled = Path(scenario_module.__file__).parent / "scenarios"
    paths = sorted(bundled.glob("*.yaml")) + [MC_REDUCED]
    assert len(paths) == 3
    docs = [yaml.load(path.read_text(), Loader=yaml.SafeLoader) for path in paths]
    assert [yaml.load(path.read_text(), Loader=loader) for path in paths] == docs
    monkeypatch.setattr(scenario_module, "_LOADER", loader)
    assert [load_scenario(path) for path in paths] == [from_dict(doc) for doc in docs]


def test_malformed_yaml_reports_location(tmp_path, monkeypatch):
    path = tmp_path / "broken.yaml"
    for loader in [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else []):
        monkeypatch.setattr(scenario_module, "_LOADER", loader)
        for text, line in [("name: [unclosed\n", 2), ("name: a\nseed: 1\n  bad: [\n", 3),
                           ("name: 'open\n", 2), ("\t- x\n", 1)]:
            path.write_text(text)
            with pytest.raises(ScenarioParseError, match=f"\\(line {line}, column \\d+\\)"):
                load_scenario(path)


def test_paper_baseline_values():
    sc = resolve_scenario("paper_baseline")
    assert (sc.field.x, sc.field.y, sc.field.z) == (10_000.0, 10_000.0, 1_000.0)
    assert sc.network.stations == 20
    assert sc.network.start == 1 and sc.network.goal == 20
    assert sc.vehicle.time_budget == 14_400.0
    assert sc.vehicle.max_speed == 2.82
    assert sc.vehicle.surge_max == 2.7
    assert sc.vehicle.sway_max == 0.5
    assert sc.vehicle.yaw_rate_max_deg == 17.0
    assert sc.current.count == [2, 5]


def test_unknown_bundled_name_raises():
    with pytest.raises(ScenarioParseError):
        resolve_scenario("does_not_exist")


def test_validate_spline_sampling_floor():
    with pytest.raises(ScenarioValidationError, match="spline.samples"):
        from_dict({"spline": {"control_points": 8, "samples": 50}})


def test_validate_spline_degree_below_control_points(tmp_path, capsys):
    # A degree of control_points or more leaves the clamped knot vector too
    # short for the basis, so `run` must exit 2 before it plans a leg.
    doc = to_dict(resolve_scenario("paper_baseline"))
    doc["spline"] = {"control_points": 4, "degree": 4, "samples": 100}
    path = tmp_path / "degree.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--scenario", str(path), "--seed", "42",
                 "--out", str(tmp_path / "out")]) == 2
    assert "spline.degree must be < control_points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert from_dict({"spline": {"control_points": 4, "degree": 3}}).spline.degree == 3


def test_map_extent_must_match_field(tmp_path):
    small = {"field": {"x": 300.0, "y": 200.0, "z": 50.0},
             "map": {"width": 30, "height": 20, "cell_size": 10.0, "coast_border": 1}}
    assert build_map(from_dict(small), 1).grid.extent == (300.0, 200.0)
    wide = {**small, "field": {"x": 400.0, "y": 200.0, "z": 50.0}}
    with pytest.raises(ScenarioValidationError, match="field.x/field.y"):
        build_map(from_dict(wide), 1)
    raster = tmp_path / "coast.grid"
    raster.write_text("0 0 255 0\n0 255 255 0\n0 0 0 0\n")
    grid = {"path": str(raster), "source": "raster", "cell_size": 10.0}
    assert build_map(from_dict({**small, "map": grid,
                                "field": {"x": 40.0, "y": 30.0, "z": 50.0}}), 1)
    with pytest.raises(ScenarioValidationError, match="map extent 40 x 30 m"):
        build_map(from_dict({**small, "map": grid}), 1)


def test_local_restarts_other_than_one_rejected():
    # Local planning runs one DE per leg, so a restart count would be ignored.
    with pytest.raises(ScenarioValidationError, match="de_local.restarts"):
        from_dict({"de_local": {"restarts": 3}})
    assert from_dict({"de_local": {"restarts": 1}}).de_local.restarts == 1
    assert from_dict({"de_global": {"restarts": 3}}).de_global.restarts == 3


@pytest.mark.parametrize("key", ["surge", "sway", "yaw_rate", "collision"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_weights_must_be_finite_and_nonnegative(key, value):
    # A NaN weight makes every leg cost NaN; min() let it through for some keys.
    with pytest.raises(ScenarioValidationError, match=f"weights.{key} must be finite"):
        from_dict({"weights": {key: value}})
    assert getattr(from_dict({"weights": {key: 0.0}}).weights, key) == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
def test_obstacle_margin_must_be_finite_and_nonnegative(value):
    # With a NaN margin every envelope is NaN and no obstacle is ever seen.
    with pytest.raises(ScenarioValidationError, match="mission.obstacle_margin"):
        from_dict({"mission": {"obstacle_margin": value}})
    assert from_dict({"mission": {"obstacle_margin": 0.0}}).mission.obstacle_margin == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.5])
def test_replan_generation_factor_must_be_finite_and_positive(value):
    # A NaN factor crashed the first replan in int(round(nan)).
    with pytest.raises(ScenarioValidationError, match="mission.replan_generation_factor"):
        from_dict({"mission": {"replan_generation_factor": value}})
    mission = from_dict({"mission": {"replan_generation_factor": 0.1}}).mission
    assert mission.replan_generation_factor == 0.1


@pytest.mark.parametrize("section", ["de_local", "de_global"])
@pytest.mark.parametrize("value", [0, -1, 2.5, True])
def test_stall_must_be_an_integer_of_at_least_one(section, value):
    with pytest.raises(ScenarioValidationError,
                       match=f"{section}.stall must be null or an integer >= 1"):
        from_dict({section: {"stall": value}})


def test_stall_defaults_off_and_reaches_the_de_config():
    sc = from_dict({"de_local": {"stall": 20}})
    assert sc.de_global.stall is None
    assert de_config_from_spec(sc.de_local).stall == 20
    assert de_config_from_spec(sc.de_global).stall is None


# A 3 x 3 km world of islands whose drifting stations jitter hard against the
# coast and the surface, so the drift's resampling is exercised.
ISLAND_WORLD = {"field": {"x": 3000.0, "y": 3000.0, "z": 200.0},
                "map": {"width": 150, "height": 150, "cell_size": 20.0, "islands": 6,
                        "island_radius": [150.0, 450.0]},
                "network": {"stations": 10, "comm_range": 4500.0, "drifting_fraction": 1.0,
                            "drift_sigma": 80.0, "drift_bound": [300.0, 300.0, 60.0]},
                "obstacles": {"count": 6, "station_clearance": 100.0}}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_placed_point_passes_the_padded_point_rule(seed):
    sc = from_dict(ISLAND_WORLD)
    cmap = build_map(sc, seed)
    net = build_network_from_spec(sc, cmap, seed)
    points = [s.position for s in net.stations.values()]
    points += [obs.position for obs in build_obstacles(sc, cmap, net, seed)]
    fld, rng = build_field(sc, seed), np.random.default_rng(seed)
    for _ in range(10):
        net = drift_stations(net, fld, cmap, rng)
        points += [s.position for s in net.stations.values()]
    assert not any(point_in_collision(p, cmap, padded=True) for p in points)


# One-key mutations of a 2 x 2 km, 6-station world: every key of every section,
# and `name` and `seed`, takes each of these values in turn.
FUZZ_WORLD = {"field": {"x": 2000.0, "y": 2000.0, "z": 200.0},
              "map": {"width": 200, "height": 200, "cell_size": 10.0, "islands": 0,
                      "coast_border": 2},
              "network": {"stations": 6, "goal": 6}}
FUZZ_VALUES = [None, True, "a", -1, 0, 0.5, 2, math.nan, math.inf, -1.5, [], [1], ["a", 1],
               [1, "a"], [-1, -1], [2, 1], [1.5, 2.5], [0, 0, 0], ["a", 1, 2], {"a": 1}]


def test_one_key_mutations_exit_cleanly_and_accepted_ones_build(tmp_path, capsys):
    # `uuvsim plan` exits 0, 2 or 3 on each, never with a traceback; whatever it
    # accepts also builds the DE, spline and weights configs the mission builds.
    doc = to_dict(from_dict(FUZZ_WORLD))
    keys = [(section, key) for section, value in doc.items()
            for key in (value if isinstance(value, dict) else [None])]
    assert len(keys) == 72
    path, exits = tmp_path / "fuzz.yaml", collections.Counter()
    for section, key in keys:
        for value in FUZZ_VALUES:
            mutant = copy.deepcopy(FUZZ_WORLD)
            if key is None:
                mutant[section] = value
            else:
                mutant.setdefault(section, {})[key] = value
            path.write_text(yaml.safe_dump(mutant))
            rc = main(["plan", "--scenario", str(path)])
            assert rc in (0, 2, 3), (section, key, value)
            if rc != 2:
                sc = from_dict(mutant)
                de_config_from_spec(sc.de_global)
                de_config_from_spec(sc.de_local)
                spline_from_spec(sc)
                weights_from_spec(sc)
            exits[rc] += 1
            capsys.readouterr()
    assert exits == {2: 1343, 0: 95, 3: 2}


# One-key mutations of a station record: each key the record rule names, and
# one it does not, takes each of FUZZ_VALUES on the first record, a drifting
# station between the fixed start and goal.
RECORD_WORLD = {**FUZZ_WORLD, "network": {
    "records": [{"id": 2, "position": [1000.0, 1000.0, 50.0], "kind": "drifting"},
                {"id": 1, "position": [200.0, 1000.0, 50.0]},
                {"id": 3, "position": [1800.0, 1000.0, 50.0]}],
    "edges": [[1, 2], [2, 3]], "start": 1, "goal": 3}}


def test_record_key_mutations_exit_cleanly_and_accepted_ones_drift(tmp_path, capsys):
    # `plan` never drifts a station, so each accepted network drifts once here:
    # a record the drift cannot read used to crash only `run`.
    path, exits = tmp_path / "fuzz.yaml", collections.Counter()
    for key in ["id", "position", "kind", "value", "drift_bound", "drift_sigma", "colour"]:
        for value in FUZZ_VALUES:
            mutant = copy.deepcopy(RECORD_WORLD)
            mutant["network"]["records"][0][key] = value
            path.write_text(yaml.safe_dump(mutant))
            rc = main(["plan", "--scenario", str(path)])
            assert rc in (0, 2, 3), (key, value)
            if rc != 2:
                sc = from_dict(mutant)
                cmap = build_map(sc, sc.seed)
                net = build_network_from_spec(sc, cmap, sc.seed)
                drift_stations(net, build_field(sc, sc.seed), cmap, np.random.default_rng(0))
            exits[rc] += 1
            assert "Traceback" not in capsys.readouterr().err
    assert exits == {2: 127, 0: 13}
