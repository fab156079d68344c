"""Scenario files: schema, validation, defaults echo, and world construction.

A scenario is one YAML document with named sections mirroring the module
configs.  Loading applies every default explicitly, rejects unknown keys,
and checks each key against the rule its field declares, then `validate`
checks the rules that span keys; every message names the offending key.
All units are SI except yaw-rate limits, which carry an explicit _deg suffix.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import seeding
from .de import DEConfig
from .env import (ClusteredMap, Obstacle, VortexField, cluster_map, load_raster,
                  point_in_collision, sample_vortex_field, synthesize_raster)
from .errors import ScenarioParseError, ScenarioValidationError
from .local_planner import LocalCostWeights, SplineConfig
from .network import Network, build_network

# libyaml's parser when PyYAML was built with it, about 8x faster; both loaders
# use the one safe constructor, so they build the same documents.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


# --- one rule per key ----------------------------------------------------------


class Rule(NamedTuple):
    """What one key may hold; `words` completes '<key> must be ...'."""
    words: str
    test: Callable[[object], bool]
    each: Rule | None = None    # a list's element rule, checked before `test`
    keys: dict | None = None    # a mapping's key rules, checked before `test`


def _finite(v) -> bool:  # a bool is never a number
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _real(*, gt=None, ge=None, le=None) -> Rule:
    """A finite number > gt (or >= ge), and <= le when given."""
    low, op, bracket = (gt, ">", "(") if gt is not None else (ge, ">=", "[")
    words = f"in {bracket}{low:g}, {le:g}]" if le is not None else f"finite and {op} {low:g}"
    return Rule(words, lambda v: (_finite(v) and (v > gt if gt is not None else v >= ge)
                                  and (le is None or v <= le)))


def integer(ge=None) -> Rule:
    return Rule("an integer" + (f" >= {ge}" if ge is not None else ""),
                lambda v: type(v) is int and (ge is None or v >= ge))


def _whole(ge) -> Rule:  # a count drawn from a range: 3.0 reads as 3
    return Rule(f"a whole number >= {ge}", lambda v: _finite(v) and v >= ge and v == int(v))


def _or_null(rule: Rule, null="null") -> Rule:
    return rule._replace(words=f"{null} or {rule.words}", test=lambda v: v is None or rule.test(v))


def _one_of(*choices: str) -> Rule:
    return Rule(", ".join(choices[:-1]) + f" or {choices[-1]}",
                lambda v: isinstance(v, str) and v in choices)


def _list(each: Rule, words="a list", length=None) -> Rule:
    return Rule(words, lambda v: isinstance(v, list) and length in (None, len(v)), each)


def _pair(each: Rule) -> Rule:
    return Rule("a [low, high] pair with low <= high",
                lambda v: isinstance(v, list) and len(v) == 2 and v[0] <= v[1], each)


_SECTION = Rule("a mapping", lambda v: isinstance(v, dict))  # its keys are its fields'


def _mapping(**keys: Rule) -> Rule:  # a key no rule names is refused
    return _SECTION._replace(keys=keys)


def _check(name: str, rule: Rule, value):
    """Raise naming `name` unless `value` passes `rule`; a bad element names its index."""
    if rule.each is not None and isinstance(value, list):
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", rule.each, item)
    if rule.keys is not None and isinstance(value, dict):
        for key in value:
            _require(key in rule.keys, f"unknown key {name}.{key}")
        for key, sub in rule.keys.items():
            _check(f"{name}.{key}", sub, value.get(key))
    if not rule.test(value):
        raise ScenarioValidationError(f"{name} must be {rule.words}, got {value!r}")


def _key(default, rule: Rule):
    """A scenario key's field: its default and its whole single-key rule."""
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


POSITIVE, _NONNEGATIVE, _UNIT = _real(gt=0), _real(ge=0), _real(ge=0, le=1)
_FRACTION = _real(gt=0, le=1)
_STRING = Rule("a string", lambda v: isinstance(v, str))
_ID_PAIR = _list(integer(), "two station ids", length=2)


# --- the sections --------------------------------------------------------------


@dataclass
class FieldSpec:
    x: float = _key(10_000.0, POSITIVE)
    y: float = _key(10_000.0, POSITIVE)
    z: float = _key(1_000.0, POSITIVE)


@dataclass
class MapSpec:
    source: str = _key("synthetic", _one_of("synthetic", "raster"))
    path: str | None = _key(None, _or_null(_STRING))
    width: int = _key(1000, integer(1))
    height: int = _key(1000, integer(1))
    cell_size: float = _key(10.0, POSITIVE)
    islands: int = _key(5, integer(0))
    island_radius: list = _key([200.0, 600.0], _pair(_NONNEGATIVE))
    coast_border: int = _key(0, integer(0))
    k: int = _key(2, integer(2))
    water: str = _key("low", _one_of("low", "high"))


@dataclass
class CurrentSpec:
    window: float = _key(2000.0, POSITIVE)
    count: list = _key([2, 5], _pair(_whole(0)))
    radius: list = _key([100.0, 250.0], _pair(_real(ge=1e-9)))
    peak_speed: list = _key([0.05, 0.3], _pair(_NONNEGATIVE))
    noise: list = _key([0.1, 0.8], _pair(_NONNEGATIVE))


@dataclass
class ObstacleSpec:
    count: int = _key(6, integer(0))
    kinds: list = _key(["static", "uncertain", "mobile"],
                       _list(_one_of("static", "uncertain", "mobile")))
    radius: list = _key([100.0, 250.0], _pair(_real(ge=1e-9)))
    radius_sigma: float = _key(15.0, _NONNEGATIVE)
    motion_sigma: float = _key(0.05, _NONNEGATIVE)
    station_clearance: float = _key(400.0, _NONNEGATIVE)


_DRIFT_BOUND = _list(_NONNEGATIVE, "three numbers", length=3)
# An explicit station, null reading as absent; where its position lies is the
# build's point rule.
_RECORD = _mapping(
    id=integer(),
    position=Rule("absent, random or a list",
                  lambda v: v in (None, "random") or isinstance(v, list)),
    kind=Rule("absent, fixed or drifting", lambda v: v in (None, "fixed", "drifting")),
    value=_or_null(_NONNEGATIVE, "absent"), drift_sigma=_or_null(_NONNEGATIVE, "absent"),
    drift_bound=_or_null(_DRIFT_BOUND, "absent"))


@dataclass
class NetworkSpec:
    stations: int | None = _key(20, _or_null(integer(2)))
    records: list | None = _key(None, _or_null(_list(_RECORD)))
    edges: list | None = _key(None, _or_null(_list(_ID_PAIR)))
    comm_range: float = _key(3500.0, _NONNEGATIVE)
    start: int = _key(1, integer())
    goal: int | None = _key(None, _or_null(integer()))
    value_range: list = _key([1, 5], _pair(_whole(0)))
    drifting_fraction: float = _key(0.5, _UNIT)
    drift_bound: list = _key([300.0, 300.0, 50.0], _DRIFT_BOUND)
    drift_sigma: float = _key(40.0, _NONNEGATIVE)


@dataclass
class VehicleSpec:
    max_speed: float = _key(2.82, POSITIVE)
    cruise_speed: float = _key(2.2, POSITIVE)
    time_budget: float = _key(14_400.0, POSITIVE)
    surge_max: float = _key(2.7, POSITIVE)
    sway_max: float = _key(0.5, POSITIVE)
    yaw_rate_max_deg: float = _key(17.0, POSITIVE)


@dataclass
class DESpec:
    population: int = _key(50, integer(4))
    generations: int = _key(200, integer(1))
    scale: float = _key(0.7, _real(ge=0, le=2))
    crossover: float = _key(0.9, _UNIT)
    restarts: int = _key(3, integer(1))
    # stop a run after this many generations without a new best
    stall: int | None = _key(None, _or_null(integer(1)))


@dataclass
class WeightsSpec:
    surge: float = _key(10.0, _NONNEGATIVE)
    sway: float = _key(10.0, _NONNEGATIVE)
    yaw_rate: float = _key(10.0, _NONNEGATIVE)
    collision: float = _key(100.0, _NONNEGATIVE)
    aggregate: str = _key("max", _one_of("max", "sum"))


@dataclass
class SplineSpec:
    control_points: int = _key(8, integer(4))
    degree: int = _key(3, integer(3))
    samples: int = _key(100, integer())


@dataclass
class MissionSpec:
    dt: float = _key(1.0, POSITIVE)
    replan_slack: float = _key(0.05, _NONNEGATIVE)
    nominal_speed_factor: float = _key(0.97, _FRACTION)
    sensing_radius: float = _key(500.0, POSITIVE)
    budget_margin: float = _key(0.995, _FRACTION)
    max_global_replans: int = _key(10, integer(0))
    replan_generation_factor: float = _key(0.5, POSITIVE)
    obstacle_margin: float = _key(20.0, _NONNEGATIVE)
    edge_failures: list = _key([], _list(_mapping(after_leg=integer(1), edge=_ID_PAIR)))


@dataclass
class MonteCarloSpec:
    # [lo, hi]: redraw the station count per trial
    stations: list | None = _key(None, _or_null(_pair(_whole(2))))


@dataclass
class Scenario:
    name: str = _key("scenario", _STRING)
    seed: int = _key(0, integer(0))
    field: FieldSpec = dataclasses.field(default_factory=FieldSpec)
    map: MapSpec = dataclasses.field(default_factory=MapSpec)
    current: CurrentSpec = dataclasses.field(default_factory=CurrentSpec)
    obstacles: ObstacleSpec = dataclasses.field(default_factory=ObstacleSpec)
    network: NetworkSpec = dataclasses.field(default_factory=NetworkSpec)
    vehicle: VehicleSpec = dataclasses.field(default_factory=VehicleSpec)
    de_global: DESpec = dataclasses.field(default_factory=lambda: DESpec(population=36, generations=120, restarts=2))
    de_local: DESpec = dataclasses.field(default_factory=lambda: DESpec(population=24, generations=60, restarts=1))
    weights: WeightsSpec = dataclasses.field(default_factory=WeightsSpec)
    spline: SplineSpec = dataclasses.field(default_factory=SplineSpec)
    mission: MissionSpec = dataclasses.field(default_factory=MissionSpec)
    montecarlo: MonteCarloSpec = dataclasses.field(default_factory=MonteCarloSpec)


def _merge(prefix: str, obj, data: dict):
    """Set `data`'s keys on `obj`: each value passes its field's rule, each section merges."""
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        name = f"{prefix}{key}"
        _require(key in fields, f"unknown key {name}")
        rule = fields[key].metadata.get("rule")
        _check(name, rule or _SECTION, value)
        if rule is None:  # a section
            _merge(f"{name}.", getattr(obj, key), value)
        else:
            setattr(obj, key, value)
    return obj


def _require(cond: bool, message: str):
    if not cond:
        raise ScenarioValidationError(message)


def _require_map_extent(sc: Scenario, x: float, y: float):
    """The map's (x, y) span in meters must be the field's: the current field
    and obstacle placement use `field`, the map and the corridor bounds the map."""
    _require(math.isclose(x, sc.field.x) and math.isclose(y, sc.field.y),
             f"map extent {x:g} x {y:g} m (width/height x cell_size) differs from "
             f"field.x/field.y {sc.field.x:g} x {sc.field.y:g} m")


def validate(sc: Scenario) -> Scenario:
    """Check the rules that span keys; returns the scenario for chaining.

    Each key's own rule is its field's, checked as the document is read.
    """
    if sc.map.source == "raster":
        _require(sc.map.path is not None, "map.path is required for raster maps")
        _require(Path(sc.map.path).exists(), f"map.path {sc.map.path!r} does not exist")
    else:
        _require(sc.map.islands > 0 or sc.map.coast_border > 0,
                 "synthetic map needs map.islands > 0 or map.coast_border > 0")
        _require_map_extent(sc, sc.map.width * sc.map.cell_size,
                            sc.map.height * sc.map.cell_size)
    _require(sc.obstacles.count == 0 or len(sc.obstacles.kinds) > 0,
             "obstacles.kinds must not be empty when obstacles.count > 0")
    ns = sc.network
    if ns.records is None:  # generated stations are numbered 1..stations
        _require(ns.stations is not None, "network needs stations count or explicit records")
        ids = range(1, ns.stations + 1)
        _require(ns.start in ids, "network.start must be in 1..network.stations")
        _require(ns.goal is None or ns.goal in ids, "network.goal must be in 1..network.stations")
    else:
        ids = [rec["id"] for rec in ns.records]
        _require(len(set(ids)) == len(ids), "network.records ids must be unique")
    # The decoder's walk stops at the goal, so a goal that is the start has no tour.
    _require(ns.start != (ns.goal if ns.goal is not None else max(ids, default=None)),
             "network.start and goal must differ (the goal defaults to network.stations "
             "or the largest record id)")
    _require(ns.comm_range > 0 or ns.edges is not None,
             "network.comm_range must be > 0 when no edge list is given")
    _require(sc.vehicle.cruise_speed <= sc.vehicle.max_speed,
             "vehicle.cruise_speed must be <= vehicle.max_speed")
    # Local planning runs one DE per leg; any other restart count would be ignored.
    _require(sc.de_local.restarts == 1, "de_local.restarts must be 1")
    _require(sc.spline.samples >= 10 * sc.spline.control_points,
             "spline.samples must be >= 10 * control_points")
    _require(sc.spline.degree < sc.spline.control_points,
             "spline.degree must be < control_points")
    if sc.montecarlo.stations is not None:
        _require(ns.records is None, "montecarlo.stations redraws generated stations; "
                 "it cannot go with network.records")
        # Redrawn ids are 1..count; a goal of `stations` follows count.
        lo = int(sc.montecarlo.stations[0])
        follows = ns.goal in (None, ns.stations)
        _require(ns.start <= lo and (follows or ns.goal <= lo),
                 "network.start and goal must be <= the montecarlo.stations low bound")
        _require(ns.start < lo or not follows, "network.start must be below the "
                 "montecarlo.stations low bound when the goal follows the redraw")
        ids = range(1, lo + 1)
    # A scripted failure can only fire on an edge between two stations of the network.
    for i, (a, b) in enumerate(f["edge"] for f in sc.mission.edge_failures):
        _require(a != b and a in ids and b in ids, f"mission.edge_failures[{i}].edge must be "
                 f"two different station ids, got {[a, b]}")
    return sc


def from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a parsed document."""
    _require(isinstance(data, dict), "scenario document must be a mapping")
    return validate(_merge("", Scenario(), data))


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; defaults are applied explicitly."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioParseError(f"invalid YAML in {path}{where}: {exc}") from exc
    return from_dict(data or {})


def to_dict(sc: Scenario) -> dict:
    """Normalized document with every default filled in (echo form)."""
    return dataclasses.asdict(sc)


def echo(sc: Scenario) -> str:
    return yaml.safe_dump(to_dict(sc), sort_keys=False)


def resolve_scenario(ref: str) -> Scenario:
    """Load from a filesystem path, or fall back to a bundled scenario name."""
    p = Path(ref)
    if p.exists():
        return load_scenario(p)
    bundled = Path(__file__).parent / "scenarios" / f"{ref}.yaml"
    if bundled.exists():
        return load_scenario(bundled)
    raise ScenarioParseError(f"no scenario file or bundled scenario named {ref!r}")


# --- world construction ----------------------------------------------------


def build_map(sc: Scenario, seed: int) -> ClusteredMap:
    """Load or synthesize the raster and cluster it into water and coast.

    A synthetic raster's extent is checked by `validate`; a raster file's
    size is known only once it is read, so its extent is checked here.
    """
    rng = seeding.stream(seed, seeding.ENV, 0)
    if sc.map.source == "raster":
        raster = load_raster(sc.map.path, sc.map.cell_size, sc.field.z)
        _require_map_extent(sc, *raster.extent)
    else:
        raster = synthesize_raster(sc.map.width, sc.map.height, sc.map.cell_size, sc.field.z,
                                   rng, islands=sc.map.islands,
                                   island_radius=tuple(sc.map.island_radius),
                                   coast_border=sc.map.coast_border)
    return cluster_map(raster, sc.map.k, water=sc.map.water)


def build_field(sc: Scenario, seed: int) -> VortexField:
    rng = seeding.stream(seed, seeding.ENV, 1)
    return sample_vortex_field((sc.field.x, sc.field.y), rng, window=sc.current.window,
                               count=tuple(int(c) for c in sc.current.count),
                               radius=tuple(sc.current.radius),
                               peak_speed=tuple(sc.current.peak_speed),
                               noise_range=tuple(sc.current.noise))


def build_network_from_spec(sc: Scenario, cmap: ClusteredMap, seed: int,
                            station_count: int | None = None) -> Network:
    rng = seeding.stream(seed, seeding.NETWORK, 0)
    ns = sc.network
    count = station_count if station_count is not None else ns.stations
    goal = ns.goal
    if station_count is not None and ns.goal == ns.stations:
        goal = None  # generated goal follows the redrawn station count
    try:
        return build_network(
            cmap, rng, station_count=count, records=ns.records, start=ns.start, goal=goal,
            value_range=tuple(int(v) for v in ns.value_range),
            drifting_fraction=ns.drifting_fraction, drift_bound=tuple(ns.drift_bound),
            drift_sigma=ns.drift_sigma, comm_range=ns.comm_range, explicit_edges=ns.edges)
    except ValueError as exc:  # a station record or edge the network cannot hold
        raise ScenarioValidationError(f"network: {exc}") from exc


def build_obstacles(sc: Scenario, cmap: ClusteredMap, network: Network, seed: int) -> list[Obstacle]:
    spec = sc.obstacles
    rng = seeding.stream(seed, seeding.ENV, 2)
    stations = np.array([network.position(sid) for sid in sorted(network.stations)])
    out = []
    for i in range(spec.count):
        kind = spec.kinds[i % len(spec.kinds)]
        radius = float(rng.uniform(*spec.radius))
        placed = None
        for _ in range(1000):
            x = rng.uniform(0.0, sc.field.x)
            y = rng.uniform(0.0, sc.field.y)
            z = rng.uniform(0.0, sc.field.z)
            if point_in_collision((x, y, z), cmap, padded=True):
                continue
            cand = np.array([x, y, z])
            if np.min(np.linalg.norm(stations - cand, axis=1)) <= radius + spec.station_clearance:
                continue
            placed = (x, y, z)
            break
        if placed is None:
            continue  # no clear spot; skip rather than strangle the network
        out.append(Obstacle(id=i + 1, kind=kind, position=placed, radius=radius,
                            radius_sigma=spec.radius_sigma if kind == "uncertain" else 0.0,
                            motion_sigma=spec.motion_sigma if kind == "mobile" else 0.0))
    return out


def weights_from_spec(sc: Scenario) -> LocalCostWeights:
    return LocalCostWeights(cruise_speed=sc.vehicle.cruise_speed,
                            surge_max=sc.vehicle.surge_max, sway_max=sc.vehicle.sway_max,
                            yaw_rate_max=math.radians(sc.vehicle.yaw_rate_max_deg),
                            w_surge=sc.weights.surge, w_sway=sc.weights.sway,
                            w_yaw=sc.weights.yaw_rate, w_collision=sc.weights.collision,
                            aggregate=sc.weights.aggregate)


def spline_from_spec(sc: Scenario) -> SplineConfig:
    return SplineConfig(control_count=sc.spline.control_points, degree=sc.spline.degree,
                        samples=sc.spline.samples)


def de_config_from_spec(spec: DESpec) -> DEConfig:
    return DEConfig(population_size=spec.population, generations=spec.generations,
                    scale=spec.scale, crossover_rate=spec.crossover, stall=spec.stall)
