"""Scenario files: schema, validation, defaults echo, and world construction.

A scenario is one YAML document with named sections mirroring the module
configs.  Loading applies every default explicitly, rejects unknown keys,
and validates invariants with messages naming the offending key.  All units
are SI except yaw-rate limits, which carry an explicit _deg suffix.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import seeding
from .de import DEConfig
from .env import (ClusteredMap, EnvSnapshot, Obstacle, VortexField, cluster_map,
                  load_raster, point_in_collision, sample_vortex_field, synthesize_raster)
from .errors import ScenarioParseError, ScenarioValidationError
from .local_planner import LocalCostWeights, SplineConfig
from .network import Network, build_network


@dataclass
class FieldSpec:
    x: float = 10_000.0
    y: float = 10_000.0
    z: float = 1_000.0


@dataclass
class MapSpec:
    source: str = "synthetic"          # 'synthetic' or 'raster'
    path: str | None = None
    width: int = 1000
    height: int = 1000
    cell_size: float = 10.0
    islands: int = 5
    island_radius: list = field(default_factory=lambda: [200.0, 600.0])
    coast_border: int = 0
    k: int = 2
    water: str = "low"


@dataclass
class CurrentSpec:
    window: float = 2000.0
    count: list = field(default_factory=lambda: [2, 5])
    radius: list = field(default_factory=lambda: [100.0, 250.0])
    peak_speed: list = field(default_factory=lambda: [0.05, 0.3])
    noise: list = field(default_factory=lambda: [0.1, 0.8])


@dataclass
class ObstacleSpec:
    count: int = 6
    kinds: list = field(default_factory=lambda: ["static", "uncertain", "mobile"])
    radius: list = field(default_factory=lambda: [100.0, 250.0])
    radius_sigma: float = 15.0
    motion_sigma: float = 0.05
    station_clearance: float = 400.0


@dataclass
class NetworkSpec:
    stations: int | None = 20
    records: list | None = None
    edges: list | None = None
    comm_range: float = 3500.0
    start: int = 1
    goal: int | None = None
    value_range: list = field(default_factory=lambda: [1, 5])
    drifting_fraction: float = 0.5
    drift_bound: list = field(default_factory=lambda: [300.0, 300.0, 50.0])
    drift_sigma: float = 40.0


@dataclass
class VehicleSpec:
    max_speed: float = 2.82
    cruise_speed: float = 2.2
    time_budget: float = 14_400.0
    surge_max: float = 2.7
    sway_max: float = 0.5
    yaw_rate_max_deg: float = 17.0


@dataclass
class DESpec:
    population: int = 50
    generations: int = 200
    scale: float = 0.7
    crossover: float = 0.9
    # `must` words a value of the wrong type as `validate` words one out of range.
    restarts: int = field(default=3, metadata={"must": "an integer >= 1"})
    # stop a run after this many generations without a new best
    stall: int | None = field(default=None, metadata={"must": "null or an integer >= 1"})


@dataclass
class WeightsSpec:
    surge: float = 10.0
    sway: float = 10.0
    yaw_rate: float = 10.0
    collision: float = 100.0
    aggregate: str = "max"


@dataclass
class SplineSpec:
    control_points: int = 8
    degree: int = 3
    samples: int = 100


@dataclass
class MissionSpec:
    dt: float = 1.0
    replan_slack: float = 0.05
    nominal_speed_factor: float = 0.97
    sensing_radius: float = 500.0
    budget_margin: float = 0.995
    max_global_replans: int = 10
    replan_generation_factor: float = 0.5
    obstacle_margin: float = 20.0
    edge_failures: list = field(default_factory=list)


@dataclass
class MonteCarloSpec:
    stations: list | None = None       # [lo, hi]: redraw station count per trial


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 0
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


_SECTIONS = {
    "field": FieldSpec, "map": MapSpec, "current": CurrentSpec, "obstacles": ObstacleSpec,
    "network": NetworkSpec, "vehicle": VehicleSpec, "de_global": DESpec, "de_local": DESpec,
    "weights": WeightsSpec, "spline": SplineSpec, "mission": MissionSpec,
    "montecarlo": MonteCarloSpec,
}


# The values each declared field type takes, and how a message names them.
# A bool is neither an int nor a float here.
_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "None": (lambda v: v is None, "null"),
}


def _merge_section(name: str, obj, data: dict):
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in fields:
            raise ScenarioValidationError(f"unknown key {name}.{key}")
        kinds = fields[key].type.split(" | ")
        if not any(_TYPES[kind][0](value) for kind in kinds):
            must = fields[key].metadata.get("must") or " or ".join(_TYPES[k][1] for k in kinds)
            raise ScenarioValidationError(f"{name}.{key} must be {must}, got {value!r}")
        setattr(obj, key, value)
    return obj


def _require(cond: bool, message: str):
    if not cond:
        raise ScenarioValidationError(message)


def _is_real(value) -> bool:
    return _TYPES["float"][0](value) and math.isfinite(value)


def _check_range(name: str, pair, lo_ok=0.0, integer=False):
    _require(isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_real, pair)),
             f"{name} must be a [low, high] pair of finite numbers, got {pair!r}")
    lo, hi = pair
    _require(lo >= lo_ok, f"{name} low bound must be >= {lo_ok}")
    _require(lo <= hi, f"{name} low bound must not exceed high bound")
    if integer:
        _require(float(lo).is_integer() and float(hi).is_integer(), f"{name} must be integers")


def _check_nonnegative(name: str, value):
    _require(math.isfinite(value) and value >= 0, f"{name} must be finite and >= 0")


def _is_id_pair(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(v) is int for v in value))


def validate(sc: Scenario) -> Scenario:
    """Check every documented invariant; returns the scenario for chaining."""
    _require(sc.field.x > 0 and sc.field.y > 0 and sc.field.z > 0,
             "field extents must be > 0")
    _require(sc.map.source in ("synthetic", "raster"), "map.source must be synthetic or raster")
    if sc.map.source == "raster":
        _require(sc.map.path is not None, "map.path is required for raster maps")
        _require(Path(sc.map.path).exists(), f"map.path {sc.map.path!r} does not exist")
    _require(sc.map.cell_size > 0, "map.cell_size must be > 0")
    _require(sc.map.width > 0 and sc.map.height > 0, "map dimensions must be > 0")
    _require(sc.map.k >= 2, "map.k must be >= 2")
    if sc.map.source == "synthetic":
        _require(sc.map.islands > 0 or sc.map.coast_border > 0,
                 "synthetic map needs map.islands > 0 or map.coast_border > 0")
    _require(sc.map.water in ("low", "high"), "map.water must be low or high")
    _check_range("map.island_radius", sc.map.island_radius)
    _check_range("current.count", sc.current.count, lo_ok=0, integer=True)
    _check_range("current.radius", sc.current.radius, lo_ok=1e-9)
    _check_range("current.peak_speed", sc.current.peak_speed)
    _check_range("current.noise", sc.current.noise)
    _require(sc.current.window > 0, "current.window must be > 0")
    _require(sc.obstacles.count >= 0, "obstacles.count must be >= 0")
    _require(sc.obstacles.count == 0 or len(sc.obstacles.kinds) > 0,
             "obstacles.kinds must not be empty when obstacles.count > 0")
    _check_range("obstacles.radius", sc.obstacles.radius, lo_ok=1e-9)
    _check_nonnegative("obstacles.radius_sigma", sc.obstacles.radius_sigma)
    _check_nonnegative("obstacles.motion_sigma", sc.obstacles.motion_sigma)
    for kind in sc.obstacles.kinds:
        _require(kind in ("static", "uncertain", "mobile"), f"unknown obstacle kind {kind!r}")
    _require(sc.network.records is not None or sc.network.stations is not None,
             "network needs stations count or explicit records")
    if sc.network.stations is not None:
        _require(sc.network.stations >= 2, "network.stations must be >= 2")
    if sc.network.records is None:  # generated stations are numbered 1..stations
        ids = range(1, sc.network.stations + 1)
        _require(sc.network.start in ids, "network.start must be in 1..network.stations")
        _require(sc.network.goal is None or sc.network.goal in ids,
                 "network.goal must be in 1..network.stations")
    else:  # the shape of explicit stations; where a position lies is the build's point rule
        for i, rec in enumerate(sc.network.records):
            _require(isinstance(rec, dict), f"network.records[{i}] must be a mapping")
            _require(type(rec.get("id")) is int, f"network.records[{i}].id must be an integer")
            pos = rec.get("position")
            _require(isinstance(pos, (list, tuple)) or pos in (None, "random"),
                     f"network.records[{i}].position must be absent, random or a list")
        ids = [rec["id"] for rec in sc.network.records]
        _require(len(set(ids)) == len(ids), "network.records ids must be unique")
    if sc.network.edges is not None:
        for i, edge in enumerate(sc.network.edges):
            _require(_is_id_pair(edge), f"network.edges[{i}] must be two station ids")
    _check_range("network.value_range", sc.network.value_range, integer=True)
    _require(0.0 <= sc.network.drifting_fraction <= 1.0,
             "network.drifting_fraction must be in [0, 1]")
    _check_nonnegative("network.drift_sigma", sc.network.drift_sigma)
    bound = sc.network.drift_bound
    _require(len(bound) == 3 and all(_is_real(b) and b >= 0 for b in bound),
             f"network.drift_bound must be three finite numbers >= 0, got {bound!r}")
    _require(sc.network.comm_range > 0 or sc.network.edges is not None,
             "network.comm_range must be > 0 when no edge list is given")
    _require(0 < sc.vehicle.time_budget < math.inf, "vehicle.time_budget must be finite and > 0")
    _require(0 < sc.vehicle.cruise_speed <= sc.vehicle.max_speed,
             "vehicle.cruise_speed must be in (0, max_speed]")
    _require(sc.vehicle.max_speed > 0, "vehicle.max_speed must be > 0")
    _require(sc.vehicle.surge_max > 0 and sc.vehicle.sway_max > 0,
             "vehicle velocity limits must be > 0")
    _require(sc.vehicle.yaw_rate_max_deg > 0, "vehicle.yaw_rate_max_deg must be > 0")
    for label, de_spec in (("de_global", sc.de_global), ("de_local", sc.de_local)):
        _require(de_spec.population >= 4, f"{label}.population must be >= 4")
        _require(de_spec.generations >= 1, f"{label}.generations must be >= 1")
        _require(0.0 <= de_spec.scale <= 2.0, f"{label}.scale must be in [0, 2]")
        _require(0.0 <= de_spec.crossover <= 1.0, f"{label}.crossover must be in [0, 1]")
        _require(de_spec.restarts >= 1, f"{label}.restarts must be an integer >= 1")
        _require(de_spec.stall is None or de_spec.stall >= 1,
                 f"{label}.stall must be null or an integer >= 1")
    # Local planning runs one DE per leg; any other restart count would be ignored.
    _require(sc.de_local.restarts == 1, "de_local.restarts must be 1")
    for key in ("surge", "sway", "yaw_rate", "collision"):
        _check_nonnegative(f"weights.{key}", getattr(sc.weights, key))
    _require(sc.weights.aggregate in ("max", "sum"), "weights.aggregate must be max or sum")
    _require(sc.spline.control_points >= 4, "spline.control_points must be >= 4")
    _require(sc.spline.degree >= 3, "spline.degree must be >= 3")
    _require(sc.spline.samples >= 10 * sc.spline.control_points,
             "spline.samples must be >= 10 * control_points")
    _require(sc.mission.dt > 0, "mission.dt must be > 0")
    _require(sc.mission.replan_slack >= 0, "mission.replan_slack must be >= 0")
    _require(0 < sc.mission.nominal_speed_factor <= 1.0,
             "mission.nominal_speed_factor must be in (0, 1]")
    _require(0 < sc.mission.budget_margin <= 1.0, "mission.budget_margin must be in (0, 1]")
    _require(sc.mission.sensing_radius > 0, "mission.sensing_radius must be > 0")
    _require(sc.mission.max_global_replans >= 0, "mission.max_global_replans must be >= 0")
    factor = sc.mission.replan_generation_factor
    _require(math.isfinite(factor) and factor > 0,
             "mission.replan_generation_factor must be finite and > 0")
    _check_nonnegative("mission.obstacle_margin", sc.mission.obstacle_margin)
    for i, failure in enumerate(sc.mission.edge_failures):
        _require(isinstance(failure, dict) and "after_leg" in failure and "edge" in failure,
                 "mission.edge_failures entries need after_leg and edge")
        _require(type(failure["after_leg"]) is int,
                 f"mission.edge_failures[{i}].after_leg must be an integer")
        _require(_is_id_pair(failure["edge"]),
                 f"mission.edge_failures[{i}].edge must be two station ids")
    if sc.montecarlo.stations is not None:
        _check_range("montecarlo.stations", sc.montecarlo.stations, lo_ok=2, integer=True)
        lo, ns = sc.montecarlo.stations[0], sc.network
        _require(ns.records is None, "montecarlo.stations redraws generated stations; "
                 "it cannot go with network.records")
        # Redrawn ids are 1..count; a goal of `stations` follows count.
        _require(ns.start <= lo and (ns.goal in (None, ns.stations) or ns.goal <= lo),
                 "network.start and goal must be <= the montecarlo.stations low bound")
    # The configs the mission builds also reject infinities, which pass the checks above.
    for label, build, arg in (("de_global", de_config_from_spec, sc.de_global),
                              ("de_local", de_config_from_spec, sc.de_local),
                              ("spline", spline_from_spec, sc), ("vehicle", weights_from_spec, sc)):
        try:
            build(arg)
        except ValueError as exc:
            raise ScenarioValidationError(f"{label}: {exc}") from exc
    return sc


def from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a parsed document."""
    if not isinstance(data, dict):
        raise ScenarioValidationError("scenario document must be a mapping")
    sc = Scenario()
    for key, value in data.items():
        if key == "name":
            _require(isinstance(value, str), f"name must be a string, got {value!r}")
            sc.name = value
        elif key == "seed":
            _require(type(value) is int, f"seed must be an integer, got {value!r}")
            _require(value >= 0, f"seed must be >= 0, got {value}")
            sc.seed = value
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ScenarioValidationError(f"section {key} must be a mapping")
            _merge_section(key, getattr(sc, key), value)
        else:
            raise ScenarioValidationError(f"unknown key {key}")
    return validate(sc)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; defaults are applied explicitly."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioParseError(f"invalid YAML in {path}{where}: {exc}") from exc
    return from_dict(data or {})


def to_dict(sc: Scenario) -> dict:
    """Normalized document with every default filled in (echo form)."""
    return {"name": sc.name, "seed": sc.seed,
            **{key: dataclasses.asdict(getattr(sc, key)) for key in _SECTIONS}}


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

    The raster must span the field extents: the current field and obstacle
    placement use `field`, the map and the corridor bounds use the raster.
    """
    rng = seeding.stream(seed, seeding.ENV, 0)
    if sc.map.source == "raster":
        raster = load_raster(sc.map.path, sc.map.cell_size, sc.field.z)
    else:
        raster = synthesize_raster(sc.map.width, sc.map.height, sc.map.cell_size, sc.field.z,
                                   rng, islands=sc.map.islands,
                                   island_radius=tuple(sc.map.island_radius),
                                   coast_border=sc.map.coast_border)
    x, y = raster.extent
    _require(math.isclose(x, sc.field.x) and math.isclose(y, sc.field.y),
             f"map extent {x:g} x {y:g} m (width/height x cell_size) differs from "
             f"field.x/field.y {sc.field.x:g} x {sc.field.y:g} m")
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
