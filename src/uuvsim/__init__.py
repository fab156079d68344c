"""uuvsim: mission-planning simulator for an underwater vehicle that visits a
time-budgeted, value-weighted sequence of fixed and drifting sensor stations,
threading B-spline paths through vortex currents and moving obstacles with
reactive global/local replanning driven by differential evolution."""

__version__ = "0.1.0"

from .de import DEConfig, DEResult, Individual, optimize
from .env import (ClusteredMap, CurrentSample, EnvSnapshot, GridMap, Obstacle,
                  ObstacleColumns, VortexField, VortexParams, cluster_map, current_at,
                  perturb_field, point_in_collision, step_obstacles)
from .errors import UUVSimError
from .global_planner import Route, decode_route, plan_global
from .local_planner import (LocalCostWeights, LocalPath, SplineConfig, evaluate_paths,
                            plan_local, replan_local)
from .mission import LegOutcome, MissionReport, run_mission, should_replan_global
from .network import Network, Station, build_network, consume_edge, drift_stations, edge_metrics
from .scenario import Scenario, load_scenario
