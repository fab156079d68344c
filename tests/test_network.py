import itertools
import math
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uuvsim.network as network_module
from uuvsim.env import VortexField, VortexParams, cluster_map, current_at, point_in_collision
from uuvsim.errors import (AlreadyUsedError, CoastalPlacementError, NoSuchEdgeError,
                           UnreachableGoalError)
from uuvsim.global_planner import decode_graph, decode_route
from uuvsim.network import (Network, Station, adjacency, build_network, consume_edge,
                            drift_stations, edge_metrics, shortest_times_to)
from tests.oracles import reference_comm_edges
from tests.test_env import grid_from, occupancy_map


def open_water_map(n=100, cell=100.0, depth=1000.0):
    values = np.zeros((n, n))
    values[0, 0] = 255
    return cluster_map(grid_from(values, cell, depth), k=2)


def line_network(positions, edges, start=1, goal=None, values=None, **station_kw) -> Network:
    stations = {}
    for i, pos in enumerate(positions, start=1):
        stations[i] = Station(id=i, position=tuple(pos), kind="fixed",
                              value=0.0 if values is None else values[i - 1], **station_kw)
    goal = goal if goal is not None else len(positions)
    return Network(stations=stations,
                   edges=frozenset((min(a, b), max(a, b)) for a, b in edges),
                   start_id=start, goal_id=goal,
                   anchors={i: s.position for i, s in stations.items()})


def test_build_explicit_three_stations():
    cmap = open_water_map()
    records = [{"id": 1, "position": [1000.0, 1000.0, 10.0], "kind": "fixed"},
               {"id": 2, "position": [5000.0, 1000.0, 10.0], "kind": "fixed"},
               {"id": 3, "position": [9000.0, 1000.0, 10.0], "kind": "fixed"}]
    net = build_network(cmap, np.random.default_rng(0), records=records,
                        explicit_edges=[(1, 2), (2, 3)], start=1, goal=3)
    assert len(net.edges) == 2
    assert net.goal_reachable()


def test_build_rejects_coastal_station():
    # An explicit station passes the padded point rule, as a generated one does:
    # the coast cell, its one-cell band, above the surface, below the depth
    # range, non-finite and 2-D positions are all refused.
    cmap = open_water_map()
    for position in ([50.0, 50.0, 0.0], [150.0, 150.0, 10.0], [5000.0, 5000.0, -1.0],
                     [5000.0, 5000.0, 1001.0], [math.nan, 5000.0, 10.0],
                     [5000.0, math.inf, 10.0], [5000.0, 5000.0]):
        records = [{"id": 1, "position": position}, {"id": 2, "position": [5000.0, 5000.0, 10.0]}]
        with pytest.raises(CoastalPlacementError, match="station 1 at"):
            build_network(cmap, np.random.default_rng(0), records=records,
                          explicit_edges=[(1, 2)], start=1, goal=2)


def test_build_rejects_unreachable_goal():
    cmap = open_water_map()
    records = [{"id": 1, "position": [1000.0, 1000.0, 10.0]},
               {"id": 2, "position": [5000.0, 1000.0, 10.0]},
               {"id": 3, "position": [9000.0, 1000.0, 10.0]}]
    with pytest.raises(UnreachableGoalError):
        build_network(cmap, np.random.default_rng(0), records=records,
                      explicit_edges=[(1, 2)], start=1, goal=3)


def test_build_with_fixed_positions_tests_the_chords_once():
    # Two given stations on either side of a coast wall, comm-range edges: no
    # placement can change the edges, so one chord pass decides.
    occ = np.zeros((7, 13), dtype=np.int8)
    occ[:, 6] = 1
    cmap = occupancy_map(occ, 10.0)
    records = [{"id": 1, "position": [20.0, 30.0, 5.0]}, {"id": 2, "position": [100.0, 30.0, 5.0]}]
    with mock.patch.object(network_module, "points_in_collision",
                           wraps=network_module.points_in_collision) as spy:
        with pytest.raises(UnreachableGoalError, match="goal 2 not reachable from start 1"):
            build_network(cmap, np.random.default_rng(0), records=records, start=1, goal=2,
                          comm_range=math.inf)
    assert spy.call_count == 1


def test_build_generated_stations_with_cut_off_edges_place_once():
    # Explicit edges do not depend on where the stations fall, so generated
    # stations are placed once.
    with mock.patch.object(network_module, "Network", wraps=Network) as built:
        with pytest.raises(UnreachableGoalError, match="goal 5 not reachable from start 1"):
            build_network(open_water_map(), np.random.default_rng(0), station_count=5,
                          explicit_edges=[(1, 2), (2, 3)], start=1, goal=5)
    assert built.call_count == 1


def test_build_generated_twenty_stations():
    cmap = open_water_map()
    net = build_network(cmap, np.random.default_rng(12), station_count=20,
                        start=1, goal=20, comm_range=3500.0)
    assert net.size == 20 and net.start_id == 1 and net.goal_id == 20
    assert net.stations[1].kind == "fixed" and net.stations[20].kind == "fixed"
    for st in net.stations.values():
        x, y, z = st.position
        assert 0 <= x <= 10_000 and 0 <= y <= 10_000 and 0 <= z <= 1000
        assert not point_in_collision(st.position, cmap, padded=True)
    assert net.goal_reachable()


def test_edge_metrics_three_four_five():
    net = line_network([(0, 0, 0), (3, 4, 0)], [(1, 2)])
    d, t = edge_metrics(net, 1, 2, speed=1.0)
    assert d == pytest.approx(5.0) and t == pytest.approx(5.0)


def test_edge_metrics_hand_value_at_cruise():
    net = line_network([(1000, 2000, 100), (4000, 6000, 100)], [(1, 2)])
    d, t = edge_metrics(net, 1, 2, speed=2.82)
    assert d == pytest.approx(5000.0)
    assert t == pytest.approx(1773.0496, abs=0.01)


def test_edge_metrics_symmetric_and_missing_edge():
    net = line_network([(0, 0, 0), (3, 4, 0), (9, 9, 9)], [(1, 2)])
    assert edge_metrics(net, 1, 2, 2.0) == edge_metrics(net, 2, 1, 2.0)
    with pytest.raises(NoSuchEdgeError):
        edge_metrics(net, 1, 3, 2.0)


def test_consume_edge_semantics():
    net = line_network([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(1, 2), (2, 3)])
    net2 = consume_edge(net, 1, 2)
    assert not net.is_used(1, 2)  # original snapshot untouched
    assert net2.is_used(1, 2) and not net2.is_used(2, 3)
    assert [v for v, _, _, _ in adjacency(net2, 1.0)[2]] == [3]
    with pytest.raises(AlreadyUsedError):
        consume_edge(net2, 1, 2)


def test_consuming_goal_edges_cuts_reachability():
    net = line_network([(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                       [(1, 2), (2, 3), (1, 3)])
    net = consume_edge(net, 2, 3)
    net = consume_edge(net, 1, 3)
    assert not net.goal_reachable()
    # oracle: networkx reachability over the remaining edges agrees
    g = nx.Graph([e for e in net.edges if e not in net.used])
    g.add_nodes_from(net.stations)
    assert not nx.has_path(g, net.start_id, net.goal_id)


@pytest.mark.parametrize("speed", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [lambda net, v: shortest_times_to(net, 2, v),
                                  lambda net, v: adjacency(net, v),
                                  lambda net, v: edge_metrics(net, 1, 2, v)],
                         ids=["shortest_times_to", "adjacency", "edge_metrics"])
def test_network_rejects_speeds_that_give_no_time(call, speed):
    # Unchecked, -1 looped forever in dijkstra (every edge a negative cycle), 0
    # divided by zero and NaN came back as an edge time.
    net = line_network([(0, 0, 0), (3, 4, 0)], [(1, 2)])
    with pytest.raises(ValueError, match="speed must be finite and > 0"):
        call(net, speed)


def test_shortest_times_match_networkx():
    rng = np.random.default_rng(4)
    positions = rng.uniform(0, 5000, size=(9, 3))
    edges = [(i, j) for i in range(1, 10) for j in range(i + 1, 10)
             if rng.random() < 0.45]
    edges.append((1, 9))
    net = line_network(positions, edges, start=1, goal=9)
    speed = 2.0
    mine = shortest_times_to(net, target=9, speed=speed)
    g = nx.Graph()
    g.add_nodes_from(net.stations)
    for a, b in net.edges:
        w = float(np.linalg.norm(positions[a - 1] - positions[b - 1])) / speed
        g.add_edge(a, b, weight=w)
    theirs = nx.single_source_dijkstra_path_length(g, 9, weight="weight")
    for sid in net.stations:
        if sid in theirs:
            assert mine[sid] == pytest.approx(theirs[sid], rel=1e-12)
        else:
            assert sid not in mine


@st.composite
def station_graphs(draw):
    """A random network of 2-10 stations with arbitrary distinct ids (not
    1..n), float positions and some edges consumed."""
    ids = draw(st.lists(st.integers(-50, 10_000), min_size=2, max_size=10, unique=True))
    coord = st.floats(-5000.0, 5000.0)
    stations = {sid: Station(id=sid, position=draw(st.tuples(coord, coord, coord)), kind="fixed")
                for sid in ids}
    edges = frozenset(pr for pr in itertools.combinations(sorted(ids), 2) if draw(st.booleans()))
    used = frozenset(pr for pr in sorted(edges) if draw(st.integers(0, 3)) == 0)
    return Network(stations=stations, edges=edges, start_id=ids[0], goal_id=ids[-1],
                   anchors={sid: s.position for sid, s in stations.items()}, used=used)


def unused_graph(net) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(net.stations)
    g.add_edges_from(net.edges - net.used)
    return g


@settings(max_examples=150, deadline=None)
@given(net=station_graphs(), speed=st.sampled_from([0.5, 1.0, 2.2]))
def test_edge_metrics_equal_the_decoders_edge_bit_for_bit(net, speed):
    # A one-edge route: the far end is the goal and the only keyed station.
    ids = sorted(net.stations)
    for i, j in net.edges - net.used:
        for a, b in ((i, j), (j, i)):
            keys = np.array([1.0 if sid == b else 0.0 for sid in ids])
            route = decode_route(keys, decode_graph(net, b, speed), a, math.inf)
            assert route.sequence == (a, b)
            assert (route.distance, route.time) == edge_metrics(net, a, b, speed)


@settings(max_examples=150, deadline=None)
@given(net=station_graphs(), speed=st.sampled_from([0.5, 1.0, 2.2]))
def test_shortest_times_and_reachability_match_networkx(net, speed):
    g = unused_graph(net)
    for a, b in g.edges:
        pa, pb = np.asarray(net.stations[a].position), np.asarray(net.stations[b].position)
        g.edges[a, b]["weight"] = float(np.linalg.norm(pa - pb)) / speed
    goal = net.goal_id
    mine = shortest_times_to(net, goal, speed)
    theirs = nx.single_source_dijkstra_path_length(g, goal, weight="weight")
    assert mine.keys() == theirs.keys()
    for sid, t in theirs.items():
        assert mine[sid] == pytest.approx(t, rel=1e-12, abs=1e-12)
    for sid in net.stations:
        assert net.goal_reachable(sid) == nx.has_path(g, sid, goal)
    assert net.goal_reachable() == nx.has_path(g, net.start_id, goal)


# --- drift ------------------------------------------------------------------


def drifting_network(sigma=5.0, bound=(50.0, 50.0, 10.0)):
    stations = {
        1: Station(id=1, position=(2000.0, 2000.0, 100.0), kind="fixed"),
        2: Station(id=2, position=(5000.0, 5000.0, 500.0), kind="drifting",
                   drift_bound=bound, drift_sigma=sigma),
        3: Station(id=3, position=(8000.0, 8000.0, 900.0), kind="fixed"),
    }
    return Network(stations=stations, edges=frozenset({(1, 2), (2, 3)}),
                   start_id=1, goal_id=3,
                   anchors={i: s.position for i, s in stations.items()})


def test_fixed_only_network_never_drifts():
    net = line_network([(100, 100, 10), (200, 200, 20)], [(1, 2)])
    fld = VortexField(vortices=(VortexParams(center=(0, 0), radius=100.0, strength=500.0),))
    out = drift_stations(net, fld, open_water_map(), np.random.default_rng(0))
    assert all(out.stations[i].position == net.stations[i].position for i in net.stations)


def test_drift_without_forcing_is_identity():
    net = drifting_network(sigma=0.0)
    out = drift_stations(net, VortexField(vortices=()), open_water_map(),
                         np.random.default_rng(0))
    assert out.stations[2].position == net.stations[2].position


def test_drift_respects_bounds_and_wanders_symmetrically():
    net = drifting_network(sigma=20.0, bound=(50.0, 50.0, 10.0))
    fld = VortexField(vortices=())  # jitter-only drift
    cmap = open_water_map()
    rng = np.random.default_rng(17)
    anchor = np.asarray(net.anchors[2])
    deviations = []
    for _ in range(10_000):
        net = drift_stations(net, fld, cmap, rng)
        dev = np.asarray(net.stations[2].position) - anchor
        assert np.all(np.abs(dev) <= np.array([50.0, 50.0, 10.0]) + 1e-9)
        deviations.append(dev)
    deviations = np.asarray(deviations)
    se = deviations.std(axis=0) / math.sqrt(len(deviations))
    assert np.all(np.abs(deviations.mean(axis=0)) <= 3 * se)


def test_drift_under_current_stays_bounded():
    net = drifting_network(sigma=20.0, bound=(50.0, 50.0, 10.0))
    fld = VortexField(vortices=(VortexParams(center=(5000.0, 4000.0), radius=500.0,
                                             strength=2000.0),))
    assert current_at(net.stations[2].position[:2], fld).magnitude > 0.1
    cmap = open_water_map()
    rng = np.random.default_rng(23)
    anchor = np.asarray(net.anchors[2])
    for _ in range(2000):
        net = drift_stations(net, fld, cmap, rng)
        dev = np.asarray(net.stations[2].position) - anchor
        assert np.all(np.abs(dev) <= np.array([50.0, 50.0, 10.0]) + 1e-9)


def test_drift_updates_edge_metrics():
    net = drifting_network(sigma=30.0)
    fld = VortexField(vortices=())
    d0, _ = edge_metrics(net, 1, 2, 2.0)
    net2 = drift_stations(net, fld, open_water_map(), np.random.default_rng(3))
    d1, _ = edge_metrics(net2, 1, 2, 2.0)
    assert d0 != d1  # querying after drift reflects the new positions


def test_build_accepts_random_position_records():
    cmap = open_water_map()
    records = [{"id": 1, "position": [1000.0, 1000.0, 10.0], "kind": "fixed"},
               {"id": 2, "position": "random", "kind": "drifting", "value": 4},
               {"id": 3, "position": [9000.0, 9000.0, 10.0], "kind": "fixed"}]
    net = build_network(cmap, np.random.default_rng(2), records=records,
                        explicit_edges=[(1, 2), (2, 3)], start=1, goal=3)
    x, y, z = net.stations[2].position
    assert not point_in_collision((x, y, z), cmap, padded=True)
    assert net.stations[2].value == 4.0


@st.composite
def chord_worlds(draw):
    """A random coast raster, 1-15 station records on water a cell clear of the
    coast and a comm range.  Some stations sit on cell edges, and some share a
    cell with the one before, so their chord is shorter than a cell."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    cell = draw(st.sampled_from([1.0, 0.1, 7.3, 100.0]))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cmap = occupancy_map(rng.random((h, w)) < density, cell, depth=100.0)
    positions = []
    for _ in range(draw(st.integers(1, 15))):
        if positions and rng.random() < 0.2:
            col, row = (math.floor(c / cell) for c in positions[-1][:2])
        else:
            col, row = rng.integers(w), rng.integers(h)
        fx, fy = (0.0 if rng.random() < 0.3 else rng.random() for _ in range(2))
        positions.append(((col + fx) * cell, (row + fy) * cell, rng.uniform(0.0, 100.0)))
    positions = [p for p in positions if not point_in_collision(p, cmap, padded=True)]
    assume(positions)
    records = [{"id": sid, "position": list(p)} for sid, p in enumerate(positions, start=1)]
    comm_range = draw(st.sampled_from([0.5, 3.0, 10.0, 40.0, math.inf])) * cell
    return cmap, records, comm_range


def comm_network(cmap, records, comm_range):
    """build_network's comm-range edges over the records; start = goal keeps
    every edge set reachable."""
    return build_network(cmap, np.random.default_rng(0), records=records, start=1, goal=1,
                         comm_range=comm_range)


@settings(max_examples=300, deadline=None)
@given(world=chord_worlds(), block=st.sampled_from([1, 64, network_module._CHORD_SAMPLES]))
def test_comm_edges_equal_the_per_pair_chord_rule(world, block):
    cmap, records, comm_range = world
    with mock.patch.object(network_module, "_CHORD_SAMPLES", block):
        net = comm_network(cmap, records, comm_range)
    # Same pairs in the same iteration order: `adjacency` numbers edge ids by it.
    assert list(net.edges) == list(reference_comm_edges(cmap, net.stations, comm_range))


def test_comm_edges_on_cell_edges_short_chords_and_coast():
    # A coast wall along column 6 of a 7 x 13 raster of 10 m cells.  Stations 1
    # and 2 share a cell (a two-sample chord), 1 sits on a cell corner and 4 on
    # the raster's last row; 3 is across the wall from the others.
    occ = np.zeros((7, 13), dtype=np.int8)
    occ[:, 6] = 1
    cmap = occupancy_map(occ, 10.0)
    records = [{"id": 1, "position": [20.0, 20.0, 5.0]}, {"id": 2, "position": [25.0, 25.0, 5.0]},
               {"id": 3, "position": [100.0, 30.0, 5.0]}, {"id": 4, "position": [40.0, 60.0, 5.0]}]
    net = comm_network(cmap, records, math.inf)
    assert net.edges == {(1, 2), (1, 4), (2, 4)}
    assert list(net.edges) == list(reference_comm_edges(cmap, net.stations, math.inf))
    assert comm_network(cmap, records, 8.0).edges == {(1, 2)}
