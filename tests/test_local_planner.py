import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uuvsim.local_planner as lp
from uuvsim.de import DEConfig
from uuvsim.env import (EnvSnapshot, Obstacle, VortexField, VortexParams, cluster_map,
                        points_in_collision, synthesize_raster)
from uuvsim.errors import NoFeasiblePathError, ScenarioValidationError
from uuvsim.local_planner import (LocalCostWeights, LocalPath, SplineConfig, corridor_bounds,
                                  evaluate_paths, plan_local, replan_local, straight_genes)
from tests.oracles import _reference_basis_matrix, reference_evaluate_paths, reference_violations
from tests.test_env import grid_from

SPL = SplineConfig(control_count=8, degree=3, samples=100)


def open_env(extent_cells=600, cell=10.0, depth=1000.0, vortices=(), obstacles=()):
    values = np.zeros((extent_cells, extent_cells))
    values[0, 0] = 255
    cmap = cluster_map(grid_from(values, cell, depth), k=2)
    return EnvSnapshot(cmap, VortexField(vortices=tuple(vortices)), tuple(obstacles))


def still_weights(cruise=2.0, **kw):
    return LocalCostWeights(cruise_speed=cruise, **kw)


def scored(genes, p_i, p_j, env, w=None):
    """(cost, clean, path) of one gene vector, scored as the planner scores it."""
    costs, clean, path_of = evaluate_paths(np.asarray(genes)[None], p_i, p_j, SPL,
                                           w or still_weights(), env)
    return costs[0], clean[0], path_of(0)


def straight_path(p_i, p_j, env=None, w=None):
    return scored(straight_genes(p_i, p_j, SPL), p_i, p_j, env or open_env(), w)[2]


def length(path):
    return float(np.linalg.norm(np.diff(path.points, axis=0), axis=1).sum())


def coordinate_major(pts):
    """(3, c, S) samples, the layout of the kernels, from (c, S, 3) rows."""
    return np.ascontiguousarray(np.moveaxis(pts, -1, 0))


def fraction(path, env, q=1, padded=False):
    """Colliding fraction of the path's samples and q - 1 checkpoints per segment."""
    return float(lp._violations(coordinate_major(path.points[None]), np.array([q]), env,
                                padded)[0])


def cost_of(path, violation, w):
    """The cost kernel on one unstalled path with the given colliding fraction."""
    costs, _ = lp._costs(float(np.linalg.norm(path.end - path.start)), path.duration,
                         path.surge[None], path.sway[None], path.yaw_rate[None],
                         np.array([False]), violation, w)
    return costs[0]


# --- geometry ---------------------------------------------------------------


def test_collinear_interior_gives_straight_length():
    p_i, p_j = np.array([500.0, 500.0, 50.0]), np.array([3500.0, 2500.0, 250.0])
    path = straight_path(p_i, p_j)
    chord = np.linalg.norm(p_j - p_i)
    assert length(path) == pytest.approx(chord, rel=1e-3)


def test_level_path_has_zero_yaw_and_pitch():
    path = straight_path(np.array([100.0, 100.0, 50.0]), np.array([200.0, 100.0, 50.0]))
    np.testing.assert_allclose(path.yaw, 0.0, atol=1e-12)
    np.testing.assert_allclose(path.pitch, 0.0, atol=1e-12)


def test_vertical_path_pitch_convention():
    # depth decreasing (negative z steps) maps to +pi/2 under atan2(-dz, horiz)
    p_i, p_j = np.array([100.0, 100.0, 150.0]), np.array([100.0, 100.0, 50.0])
    path = straight_path(p_i, p_j)
    np.testing.assert_allclose(path.pitch, math.pi / 2, atol=1e-12)


def test_endpoint_interpolation_random_legs():
    rng = np.random.default_rng(0)
    env = open_env()
    for _ in range(200):
        p_i = rng.uniform([100, 100, 10], [5800, 5800, 900])
        p_j = rng.uniform([100, 100, 10], [5800, 5800, 900])
        lo, hi = corridor_bounds(p_i, p_j, env, SPL)
        path = scored(rng.uniform(lo, hi), p_i, p_j, env)[2]
        assert np.linalg.norm(path.start - p_i) <= 1e-6
        assert np.linalg.norm(path.end - p_j) <= 1e-6


def spline_grid():
    """control_count 4-30 and degree 3-7 at 10 * control_count, 100 and a count
    (control_count - degree) * m + 1 whose samples land on the interior knots."""
    for n in range(4, 31):
        for k in range(3, min(7, n - 1) + 1):
            on_knots = (n - k) * -(-(10 * n - 1) // (n - k)) + 1
            for samples in sorted({10 * n, max(100, 10 * n), on_knots}):
                yield SplineConfig(control_count=n, degree=k, samples=samples)


def test_basis_is_bit_equal_to_the_reference_design_matrix():
    on_knots = rounded_ends = 0
    for config in spline_grid():
        basis = lp.basis_matrix(config)
        ref = np.ascontiguousarray(_reference_basis_matrix(config).T)
        assert basis.flags.c_contiguous and basis.shape == ref.shape, config
        # The first and last samples weight only the pinned endpoints, exactly,
        # so every row of a batch shares its end samples and its chord, and a
        # leg ends on its target station bit for bit.
        ends = np.zeros((config.control_count, 2))
        ends[0, 0] = ends[-1, -1] = 1.0
        assert np.array_equal(basis[:, [0, -1]], ends), config
        # The reference rounds the last weight to 1 - 2**-53 on some configs
        # (control_count - degree == 21); every other entry is bit-equal.
        exact = ref.copy()
        exact[:, [0, -1]] = ends
        off = ref.view(np.int64) != exact.view(np.int64)
        assert np.flatnonzero(off).tolist() in ([], [off.size - 1]), config
        assert ref[-1, -1] in (1.0, np.nextafter(1.0, 0.0)), config
        rounded_ends += bool(off.any())
        assert np.array_equal(basis.view(np.int64), exact.view(np.int64)), config
        knots = np.linspace(0.0, 1.0, config.control_count - config.degree + 1)[1:-1]
        on_knots += np.isin(np.linspace(0.0, 1.0, config.samples), knots).sum()
    assert on_knots > 1000 and rounded_ends > 0


@pytest.mark.parametrize("n, k", [(4, 4), (4, 5), (8, 8)])
def test_degree_must_be_below_control_count(n, k):
    with pytest.raises(ValueError, match="degree must be < control_count"):
        SplineConfig(control_count=n, degree=k, samples=10 * n)
    assert SplineConfig(control_count=n, degree=n - 1, samples=10 * n).degree == n - 1


@pytest.mark.parametrize("field", ["w_surge", "w_sway", "w_yaw", "w_collision"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_cost_weights_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match="weights must be finite and >= 0"):
        LocalCostWeights(**{field: value})
    assert getattr(LocalCostWeights(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["cruise_speed", "surge_max", "sway_max", "yaw_rate_max"])
def test_speeds_and_limits_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        LocalCostWeights(**{field: value})
    assert getattr(LocalCostWeights(**{field: 0.25}), field) == 0.25


@pytest.mark.parametrize("offset", [0.0, math.nan])
def test_zero_length_leg_raises_before_planning(offset):
    p_i = np.array([10.0, 10.0, 10.0])
    p_j = p_i + [offset, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoFeasiblePathError, match="zero-length"):
            plan_local(p_i, p_j, open_env(), still_weights(), SPL,
                       DEConfig(population_size=10, generations=3), rng=np.random.default_rng(0))


# --- kinematics -------------------------------------------------------------


def test_still_water_straight_leg_timing():
    path = straight_path(np.array([1000.0, 1000.0, 100.0]), np.array([2000.0, 1000.0, 100.0]),
                         w=still_weights(cruise=2.0))
    assert path.duration == pytest.approx(500.0, rel=1e-9)
    np.testing.assert_allclose(path.sway, 0.0, atol=1e-12)
    np.testing.assert_allclose(path.surge, 2.0, atol=1e-12)


def test_following_current_shortens_time(monkeypatch):
    env = open_env()
    monkeypatch.setattr(lp, "current_grid",
                        lambda pts, fld: np.tile([1.0, 0.0], (np.atleast_2d(pts).shape[0], 1)))
    p_i, p_j = np.array([1000.0, 1000.0, 100.0]), np.array([2200.0, 1000.0, 100.0])
    cost, _, path = scored(straight_genes(p_i, p_j, SPL), p_i, p_j, env, still_weights(cruise=2.0))
    assert path.duration == pytest.approx(length(path) / 3.0, rel=1e-12)
    assert cost < math.inf  # not stalled


def test_exactly_cancelling_current_stalls(monkeypatch):
    env = open_env()
    monkeypatch.setattr(lp, "current_grid",
                        lambda pts, fld: np.tile([-2.0, 0.0], (np.atleast_2d(pts).shape[0], 1)))
    p_i, p_j = np.array([1000.0, 1000.0, 100.0]), np.array([2000.0, 1000.0, 100.0])
    cost, clean, _ = scored(straight_genes(p_i, p_j, SPL), p_i, p_j, env, still_weights(cruise=2.0))
    assert cost == math.inf and not clean


def test_zero_current_body_frame_consistency_any_path():
    rng = np.random.default_rng(5)
    env = open_env()
    w = still_weights(cruise=1.7)
    for _ in range(20):
        p_i = rng.uniform([200, 200, 50], [5500, 5500, 950])
        p_j = rng.uniform([200, 200, 50], [5500, 5500, 950])
        lo, hi = corridor_bounds(p_i, p_j, env, SPL)
        path = scored(rng.uniform(lo, hi), p_i, p_j, env, w)[2]
        np.testing.assert_allclose(path.surge, w.cruise_speed, atol=1e-9)
        np.testing.assert_allclose(path.sway, 0.0, atol=1e-9)


def test_yaw_rate_matches_central_difference_recompute():
    rng = np.random.default_rng(8)
    env = open_env(vortices=[VortexParams(center=(3000.0, 3000.0), radius=400.0,
                                          strength=900.0)])
    p_i = np.array([1000.0, 1000.0, 100.0])
    p_j = np.array([5000.0, 4000.0, 400.0])
    lo, hi = corridor_bounds(p_i, p_j, env, SPL)
    path = scored(rng.uniform(lo, hi), p_i, p_j, env)[2]
    yaw, t = path.yaw, path.times
    wrap = lambda a: (a + math.pi) % (2 * math.pi) - math.pi
    for k in range(1, len(yaw) - 1):
        expect = wrap(yaw[k + 1] - yaw[k - 1]) / max(t[k + 1] - t[k - 1], 1e-12)
        assert path.yaw_rate[k] == pytest.approx(expect, abs=1e-6)


# --- violations and cost ----------------------------------------------------


def test_clean_path_has_zero_violation():
    env = open_env()
    path = straight_path(np.array([1000.0, 1000.0, 100.0]), np.array([2000.0, 1500.0, 100.0]), env)
    assert fraction(path, env) == 0.0


def test_path_through_obstacle_violates():
    obs = Obstacle(id=1, kind="static", position=(1500.0, 1000.0, 100.0), radius=80.0)
    env = open_env(obstacles=[obs])
    path = straight_path(np.array([1000.0, 1000.0, 100.0]), np.array([2000.0, 1000.0, 100.0]), env)
    assert fraction(path, env) > 0.0


def test_violation_counts_exact_sample_fraction():
    p_i = np.array([1000.0, 1000.0, 100.0])
    p_j = np.array([1990.0, 1000.0, 100.0])
    path = straight_path(p_i, p_j)
    # ball centred on sample 50 sized to cover samples 48..52 and nothing else
    center = path.points[50]
    r_in = np.linalg.norm(path.points[52] - center)
    r_out = np.linalg.norm(path.points[53] - center)
    obs = Obstacle(id=1, kind="static", position=tuple(center),
                   radius=0.5 * (r_in + r_out))
    env = open_env(obstacles=[obs])
    assert fraction(path, env) == pytest.approx(5 / 100)


def test_cost_anchor_is_one_for_straight_still_leg():
    env = open_env()
    w = still_weights(cruise=2.0)
    path = straight_path(np.array([1000.0, 1000.0, 100.0]), np.array([3000.0, 2000.0, 300.0]),
                         env, w)
    assert cost_of(path, fraction(path, env), w) == pytest.approx(1.0, rel=1e-6)


def test_cost_single_colliding_sample_hand_value():
    p_i = np.array([1000.0, 1000.0, 100.0])
    p_j = np.array([1990.0, 1000.0, 100.0])
    obs = Obstacle(id=1, kind="static", position=(1500.0, 1000.0, 100.0), radius=4.0)
    env = open_env(obstacles=[obs])
    w = still_weights(cruise=2.0)
    path = straight_path(p_i, p_j, env, w)
    v = fraction(path, env)
    assert v == pytest.approx(1 / 100)
    assert cost_of(path, v, w) == pytest.approx(2.0, rel=1e-6)


def test_violation_monotone_under_envelope_growth():
    rng = np.random.default_rng(2)
    obs = Obstacle(id=1, kind="mobile", position=(2500.0, 1200.0, 150.0), radius=100.0,
                   motion_sigma=1.0)
    env_small = open_env(obstacles=[obs])
    env_big = open_env(obstacles=[obs.inflated(horizon=500.0, current_mag=1.0, margin=50.0)])
    p_i = np.array([1000.0, 1000.0, 100.0])
    p_j = np.array([4000.0, 1500.0, 200.0])
    lo, hi = corridor_bounds(p_i, p_j, env_small, SPL)
    for _ in range(50):
        path = scored(rng.uniform(lo, hi), p_i, p_j, env_small)[2]
        assert fraction(path, env_big) >= fraction(path, env_small)


def _row(rng, kind, S, X, Y, D, cs):
    """One (S, 3) sample row of the given kind over an X x Y x D box of cell size cs."""
    if kind == "free":  # anywhere, some samples outside the raster and depth range
        return rng.uniform([-0.1 * X, -0.1 * Y, -0.1 * D], [1.1 * X, 1.1 * Y, 1.1 * D], (S, 3))
    if kind == "lattice":  # on cell boundaries, the raster edge, z = 0 and z = D
        pts = np.column_stack([rng.integers(0, 2 * round(X / cs) + 1, S) * (cs / 2),
                               rng.integers(0, 2 * round(Y / cs) + 1, S) * (cs / 2),
                               rng.choice([0.0, D / 2, D], S)])
        return pts
    start = rng.uniform([0, 0, 0], [X, Y, D])
    pts = start + np.cumsum(rng.normal(0.0, 2.0 * cs, (S, 3)) * [1, 1, 0.2], axis=0)
    if kind == "edge":  # along one raster edge or depth bound
        axis, bound = rng.integers(3), rng.integers(2)
        pts[:, axis] = bound * (X, Y, D)[axis]
    return pts


def _sphere_radius(rng, centre, point):
    """An envelope radius putting `point` on the sphere, or one ulp inside or out."""
    d = np.asarray(point) - np.asarray(centre)
    d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    if d2 == 0.0:
        return float(rng.uniform(0.1, 5.0))
    r = math.sqrt(d2)
    near = [np.nextafter(r, 0.0), r, np.nextafter(r, math.inf)]
    exact = [x for x in near if float(x) ** 2 == d2]
    return float(exact[0] if exact and rng.random() < 0.7 else rng.choice(near))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_violations_match_reference_subdivision(seed):
    """The certified-segment kernel gives the subdivide-everything fractions bit for bit."""
    rng = np.random.default_rng(seed)
    w, h = (int(v) for v in rng.integers(9, 41, 2))
    cs = float(rng.choice([0.7, 1.0, 2.5, 10.0]))
    D = float(rng.choice([20.0, 100.0]))
    raster = None
    if rng.random() < 0.5:  # islands and a coast border
        islands, border = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        ext = min(w, h) * cs
        try:
            raster = synthesize_raster(w, h, cs, D, rng, coast_border=border,
                                       islands=islands if islands or border else 1,
                                       island_radius=(0.05 * ext, 0.2 * ext))
        except ScenarioValidationError:  # a sub-cell disc that drew no land (5 in 20,000 seeds)
            pass
    if raster is None:  # scattered single coast cells, many of them next to a tile edge
        values = np.where(rng.random((h, w)) < rng.uniform(0.005, 0.05), 220.0, 40.0)
        values[rng.integers(h), rng.integers(w)] = 220.0
        raster = grid_from(values, cs, D)
    cmap = cluster_map(raster, k=2)
    X, Y = w * cs, h * cs
    c, S = int(rng.integers(1, 9)), int(rng.integers(2, 13))
    kinds = rng.choice(["free", "lattice", "walk", "edge"], c)
    pts = np.stack([_row(rng, kind, S, X, Y, D, cs) for kind in kinds])
    for i, k in zip(*np.nonzero(rng.random((c, S - 1)) < 0.15)):
        pts[i, k + 1] = pts[i, k]  # zero-length segments
    qs = rng.integers(1, 21, c)

    obstacles = []
    for oid in range(int(rng.integers(0, 5))):
        i, k = int(rng.integers(c)), int(rng.integers(S - 1))
        a, b = pts[i, k], pts[i, k + 1]
        q = int(qs[i])
        checkpoint = a + (int(rng.integers(q)) / q) * (b - a)
        how = rng.integers(4)
        if how == 0:  # centre on a sample or checkpoint
            centre = checkpoint
        elif how == 1:  # centre next to the path
            centre = checkpoint + rng.normal(0.0, cs, 3)
        else:  # anywhere, through the checkpoint unless how == 3
            centre = rng.uniform([0, 0, 0], [X, Y, D])
        radius = (_sphere_radius(rng, centre, checkpoint) if how != 3
                  else float(rng.uniform(0.1, 3.0) * cs))
        obstacles.append(Obstacle(id=oid, kind="static", position=tuple(float(v) for v in centre),
                                  radius=radius))
    env = EnvSnapshot(cmap, VortexField(vortices=()), tuple(obstacles))

    for padded in (False, True):
        got = lp._violations(coordinate_major(pts), qs, env, padded)
        want = np.array([reference_violations(pts[i:i + 1], int(qs[i]), env, padded)[0]
                         for i in range(c)])
        assert got.tobytes() == want.tobytes(), (padded, got, want)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("coast, lane", [(8, 7.5), (7, 8.5)])
def test_certificate_sees_dilated_coast_across_a_tile_edge(axis, coast, lane):
    """A lane in the cell next to coast, with the coast in the neighbouring tile."""
    values = np.full((24, 24), 40.0)
    (values[:, coast] if axis == 0 else values[coast, :])[:] = 220.0
    env = EnvSnapshot(cluster_map(grid_from(values, 1.0, 50.0), k=2), VortexField(vortices=()))
    along = np.linspace(2.0, 20.0, 5)
    pts = np.column_stack([np.full(5, lane), along, np.full(5, 10.0)])
    if axis == 1:
        pts[:, [0, 1]] = pts[:, [1, 0]]
    for padded, want in ((True, 1.0), (False, 0.0)):
        got = lp._violations(coordinate_major(pts[None]), np.array([10]), env, padded)
        assert got.tobytes() == reference_violations(pts[None], 10, env, padded).tobytes()
        assert got[0] == want


def test_clear_segments_test_only_samples(monkeypatch):
    """Segments certified clear from their end samples build no interior checkpoints."""
    tested = []

    def counting(points, *args, **kwargs):
        tested.append(len(points))
        return points_in_collision(points, *args, **kwargs)

    obs = Obstacle(id=1, kind="static", position=(3000.0, 3000.0, 100.0), radius=100.0)
    env = open_env(obstacles=[obs])
    clear = straight_path(np.array([1000.0, 1000.0, 100.0]), np.array([2000.0, 1500.0, 100.0]), env)
    blocked = straight_path(np.array([2000.0, 3000.0, 100.0]), np.array([4000.0, 3000.0, 100.0]),
                            env)
    monkeypatch.setattr(lp, "points_in_collision", counting)
    assert fraction(clear, env, q=10, padded=True) == 0.0
    assert tested == [100]
    # a leg through the envelope builds checkpoints on the segments near it only
    tested.clear()
    assert fraction(blocked, env, q=10, padded=True) > 0.0
    assert tested[0] == 100 and 0 < tested[1] < 99 * 9 // 4


# --- planning ---------------------------------------------------------------


def local_cfg(pop=20, gens=40):
    return DEConfig(population_size=pop, generations=gens)


def test_plan_obstacle_free_corridor_is_near_straight():
    env = open_env()
    plan = plan_local(np.array([500.0, 800.0, 100.0]), np.array([4200.0, 2500.0, 300.0]),
                      env, still_weights(), SPL, local_cfg(), rng=np.random.default_rng(0))
    assert plan.cost <= 1.02


def test_plan_detours_around_blocking_obstacle():
    p_i = np.array([1000.0, 2000.0, 150.0])
    p_j = np.array([4000.0, 2000.0, 150.0])
    obs = Obstacle(id=1, kind="static", position=(2500.0, 2000.0, 150.0), radius=300.0)
    env = open_env(obstacles=[obs])
    plan = plan_local(p_i, p_j, env, still_weights(), SPL, local_cfg(pop=24, gens=60),
                      rng=np.random.default_rng(0))
    cost, clean, _ = scored(plan.genes, p_i, p_j, env)
    assert clean and cost == plan.cost
    assert length(plan.path) > np.linalg.norm(p_j - p_i)


def test_plan_exploits_favorable_current():
    # counter-clockwise vortex north of the track pushes +x along the chord
    vortex = VortexParams(center=(2500.0, 2800.0), radius=700.0, strength=2500.0)
    env = open_env(vortices=[vortex])
    p_i = np.array([500.0, 2000.0, 100.0])
    p_j = np.array([4500.0, 2000.0, 100.0])
    w = still_weights(cruise=2.0)
    plan = plan_local(p_i, p_j, env, w, SPL, local_cfg(pop=24, gens=80),
                      rng=np.random.default_rng(0))
    still_time = np.linalg.norm(p_j - p_i) / w.cruise_speed
    assert plan.path.duration < still_time

    # dense one-bend oracle: spline through a bend point on a grid
    mat = []
    for bx in np.arange(1000.0, 4100.0, 250.0):
        for by in np.arange(1200.0, 3300.0, 150.0):
            bend = np.array([bx, by, 100.0])
            left = np.linspace(p_i, bend, 5)[1:]
            right = np.linspace(bend, p_j, 4)[1:-1]
            interior = np.vstack([left, right])
            mat.append(np.concatenate([interior[:, 0], interior[:, 1], interior[:, 2]]))
    costs, clean, _ = evaluate_paths(np.array(mat), p_i, p_j, SPL, w, env)
    assert clean.any()
    assert plan.cost <= costs[clean].min() * 1.02


def test_plan_raises_when_target_engulfed():
    p_j = np.array([3000.0, 3000.0, 150.0])
    obs = Obstacle(id=1, kind="static", position=tuple(p_j), radius=400.0)
    env = open_env(obstacles=[obs])
    with pytest.raises(NoFeasiblePathError):
        plan_local(np.array([1000.0, 1000.0, 100.0]), p_j, env, still_weights(),
                   SPL, local_cfg(pop=10, gens=10), rng=np.random.default_rng(0))


def test_plan_with_a_clean_unbeaten_chord_stops_after_the_window():
    # In still water nothing beats the straight chord, which is clean.
    env = open_env()
    p_i = np.array([500.0, 800.0, 100.0])
    p_j = np.array([4200.0, 2500.0, 300.0])
    chord = straight_genes(p_i, p_j, SPL)
    plan = plan_local(p_i, p_j, env, still_weights(), SPL,
                      DEConfig(population_size=20, generations=40, stall=20),
                      rng=np.random.default_rng(0))
    assert len(plan.trace) == lp.SETTLE_WINDOW + 1 == 6
    assert plan.cost == plan.trace[0] == scored(chord, p_i, p_j, env)[0]
    np.testing.assert_array_equal(plan.genes, chord)
    # Without `stall` the same leg runs every generation.
    full = plan_local(p_i, p_j, env, still_weights(), SPL, local_cfg(gens=40),
                      rng=np.random.default_rng(0))
    assert len(full.trace) == 41 and full.trace[:6] == plan.trace


def test_plan_whose_generation_0_best_is_unclean_runs_past_the_window():
    # The chord grazes an obstacle: with a light collision weight it stays the
    # best of the first generations, but it is not clean, so the window must
    # not end the run on it.
    p_i = np.array([1000.0, 2000.0, 150.0])
    p_j = np.array([4000.0, 2000.0, 150.0])
    obs = Obstacle(id=1, kind="static", position=(2500.0, 2000.0, 150.0), radius=100.0)
    env = open_env(obstacles=[obs])
    w = still_weights(w_collision=1.0)
    chord_cost, chord_clean, _ = scored(straight_genes(p_i, p_j, SPL), p_i, p_j, env, w)
    plan = plan_local(p_i, p_j, env, w, SPL,
                      DEConfig(population_size=24, generations=60, stall=20),
                      rng=np.random.default_rng(0))
    assert not chord_clean
    assert plan.trace[:lp.SETTLE_WINDOW + 1] == [chord_cost] * (lp.SETTLE_WINDOW + 1)
    assert len(plan.trace) > lp.SETTLE_WINDOW + 1
    cost, clean, _ = scored(plan.genes, p_i, p_j, env, w)
    assert clean and cost == plan.cost < chord_cost


def test_replan_without_changes_keeps_cost():
    env = open_env()
    p_i = np.array([500.0, 800.0, 100.0])
    p_j = np.array([4200.0, 2500.0, 300.0])
    w = still_weights()
    first = plan_local(p_i, p_j, env, w, SPL, local_cfg(), rng=np.random.default_rng(0))
    elapsed = first.path.duration * 0.4
    position = first.path.position_at_time(elapsed)
    # cost of the remaining stretch, normalized like the replanner sees it
    second = replan_local(position, p_j, env, w, SPL, local_cfg(), rng=np.random.default_rng(1),
                          previous=first.path, previous_elapsed=elapsed)
    remaining_time = first.path.duration - elapsed
    t_ref = np.linalg.norm(p_j - position) / w.cruise_speed
    assert second.cost <= (remaining_time / t_ref) * 1.01


def test_replan_clears_obstacle_dropped_on_path():
    env = open_env()
    p_i = np.array([500.0, 2000.0, 100.0])
    p_j = np.array([4500.0, 2000.0, 100.0])
    w = still_weights()
    first = plan_local(p_i, p_j, env, w, SPL, local_cfg(), rng=np.random.default_rng(0))
    elapsed = first.path.duration * 0.2
    position = first.path.position_at_time(elapsed)
    obs = Obstacle(id=1, kind="static", position=(2500.0, 2000.0, 100.0), radius=250.0)
    env2 = EnvSnapshot(env.map, env.field, (obs,))
    second = replan_local(position, p_j, env2, w, SPL, local_cfg(), rng=np.random.default_rng(2),
                          previous=first.path, previous_elapsed=elapsed)
    cost, clean, _ = scored(second.genes, position, p_j, env2, w)
    assert clean and cost == second.cost


def test_replan_tracks_drifted_target():
    env = open_env()
    p_i = np.array([500.0, 2000.0, 100.0])
    p_j = np.array([4500.0, 2000.0, 100.0])
    first = plan_local(p_i, p_j, env, still_weights(), SPL, local_cfg(),
                       rng=np.random.default_rng(0))
    drifted = p_j + np.array([35.0, -30.0, 10.0])
    second = replan_local(first.path.position_at_time(100.0), drifted, env,
                          still_weights(), SPL, local_cfg(), rng=np.random.default_rng(3),
                          previous=first.path, previous_elapsed=100.0)
    assert np.linalg.norm(second.path.end - drifted) <= 1e-6


def _batch_case(seed, m, aggregate):
    """Endpoints, weights, world and an (m, genes) matrix; seed None is the pinned case."""
    if seed is None:  # 16 rows, some clean and some not
        rng = np.random.default_rng(14)
        vort = VortexParams(center=(2600.0, 2400.0), radius=500.0, strength=1200.0)
        obs = Obstacle(id=1, kind="static", position=(2000.0, 1800.0, 200.0), radius=150.0)
        env = open_env(vortices=[vort], obstacles=[obs])
        p_i = np.array([800.0, 900.0, 80.0])
        p_j = np.array([4600.0, 3900.0, 500.0])
        w = still_weights(cruise=2.1, aggregate=aggregate)
    else:
        rng = np.random.default_rng(seed)
        vortices = [VortexParams(center=tuple(rng.uniform(0, 6000, 2)),
                                 radius=rng.uniform(100, 600), strength=rng.uniform(-3000, 3000))
                    for _ in range(3)]
        obs = Obstacle(id=1, kind="static",
                       position=tuple(rng.uniform([0, 0, 0], [6000, 6000, 500])),
                       radius=rng.uniform(50, 400))
        env = open_env(vortices=vortices, obstacles=[obs])
        p_i = rng.uniform([100, 100, 10], [5800, 5800, 900])
        p_j = rng.uniform([100, 100, 10], [5800, 5800, 900])
        # tight limits so that every excess term is exercised
        w = still_weights(cruise=rng.uniform(0.5, 2.5), surge_max=rng.uniform(0.5, 3.0),
                          sway_max=rng.uniform(0.0, 0.5), yaw_rate_max=rng.uniform(0.0, 0.05),
                          aggregate=aggregate)
    lo, hi = corridor_bounds(p_i, p_j, env, SPL)
    return p_i, p_j, w, env, rng.uniform(lo, hi, size=(m, 3 * SPL.interior))


def _assert_batch_equals_rows_alone(seed, m, aggregate):
    """Row i of an m-batch equals that row scored alone, bit for bit."""
    p_i, p_j, w, env, mat = _batch_case(seed, m, aggregate)
    costs, clean, path_of = evaluate_paths(mat, p_i, p_j, SPL, w, env)
    if seed is None:
        assert clean.any() and not clean.all()
    for i in range(m):
        cost, alone_clean, path = scored(mat[i], p_i, p_j, env, w)
        assert (costs[i].tobytes(), clean[i]) == (cost.tobytes(), alone_clean)
        for f in dataclasses.fields(LocalPath):
            assert (np.asarray(getattr(path_of(i), f.name)).tobytes()
                    == np.asarray(getattr(path, f.name)).tobytes()), f.name


def test_batch_evaluator_agrees_with_scalar_pipeline():
    """The pinned 16-row batch, some rows clean and some not, agrees row by
    row with each gene vector evaluated on its own (a one-row batch)."""
    for aggregate in ("max", "sum"):
        _assert_batch_equals_rows_alone(None, 16, aggregate)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       aggregate=st.sampled_from(["max", "sum"]))
def test_batched_cost_equals_m1_cost(seed, m, aggregate):
    """Row i of an m-batch equals that row scored alone, bit for bit."""
    _assert_batch_equals_rows_alone(seed, m, aggregate)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 13), share=st.floats(0.0, 1.0))
def test_kinematics_evaluates_each_distinct_partner_sample_once(seed, c, share):
    """Row c - h + i (h = c // 2) reuses the field at samples bit-equal to row i's.

    Each such row copies a random share of its samples from its partner, some
    only in x, and some with x = -0.0 against the partner's +0.0.  The field
    is evaluated once per sample that differs from its partner's in any bit,
    and every output row equals, bit for bit, that row run alone.
    """
    rng = np.random.default_rng(seed)
    vortices = [VortexParams(center=tuple(rng.uniform(0, 3000, 2)), radius=rng.uniform(50, 400),
                             strength=rng.uniform(-2000, 2000))
                for _ in range(int(rng.integers(0, 30)))]
    env = open_env(vortices=vortices)
    w = still_weights(cruise=rng.uniform(0.5, 2.5))
    S = int(rng.integers(3, 40))
    pts = rng.uniform([0, 0, 0], [3000, 3000, 500], size=(c, S, 3))
    h = c // 2
    for i in range(h):
        row, of = pts[c - h + i], pts[i]
        copied = rng.random(S) < share
        row[copied] = of[copied]
        x_only = rng.random(S) < 0.1
        row[x_only, 0] = of[x_only, 0]
        signed = copied & (rng.random(S) < 0.2)
        of[signed, 0], row[signed, 0] = 0.0, -0.0
    pts = coordinate_major(pts)
    diffs = np.diff(pts, axis=2)
    lens = np.sqrt((diffs * diffs).sum(axis=0))
    yaw = lp._pad(np.arctan2(diffs[1], diffs[0]))

    calls, real = [], lp.current_grid
    lp.current_grid = lambda points, fld: calls.append(len(points)) or real(points, fld)
    try:
        batch = lp._kinematics(pts, diffs, lens, yaw, w, env)
    finally:
        lp.current_grid = real
    xy = pts[:2, :, :-1].view(np.int64)
    repeats = (xy[:, c - h:] == xy[:, :h]).all(axis=0)
    assert calls == [c * (S - 1) - int(repeats.sum())]
    for i in range(c):
        alone = lp._kinematics(pts[:, i:i + 1], diffs[:, i:i + 1], lens[i:i + 1], yaw[i:i + 1],
                               w, env)
        for got, want in zip(batch, alone):
            assert np.asarray(got[i]).tobytes() == np.asarray(want[0]).tobytes()


def generation(mutants, rng, dup_share):
    """[mutants; trials]: each trial a bit-for-bit copy of its mutant with
    probability dup_share, else a partial crossover with a fresh row, some of
    whose shared genes are +0.0 in the mutant and -0.0 in the trial."""
    trials = rng.permutation(mutants, axis=0) + rng.normal(0.0, 50.0, mutants.shape)
    for i in range(len(mutants)):
        if rng.random() < dup_share:
            trials[i] = mutants[i]
            continue
        cross = rng.random(mutants.shape[1]) < rng.uniform(0.0, 1.0)
        trials[i] = np.where(cross, mutants[i], trials[i])
        if rng.random() < 0.2:
            g = rng.integers(mutants.shape[1])
            mutants[i, g], trials[i, g] = 0.0, -0.0
    return np.vstack([mutants, trials])


def coincide(genes, p_i, p_j, rng):
    """Genes with a run of four or more coincident control points, so that
    some sampled segments have zero length; the run may hold an endpoint."""
    ctrl = np.vstack([p_i, genes.reshape(3, SPL.interior).T, p_j])
    n = SPL.control_count
    start = int(rng.integers(0, n - 3))
    stop = int(rng.integers(start + 4, n + 1)) - (start == 0)  # never both endpoints
    ctrl[start:stop] = p_i if start == 0 else (p_j if stop == n else ctrl[start])
    return ctrl[1:-1].T.ravel()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 13),
       aggregate=st.sampled_from(["max", "sum"]), dup_share=st.sampled_from([0.0, 0.3, 1.0]),
       cores=st.booleans(), coincident=st.booleans())
def test_evaluator_matches_reference_pipeline(seed, m, aggregate, dup_share, cores, coincident):
    """evaluate_paths equals the (c, S, 3) pipeline it replaced, bit for bit.

    Batches are [mutants; trials] with whole-row duplicates and partial
    crossovers, odd and one-row batches included; some rows have zero-length
    segments, and some vortex cores sit exactly on samples.
    """
    p_i, p_j, w, env, mat = _batch_case(seed, m, aggregate)
    rng = np.random.default_rng([seed, 1])
    h = m // 2
    mat = np.vstack([generation(mat[:h], rng, dup_share), mat[2 * h:]])
    if coincident:
        for r in np.flatnonzero(rng.random(m) < 0.5):
            mat[r] = coincide(mat[r], p_i, p_j, rng)
    if cores:  # every vortex centred on a sample of one of the scored paths
        _, _, path_of = reference_evaluate_paths(mat, p_i, p_j, SPL, w, env)
        centres = [path_of(int(rng.integers(m))).points[int(rng.integers(SPL.samples)), :2]
                   for _ in env.field.vortices]
        field = VortexField(vortices=tuple(dataclasses.replace(v, center=tuple(c))
                                           for v, c in zip(env.field.vortices, centres)))
        env = EnvSnapshot(env.map, field, env.obstacles)

    costs, clean, path_of = evaluate_paths(mat, p_i, p_j, SPL, w, env)
    want_costs, want_clean, want_path = reference_evaluate_paths(mat, p_i, p_j, SPL, w, env)
    assert costs.tobytes() == want_costs.tobytes()
    assert clean.tobytes() == want_clean.tobytes()
    for i in range(m):
        got, want = path_of(i), want_path(i)
        for f in dataclasses.fields(LocalPath):
            assert (np.asarray(getattr(got, f.name)).tobytes()
                    == np.asarray(getattr(want, f.name)).tobytes()), (i, f.name)


def count_points(monkeypatch, mat, p_i, p_j, w, env):
    """(field points, collision points) one evaluate_paths call passes on."""
    seen = {"field": 0, "collision": 0}

    def counting(real, key):
        def wrapped(points, *args, **kwargs):
            seen[key] += len(points)
            return real(points, *args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(lp, "current_grid", counting(lp.current_grid, "field"))
        patch.setattr(lp, "points_in_collision", counting(lp.points_in_collision, "collision"))
        evaluate_paths(mat, p_i, p_j, SPL, w, env)
    return seen["field"], seen["collision"]


@pytest.mark.parametrize("seed", [3, 4])
def test_trial_identical_to_its_mutant_adds_no_field_points(monkeypatch, seed):
    """Points passed on add up over (mutant, trial) pairs, and a pair whose
    trial is its mutant bit for bit passes on only the mutant's field points.
    Its collision points are counted for both rows: every row is scored."""
    p_i, p_j, w, env, mat = _batch_case(seed, 12, "max")
    mat = generation(mat[:6], np.random.default_rng(seed), 0.5)
    dup = (mat[6:].view(np.int64) == mat[:6].view(np.int64)).all(axis=1)
    assert dup.any() and not dup.all()
    pairs = [count_points(monkeypatch, mat[[i, 6 + i]], p_i, p_j, w, env) for i in range(6)]
    assert count_points(monkeypatch, mat, p_i, p_j, w, env) == tuple(np.sum(pairs, axis=0))
    for i in np.flatnonzero(dup):
        assert pairs[i][0] == count_points(monkeypatch, mat[[i]], p_i, p_j, w, env)[0]
