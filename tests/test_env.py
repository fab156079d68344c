import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uuvsim.env as env_module
from uuvsim.env import (ClusteredMap, GridMap, Obstacle, ObstacleColumns, VortexField,
                        VortexParams, cluster_map, current_at, current_grid, load_raster,
                        perturb_field, point_in_collision, points_in_collision,
                        step_obstacles, synthesize_raster)
from uuvsim import seeding
from uuvsim.errors import EmptyRasterError, KTooLargeError, ScenarioValidationError
from uuvsim.scenario import build_map, resolve_scenario
from tests.oracles import (kmeans_objective, reference_cluster_map, reference_current_grid,
                           reference_initial_centers, reference_padded_occupancy,
                           reference_step_obstacles, reference_synthesize_raster)


def grid_from(values, cell_size=1.0, depth=100.0) -> GridMap:
    arr = np.asarray(values, dtype=float)
    return GridMap(width=arr.shape[1], height=arr.shape[0], cell_size=cell_size,
                   values=arr, depth_extent=depth)


def occupancy_map(occupancy, cell_size=1.0, depth=100.0) -> ClusteredMap:
    """A clustered map whose occupancy is given: 1 is coast, 0 water."""
    occ = np.asarray(occupancy, dtype=np.int8)
    return ClusteredMap(grid=GridMap(width=occ.shape[1], height=occ.shape[0],
                                     cell_size=cell_size, values=occ, depth_extent=depth),
                        centers=np.array([0.0, 255.0]), k=2, water_label=0)


def single_vortex(strength=1.0, radius=1.0, center=(0.0, 0.0)) -> VortexField:
    return VortexField(vortices=(VortexParams(center=center, radius=radius,
                                              strength=strength),))


# --- clustering -------------------------------------------------------------


def test_cluster_two_perfect_groups():
    raster = grid_from([[0, 0, 0], [255, 255, 255]])
    cm = cluster_map(raster, k=2)
    assert sorted(cm.centers) == [0.0, 255.0]
    assert set(np.unique(cm.occupancy)) <= {0, 1}
    # low intensity is water by default
    assert cm.occupancy[0, 0] == 0 and cm.occupancy[1, 0] == 1


@pytest.mark.parametrize("height, width", [(0, 3), (3, 0), (0, 0)])
def test_grid_without_cells_is_refused(height, width):
    # The raster refuses to exist, so `cluster_map` never sees an empty one.
    with pytest.raises(EmptyRasterError):
        grid_from(np.zeros((height, width)))


def test_cluster_rejects_k_below_two():
    raster = grid_from([[0, 255]])
    with pytest.raises(KTooLargeError):
        cluster_map(raster, k=1)


def test_cluster_rejects_k_beyond_distinct_values():
    raster = grid_from([[0, 0], [255, 255]])
    with pytest.raises(KTooLargeError):
        cluster_map(raster, k=3)


def paper_raster(seed: int) -> GridMap:
    """The raster `scenario.build_map` clusters for paper_baseline at `seed`."""
    sc = resolve_scenario("paper_baseline")
    return synthesize_raster(sc.map.width, sc.map.height, sc.map.cell_size, sc.field.z,
                             seeding.stream(seed, seeding.ENV, 0), islands=sc.map.islands,
                             island_radius=tuple(sc.map.island_radius),
                             coast_border=sc.map.coast_border)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), water=st.sampled_from(["low", "high"]),
       levels=st.integers(2, 256), shape=st.tuples(st.integers(1, 100), st.integers(1, 100)),
       paper=st.just(False))
@example(seed=42, k=2, water="low", levels=256, shape=(1000, 1000), paper=True)
def test_cluster_map_matches_reference_kmeans(seed, k, water, levels, shape, paper):
    """Labels, centres and objective trace equal the (n, k) argmin k-means bit for bit.

    The objective is computed from `center_trace` by the reference's formula.
    Few evenly spaced intensity levels make many cells tie and put values
    exactly midway between two centres, where the first centre must win;
    up to 256 levels make 8-bit rasters.  `paper` takes the 1000 x 1000
    raster of paper_baseline at `seed` instead.
    """
    rng = np.random.default_rng(seed)
    if paper:
        values = paper_raster(seed).values
    else:
        values = rng.integers(0, levels, size=shape) * rng.choice([1.0, 2.0, 0.5, 10.0])
        if rng.random() < 0.3:  # mass on one level collapses the quantile init
            values[rng.random(shape) < 0.8] = values.flat[0]
    if k > len(np.unique(values)):
        with pytest.raises(KTooLargeError):
            cluster_map(grid_from(values), k=k, water=water)
        return
    labels, centers, trace = reference_cluster_map(grid_from(values), k)
    cm = cluster_map(grid_from(values), k=k, water=water)
    assert kmeans_objective(grid_from(values), cm.center_trace) == trace
    assert np.array_equal(cm.centers.view(np.int64), centers.view(np.int64))
    water_label = int(np.argmin(centers) if water == "low" else np.argmax(centers))
    assert cm.water_label == water_label
    np.testing.assert_array_equal(cm.occupancy,
                                  np.where(labels.reshape(shape) == water_label, 0, 1))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), water=st.sampled_from(["low", "high"]),
       levels=st.integers(2, 256), shape=st.tuples(st.integers(1, 300), st.integers(1, 300)))
def test_cluster_map_of_an_8_bit_raster_equals_its_float64_twin(seed, k, water, levels, shape):
    """The bincount histogram of a uint8 raster is np.unique's of its float64 copy.

    Occupancy bytes, centres, centre trace and water label all equal, and
    so does the refusal of a k above the distinct values.  Up to 300 x 300
    cells take more than one 64k-cell count block; few levels put many
    values at 0 or 255, the ends of the uint8 comparison bound.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(0, levels, size=shape) * (255 // (levels - 1))
    if rng.random() < 0.3:  # mass on one level collapses the quantile init
        values[rng.random(shape) < 0.8] = values.flat[0]
    u8 = replace(grid_from(values), values=values.astype(np.uint8))
    if k > len(np.unique(values)):
        for raster in (u8, grid_from(values)):
            with pytest.raises(KTooLargeError):
                cluster_map(raster, k=k, water=water)
        return
    got, want = cluster_map(u8, k=k, water=water), cluster_map(grid_from(values), k=k, water=water)
    assert got.occupancy.dtype == want.occupancy.dtype == np.int8
    assert got.occupancy.tobytes() == want.occupancy.tobytes()
    assert np.array_equal(got.centers.view(np.int64), want.centers.view(np.int64))
    assert got.center_trace == want.center_trace and got.water_label == want.water_label


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-300, 300).map(float),
                                 st.floats(-1e6, 1e6, allow_nan=False)),
                       min_size=2, max_size=40, unique=True),
       counts=st.lists(st.one_of(st.integers(1, 5), st.integers(1, 200_000)),
                       min_size=40, max_size=40),
       k_draw=st.integers(0, 38))
def test_initial_centers_equal_the_quantiles_of_the_repeated_histogram(values, counts, k_draw):
    # Read from the cumulative counts, the quantiles are np.quantile's linear
    # ones bit for bit, the collapsed-quantile fallback included.
    values = np.unique(values)
    counts = np.array(counts[:values.size])
    k = 2 + k_draw % (values.size - 1)
    got = env_module._initial_centers(values, counts, k)
    want = reference_initial_centers(values, counts, k)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name, seed", [("paper_baseline", 42), ("paper_baseline", 43),
                                        ("paper_baseline", 20180520), ("two_station", 1)])
def test_bundled_worlds_cluster_as_from_the_repeated_histogram(monkeypatch, name, seed):
    sc = resolve_scenario(name)
    trace = build_map(sc, seed).center_trace
    monkeypatch.setattr(env_module, "_initial_centers", reference_initial_centers)
    assert build_map(sc, seed).center_trace == trace


def traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, over one call of `fn`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cluster_map_memory_on_the_paper_raster():
    # The peak is the returned 1 MB occupancy (measured 1.01 MB), plus 0.5 MB
    # of margin: one 64k-cell intp count block.  Any full-raster temporary
    # kept beside it, even a uint8 one, would add 1 MB or more.
    raster = paper_raster(42)
    assert traced_peak(lambda: cluster_map(raster, k=2)) <= 1.5e6


def test_build_map_memory_on_paper_baseline():
    # The 1 MB uint8 raster, its 1 MB land mask and the 1 MB occupancy, one
    # 64-row float draw block (0.5 MB) at a time: measured 2.57 MB.  A float64
    # raster alone would be 8 MB.
    sc = resolve_scenario("paper_baseline")
    assert traced_peak(lambda: build_map(sc, 42)) <= 4e6


def test_cluster_rejects_non_finite_intensities():
    with pytest.raises(ValueError, match="finite"):
        cluster_map(grid_from([[0.0, 255.0], [np.nan, 255.0]]), k=2)


def brute_force_two_means(values: np.ndarray) -> float:
    """Exhaustive threshold sweep: 2-means on scalars reduces to one split.

    SSE per side via sum and sum-of-squares prefix tables over the histogram.
    """
    vals, counts = np.unique(values, return_counts=True)
    n = counts.cumsum()
    s = (vals * counts).cumsum()
    ss = (vals ** 2 * counts).cumsum()
    best = math.inf
    for i in range(len(vals) - 1):
        n1, n2 = n[i], n[-1] - n[i]
        sse = (ss[i] - s[i] ** 2 / n1) + ((ss[-1] - ss[i]) - (s[-1] - s[i]) ** 2 / n2)
        best = min(best, float(sse))
    return best


def test_cluster_matches_threshold_sweep_optimum():
    rng = np.random.default_rng(42)
    raster = synthesize_raster(1000, 1000, 1.0, 100.0, rng, islands=4,
                               island_radius=(50.0, 200.0))
    cm = cluster_map(raster, k=2)
    # The oracle's sums of squares would wrap in the raster's uint8.
    oracle = brute_force_two_means(raster.values.astype(float).ravel())
    assert kmeans_objective(raster, cm.center_trace)[-1] == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 60), height=st.integers(1, 150),
       cell_size=st.sampled_from([0.3, 1.0, 10.0]), islands=st.integers(0, 6),
       radius=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)), border=st.integers(0, 3))
@example(seed=1, width=7, height=64, cell_size=1.0, islands=2, radius=(0.1, 0.4), border=1)
@example(seed=2, width=7, height=65, cell_size=1.0, islands=2, radius=(0.1, 0.4), border=0)
@example(seed=3, width=9, height=128, cell_size=10.0, islands=3, radius=(0.0, 0.3), border=2)
def test_synthesize_raster_matches_full_raster_island_draw(seed, width, height, cell_size,
                                                           islands, radius, border):
    """Intensities and the rng state after equal the whole-raster draw exactly.

    Radii are drawn as fractions of the larger side, so discs range from
    under a cell to over the whole raster, and centres near an edge cut them.
    Heights past 64 rows draw the water in more than one block.
    """
    if not islands and not border:
        islands = 1
    span = max(width, height) * cell_size
    island_radius = (min(radius) * span, max(radius) * span)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    got = synthesize_raster(width, height, cell_size, 50.0, rngs[0], islands=islands,
                            island_radius=island_radius, coast_border=border)
    want = reference_synthesize_raster(width, height, cell_size, 50.0, rngs[1], islands=islands,
                                       island_radius=island_radius, coast_border=border)
    # The reference's clip keeps the -0.0 that rint gives a draw in (-0.5, 0);
    # uint8 holds it as 0, so the intensities compare as numbers.
    assert got.values.dtype == np.uint8
    assert np.array_equal(got.values, want.values)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_cluster_objective_monotone_and_centers_consistent():
    rng = np.random.default_rng(3)
    raster = grid_from(rng.integers(0, 256, size=(60, 80)))
    cm = cluster_map(raster, k=4)
    trace = np.array(kmeans_objective(raster, cm.center_trace))
    assert np.all(np.diff(trace) <= 1e-9)
    # recomputing each centroid from its assigned cells reproduces it
    flat = raster.values.ravel()
    labels = np.argmin(np.abs(flat[:, None] - cm.centers[None, :]), axis=1)
    for i in range(cm.k):
        members = flat[labels == i]
        if members.size:
            assert cm.centers[i] == pytest.approx(members.mean(), abs=1e-9)


def test_padded_occupancy_covers_coast_neighbours():
    raster = grid_from([[0, 0, 0, 0], [0, 255, 0, 0], [0, 0, 0, 0]])
    cm = cluster_map(raster, k=2)
    assert cm.occupancy[1, 1] == 1
    assert cm.padded_occupancy.sum() == 9  # the island plus its 8 neighbours
    assert not point_in_collision((1.5, 0.5), cm) and point_in_collision((1.5, 0.5), cm, padded=True)


@st.composite
def coast_rasters(draw):
    """A 1-12 x 1-12 occupancy raster: random coast, then coast forced onto
    some edges and corners."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = (rng.random((h, w)) < density).astype(np.int8)
    edges = (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1],
             np.s_[0, 0], np.s_[0, -1], np.s_[-1, 0], np.s_[-1, -1])
    for i in draw(st.sets(st.integers(0, len(edges) - 1))):
        occ[edges[i]] = 1
    return occ


@settings(max_examples=300, deadline=None)
@given(occ=coast_rasters())
@example(occ=np.array([[1]], dtype=np.int8))
@example(occ=np.array([[0, 1, 0, 0, 1]], dtype=np.int8))
@example(occ=np.array([[1], [0], [0], [0], [1]], dtype=np.int8))
def test_separable_dilation_equals_the_eight_shift_reference(occ):
    padded = occupancy_map(occ).padded_occupancy
    ref = reference_padded_occupancy(occ)
    assert padded.dtype == ref.dtype == np.int8
    assert np.array_equal(padded, ref)


# --- current field ----------------------------------------------------------


def test_current_zero_at_core():
    s = current_at((0.0, 0.0), single_vortex())
    assert (s.v_cx, s.v_cy) == (0.0, 0.0)


def test_current_hand_value_east_of_core():
    s = current_at((1.0, 0.0), single_vortex())
    assert s.v_cx == pytest.approx(0.0, abs=1e-15)
    assert s.v_cy == pytest.approx((1 - math.exp(-1)) / (2 * math.pi), rel=1e-12)


def test_current_cancels_between_mirrored_vortices():
    fld = VortexField(vortices=(VortexParams(center=(-1.0, 0.0), radius=1.0, strength=1.0),
                                VortexParams(center=(1.0, 0.0), radius=1.0, strength=1.0)))
    s = current_at((0.0, 0.0), fld)
    assert abs(s.v_cx) < 1e-15 and abs(s.v_cy) < 1e-15


def test_current_rotation_symmetry():
    fld = single_vortex(strength=3.0, radius=2.0)
    rng = np.random.default_rng(1)
    r = 5.0
    mags = []
    for theta in rng.uniform(0, 2 * math.pi, size=32):
        s = current_at((r * math.cos(theta), r * math.sin(theta)), fld)
        mags.append(s.magnitude)
    assert np.ptp(mags) < 1e-12


def test_current_far_field_decay():
    strength, radius = 2.5, 3.0
    r = 20 * radius
    s = current_at((r, 0.0), single_vortex(strength, radius))
    assert s.magnitude == pytest.approx(strength / (2 * math.pi * r), rel=0.01)


def test_current_superposition():
    rng = np.random.default_rng(7)
    vortices = tuple(VortexParams(center=(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                                  radius=rng.uniform(0.5, 2.0),
                                  strength=rng.uniform(-3, 3)) for _ in range(5))
    fld = VortexField(vortices=vortices)
    pts = rng.uniform(-6, 6, size=(50, 2))
    total = current_grid(pts, fld)
    parts = sum(current_grid(pts, VortexField(vortices=(v,))) for v in vortices)
    np.testing.assert_allclose(total, parts, atol=1e-12)


def unblocked_current(pts, fld):
    """Reference superposition: one (n, v) pass, exp evaluated for every pair."""
    c = np.array([v.center for v in fld.vortices])
    radii = np.array([v.radius for v in fld.vortices])
    strengths = np.array([v.strength for v in fld.vortices])
    dx = pts[:, 0:1] - c[None, :, 0]
    dy = pts[:, 1:2] - c[None, :, 1]
    r2 = dx * dx + dy * dy
    core = r2 < (1e-9 * radii[None, :]) ** 2
    r2_safe = np.where(core, 1.0, r2)
    coeff = strengths[None, :] / (2.0 * np.pi * r2_safe) * (1.0 - np.exp(-r2_safe / radii[None, :] ** 2))
    coeff = np.where(core, 0.0, coeff)
    return np.column_stack([np.sum(-coeff * dy, axis=1), np.sum(coeff * dx, axis=1)])


def near_boundary_xs(cx: float, ell: float) -> list[float]:
    """x coordinates due east of a centre whose r^2 = (x - cx)^2 steps across 40 ell^2.

    Three on each side of the crossing, one ulp of x apart, in the kernel's
    own arithmetic: r^2 runs from just below to just above 40 ell^2.
    """
    near2 = 40.0 * (ell * ell)
    x = cx + math.sqrt(near2)
    while (x - cx) * (x - cx) >= near2:
        x = math.nextafter(x, -math.inf)
    while (x - cx) * (x - cx) < near2:
        x = math.nextafter(x, math.inf)
    xs = [x]
    for _ in range(3):
        xs.insert(0, math.nextafter(xs[0], -math.inf))
    for _ in range(2):
        xs.append(math.nextafter(xs[-1], math.inf))
    return xs


def bits(a: np.ndarray) -> np.ndarray:
    """Bit patterns, so -0.0 and +0.0 differ and equal NaNs compare equal."""
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), v=st.integers(0, 120), blocks=st.floats(0.0, 2.5))
def test_current_grid_rows_exact(seed, v, blocks):
    """The near-pair split and the blocking change no bit of any row.

    Rows are compared bit for bit with the kernel as it stood before the
    split, with a plain unblocked superposition, and with each point alone.
    n runs up to 2.5 blocks of the vortex count's block size.
    """
    rng = np.random.default_rng(seed)
    vortices = tuple(VortexParams(center=tuple(rng.uniform(0, 5000, 2)),
                                  radius=rng.uniform(50, 400),
                                  strength=rng.uniform(-5000, 5000)) for _ in range(v))
    fld = VortexField(vortices=vortices)
    n = 1 + int(blocks * max(1, env_module._BLOCK_PAIRS // max(v, 1)))
    pts = rng.uniform(-500, 5500, size=(n, 2))
    if v:
        c = np.array([vo.center for vo in vortices])
        ell = np.array([vo.radius for vo in vortices])
        pick = rng.integers(v, size=n)
        angle = rng.uniform(0, 2 * np.pi, n)
        # r / ell spans the core, both sides of sqrt(40), and the far field
        r = ell[pick] * rng.choice([0.0, 1e-12, 0.5, 6.3245, 6.3246, 6.5, 30.0], size=n)
        placed = rng.random(n) < 0.7
        on_rings = c[pick] + r[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        pts[placed] = on_rings[placed]
        # points exactly on a centre, and r^2 one ulp either side of 40 ell^2
        special = [c[j] for j in rng.integers(v, size=3)]
        for j in rng.integers(v, size=2):
            special += [(x, c[j, 1]) for x in near_boundary_xs(c[j, 0], ell[j])]
        pts = np.concatenate([pts, special])[rng.permutation(n + len(special))]
    grid = current_grid(pts, fld)
    np.testing.assert_array_equal(bits(grid), bits(reference_current_grid(pts, fld)))
    if v:
        np.testing.assert_array_equal(bits(grid), bits(unblocked_current(pts, fld)))
    else:
        np.testing.assert_array_equal(bits(grid), bits(np.zeros_like(grid)))
    for i in rng.choice(len(pts), size=min(len(pts), 40), replace=False):
        np.testing.assert_array_equal(bits(grid[i]), bits(current_grid(pts[i:i + 1], fld)[0]))


# --- field perturbation -----------------------------------------------------


def test_perturb_zero_noise_is_identity():
    fld = single_vortex(strength=2.0, radius=3.0, center=(4.0, 5.0))
    fld = VortexField(vortices=fld.vortices, noise_range=(0.0, 0.0))
    out = perturb_field(fld, np.random.default_rng(0))
    assert out.vortices == fld.vortices


def test_perturb_deterministic_under_seed():
    fld = single_vortex(strength=1.0, radius=1.0)
    a = perturb_field(fld, np.random.default_rng(11))
    b = perturb_field(fld, np.random.default_rng(11))
    assert a.vortices == b.vortices


def test_perturb_moments_at_fixed_scale():
    fld = VortexField(vortices=(VortexParams(center=(1.0, 1.0), radius=5.0, strength=1.0),),
                      noise_range=(0.3, 0.3))
    rng = np.random.default_rng(123)
    ratios = np.array([perturb_field(fld, rng).vortices[0].radius / 5.0
                       for _ in range(10_000)])
    assert ratios.mean() == pytest.approx(1.0, abs=0.01)
    assert ratios.std() == pytest.approx(0.3, abs=0.01)
    assert np.all(ratios > 0.0)


# --- obstacles --------------------------------------------------------------


def make_obstacle(kind="mobile", position=(0.0, 0.0, 0.0), radius=5.0, **kw) -> Obstacle:
    return Obstacle(id=1, kind=kind, position=position, radius=radius, **kw)


def stepped(obstacles, fld, dt, rng) -> list[Obstacle]:
    """The obstacles after one column step, as Obstacle values."""
    cols = ObstacleColumns.of(obstacles)
    step_obstacles(cols, fld, dt, rng)
    return cols.rows()


def obstacle_values(obstacles) -> np.ndarray:
    """Every obstacle's position and radii, (n, 5)."""
    return np.array([(*o.position, o.radius, o.envelope_radius) for o in obstacles],
                    dtype=float).reshape(-1, 5)


def test_step_without_forcing_is_identity():
    fld = VortexField(vortices=())
    obstacles = [make_obstacle("static"), make_obstacle("mobile", motion_sigma=0.0),
                 make_obstacle("uncertain", radius_sigma=0.0)]
    out = stepped(obstacles, fld, dt=1.0, rng=np.random.default_rng(0))
    for a, b in zip(obstacles, out):
        assert a.position == b.position and a.radius == b.radius


def test_step_obstacles_matches_per_obstacle_steps():
    """One field call and one draw per step keep every value and the rng order."""
    rng = np.random.default_rng(9)
    fld = VortexField(vortices=tuple(
        VortexParams(center=tuple(rng.uniform(0, 1000, 2)), radius=rng.uniform(50, 200),
                     strength=rng.uniform(-300, 300)) for _ in range(7)))
    kinds = ["mobile", "static", "uncertain", "mobile", "mobile", "uncertain", "static", "mobile"]
    obstacles = [Obstacle(id=i, kind=kind, position=tuple(rng.uniform(0, 1000, 3)), radius=8.0,
                          radius_sigma=1.5 * (i % 2), motion_sigma=0.3 * (i % 3))
                 for i, kind in enumerate(kinds)]
    # a mobile obstacle sitting on a vortex centre drifts by exactly zero
    obstacles.append(Obstacle(id=99, kind="mobile", position=(*fld.vortices[0].center, 5.0),
                              radius=3.0, motion_sigma=0.5))
    got, want = ObstacleColumns.of(obstacles), list(obstacles)
    rng_got, rng_want = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(25):
        step_obstacles(got, fld, 2.0, rng_got)
        want = reference_step_obstacles(want, fld, 2.0, rng_want)
        assert got.rows() == want
    assert rng_got.random() == rng_want.random()


@st.composite
def obstacle_mixes(draw):
    """0-8 obstacles of every kind, sigmas often exactly 0, and a field that may be empty."""
    obstacles = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["static", "uncertain", "mobile"]))
        obstacles.append(Obstacle(
            id=i, kind=kind,
            position=tuple(draw(st.floats(0.0, 1000.0)) for _ in range(3)),
            radius=draw(st.floats(0.5, 50.0)),
            radius_sigma=draw(st.sampled_from([0.0, 0.5, 3.0, 40.0])),
            motion_sigma=draw(st.sampled_from([0.0, 0.1, 0.5]))))
    vortices = tuple(VortexParams(center=(draw(st.floats(0.0, 1000.0)),
                                          draw(st.floats(0.0, 1000.0))),
                                  radius=draw(st.floats(20.0, 300.0)),
                                  strength=draw(st.floats(-500.0, 500.0)))
                     for _ in range(draw(st.integers(0, 4))))  # none: a zero field, no jitter
    return obstacles, VortexField(vortices=vortices)


@settings(max_examples=150, deadline=None)
@given(mix=obstacle_mixes(), dts=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_column_step_is_bit_equal_to_per_obstacle_steps(mix, dts, seed):
    # Short dts stand for a path's truncated last tick.
    obstacles, fld = mix
    got = ObstacleColumns.of(obstacles)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    for dt in dts:
        step_obstacles(got, fld, dt, rng_got)
        obstacles = reference_step_obstacles(obstacles, fld, dt, rng_want)
        np.testing.assert_array_equal(bits(obstacle_values(got.rows())),
                                      bits(obstacle_values(obstacles)))
        # The step leaves the speeds at the stepped positions, for the hazard test.
        assert got.speed == [current_at(o.position[:2], fld).magnitude if o.kind == "mobile"
                             else 0.0 for o in obstacles]
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_columns_track_a_new_field_once(monkeypatch):
    cols = ObstacleColumns.of([make_obstacle("mobile", position=(30.0, 0.0, 5.0)),
                               make_obstacle("static", position=(0.0, 40.0, 5.0))])
    fld, other = single_vortex(strength=50.0, radius=10.0), single_vortex(strength=-20.0)
    speeds = [current_at((30.0, 0.0), f).magnitude for f in (fld, other)]
    calls = []

    def counting(points, f):
        calls.append(len(points))
        return current_grid(points, f)

    monkeypatch.setattr(env_module, "current_grid", counting)
    cols.track(fld)
    cols.track(fld)
    assert calls == [1] and cols.speed == [speeds[0], 0.0]
    cols.track(other)
    assert calls == [1, 1] and cols.speed == [speeds[1], 0.0]


def test_static_obstacle_never_moves():
    fld = single_vortex(strength=50.0, radius=10.0)
    obs = make_obstacle("static", position=(3.0, 0.0, 0.0))
    out = stepped([obs], fld, dt=100.0, rng=np.random.default_rng(0))[0]
    assert out.position == obs.position and out.radius == obs.radius


def test_mobile_obstacle_rides_the_current():
    # A distant strong vortex approximates a uniform stream at the obstacle.
    fld = single_vortex(strength=10_000.0, radius=1.0, center=(0.0, -500.0))
    obs = make_obstacle("mobile", position=(0.0, 0.0, 10.0), motion_sigma=0.0)
    cur = current_at((0.0, 0.0), fld)
    out = stepped([obs], fld, dt=10.0, rng=np.random.default_rng(0))[0]
    assert out.position[0] == pytest.approx(10.0 * cur.v_cx, abs=1e-9)
    assert out.position[1] == pytest.approx(10.0 * cur.v_cy, abs=1e-9)
    assert out.position[2] == 10.0


@pytest.mark.parametrize("dt", [0.25, 4.0])
def test_mobile_jitter_is_brownian_per_second(dt):
    # One step of dt moves a mobile obstacle by v * dt + scale * sqrt(dt) * z bit for
    # bit, scale being motion_sigma * |v_c| and z the stream's next two normals.
    fld = single_vortex(strength=10_000.0, radius=1.0, center=(0.0, -500.0))
    obs = make_obstacle("mobile", position=(3.0, 4.0, 10.0), motion_sigma=0.5)
    cur = current_at((3.0, 4.0), fld)
    scale = 0.5 * cur.magnitude
    zx, zy = np.random.default_rng(11).standard_normal(2).tolist()
    out = stepped([obs], fld, dt=dt, rng=np.random.default_rng(11))[0]
    assert out.position == (3.0 + cur.v_cx * dt + scale * math.sqrt(dt) * zx,
                            4.0 + cur.v_cy * dt + scale * math.sqrt(dt) * zy, 10.0)


def test_uncertain_obstacle_resamples_radius_positive():
    cols = ObstacleColumns.of([make_obstacle("uncertain", radius=5.0, radius_sigma=4.0)])
    rng = np.random.default_rng(5)
    radii = []
    for _ in range(500):
        step_obstacles(cols, VortexField(vortices=()), 1.0, rng)
        radii.append(cols.radius[0])
    assert all(r > 0 for r in radii)
    assert np.std(radii) == pytest.approx(4.0, rel=0.2)


def test_envelope_grows_with_horizon():
    obs = make_obstacle("mobile", motion_sigma=2.0)
    short = obs.inflated(horizon=10.0, current_mag=0.5)
    long = obs.inflated(horizon=100.0, current_mag=0.5)
    assert obs.radius < short.envelope_radius < long.envelope_radius
    assert long.envelope_radius == pytest.approx(obs.radius + 2.05 * 2.0 * 0.5 * 100.0)


# --- collision tests --------------------------------------------------------


def water_map(n=10, cell=1.0, depth=100.0) -> ClusteredMap:
    values = np.zeros((n, n))
    values[0, 0] = 255  # one coast cell so clustering is well posed
    return cluster_map(grid_from(values, cell, depth), k=2)


def test_open_water_clear():
    cmap = water_map()
    assert not point_in_collision((5.0, 5.0, 10.0), cmap)


def test_coast_cell_collides():
    cmap = water_map()
    assert point_in_collision((0.5, 0.5, 0.0), cmap)


def test_obstacle_center_and_boundary_collide():
    cmap = water_map()
    obs = make_obstacle(position=(5.0, 5.0, 10.0), radius=2.0)
    cols = ObstacleColumns.of([obs])
    for point, hit in [((5.0, 5.0, 10.0), True), ((7.0, 5.0, 10.0), True),  # on the ball
                       ((7.0 + 1e-9, 5.0, 10.0), False)]:
        assert cols.contains(*point) == points_in_collision(np.array([point]), cmap, [obs])[0]
        assert cols.contains(*point) == hit


def test_out_of_bounds_is_conservatively_hit():
    cmap = water_map()
    assert point_in_collision((-1.0, 5.0, 0.0), cmap)
    assert point_in_collision((5.0, 5.0, 1000.0), cmap)


def test_collision_monotone_in_envelope():
    cmap = water_map(n=50, cell=1.0)
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.uniform(2, 48, 200), rng.uniform(2, 48, 200),
                           rng.uniform(0, 90, 200)])
    obs = make_obstacle(position=(25.0, 25.0, 40.0), radius=4.0)
    small = points_in_collision(pts, cmap, [obs])
    grown = points_in_collision(pts, cmap, [obs.inflated(horizon=100.0, current_mag=1.0,
                                                         margin=5.0)])
    assert np.all(grown[small])  # growing an envelope never clears a hit


def test_point_in_collision_matches_vector_form():
    """The scalar point rule, then the obstacle columns' balls, agree with
    points_in_collision point for point: the executor's tick test."""
    rng = np.random.default_rng(21)
    values = np.where(rng.random((40, 60)) < 0.1, 255.0, 0.0)
    cmap = cluster_map(grid_from(values, cell_size=2.5, depth=80.0), k=2)
    X, Y, D = 150.0, 100.0, 80.0
    obstacles = [Obstacle(id=i, kind="static", position=tuple(rng.uniform([0, 0, 0], [X, Y, D])),
                          radius=float(rng.uniform(1.0, 20.0))) for i in range(6)]
    pts = [rng.uniform([-10, -10, -10], [X + 10, Y + 10, D + 10], (20_000, 3))]
    for obs in obstacles:  # sphere surfaces, one ulp either side
        u = rng.normal(size=(1_000, 3))
        on = np.asarray(obs.position) + obs.envelope_radius * u / np.linalg.norm(u, axis=1)[:, None]
        pts += [on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)]
    edges = [0.0, -0.0, np.nextafter(0.0, -1.0), 2.5, X, np.nextafter(X, 0.0), Y,
             np.nextafter(Y, 0.0), D, np.nextafter(D, np.inf), 1e300, -1e300,
             np.nan, np.inf, -np.inf, 40.0]
    pts.append(np.array(np.meshgrid(edges, edges, edges)).reshape(3, -1).T)
    pts = np.vstack(pts)
    for padded in (False, True):
        with np.errstate(invalid="ignore", over="ignore"):
            want = points_in_collision(pts, cmap, obstacles, padded=padded)
        cols = ObstacleColumns.of(obstacles)
        got = [point_in_collision(p, cmap, padded=padded) or cols.contains(*p.tolist())
               for p in pts]
        assert got == want.tolist()
        assert want[~np.isfinite(pts).all(axis=1)].all()
        assert point_in_collision((5.0, 5.0), cmap, padded=padded) == points_in_collision(
            np.array([[5.0, 5.0]]), cmap, padded=padded)[0]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coast_free_is_sound_at_tile_resolution(seed):
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(2, 40, 2))
    values = np.where(rng.random((h, w)) < rng.uniform(0.0, 0.05), 255.0, 0.0)
    values[0, 0], values[-1, -1] = 255.0, 0.0
    cmap = cluster_map(grid_from(values), k=2)
    r0, r1 = np.sort(rng.integers(0, h, (2, 200)), axis=0)
    c0, c1 = np.sort(rng.integers(0, w, (2, 200)), axis=0)
    free = cmap.coast_free(r0, r1, c0, c1)
    coast = cmap.occupancy == 1
    for i in range(200):
        assert free[i] == (not coast[r0[i] // 8 * 8:(r1[i] // 8 + 1) * 8,
                                     c0[i] // 8 * 8:(c1[i] // 8 + 1) * 8].any())


def test_load_raster_round_trip(tmp_path):
    rows = ["0 0 255 0", "0 255 255 0", "0 0 0 0"]
    path = tmp_path / "coast.grid"
    path.write_text("\n".join(rows) + "\n")
    raster = load_raster(path, cell_size=5.0, depth_extent=50.0)
    assert raster.width == 4 and raster.height == 3
    cm = cluster_map(raster, k=2)
    assert cm.occupancy[0, 2] == 1 and cm.occupancy[2, 0] == 0
    # One row and one column keep their orientation.
    for text, shape in [("0 255 0\n", (1, 3)), ("0\n255\n0\n", (3, 1))]:
        path.write_text(text)
        raster = load_raster(path, cell_size=5.0, depth_extent=50.0)
        assert (raster.height, raster.width) == shape
        np.testing.assert_array_equal(raster.values.ravel(), [0.0, 255.0, 0.0])
    # Anything but equal rows of finite integers is refused, naming the file.
    for text, message in [("", "no intensities"), ("\n\n", "no intensities"),
                          ("0 0 255 0\n0 255\n0 0 0 0\n", "the number of columns changed"),
                          ("0 land 255\n", "could not convert string 'land'"),
                          ("0 nan 255\n", "intensities must be finite integers"),
                          ("0 inf 255\n", "intensities must be finite integers"),
                          ("0 127.5 255\n", "intensities must be finite integers")]:
        path.write_text(text)
        with pytest.raises(ScenarioValidationError, match=re.escape(f"raster {path}: {message}")):
            load_raster(path, cell_size=5.0, depth_extent=50.0)
