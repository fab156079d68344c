from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uuvsim.de import DEConfig, init_population, optimize, propose, survive


def small_config(**kw):
    return DEConfig(**{"population_size": 20, "generations": 10, **kw})


def box(n, lo=0.0, hi=1.0):
    """The box [lo, hi]^n as (lower, upper)."""
    return np.full(n, lo), np.full(n, hi)


def sphere_eval(mat):
    return np.sum(mat * mat, axis=1)


class ScriptedRng:
    """Stands in for the generator: hands out the given draws in the order
    `propose` asks for them (trio order, pair order, weights, forced gene,
    crossover uniforms)."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        out = np.asarray(self.draws.pop(0), dtype=float)
        assert out.shape == size
        return out

    def integers(self, high, size):
        out = np.asarray(self.draws.pop(0))
        assert out.shape == (size,) and np.all(out < high)
        return out


def reference_generation(genes, config, lower, upper, rng):
    """One generation row by row, with the same draws as `propose`."""
    pop_n, n = genes.shape
    trio = np.argsort(rng.random((pop_n, pop_n)), axis=1)[:, :3]
    pair = np.argsort(rng.random((pop_n, pop_n)), axis=1)[:, :2]
    lam = rng.random((pop_n, 3))
    while np.any(lam.sum(axis=1) == 0.0):
        bad = lam.sum(axis=1) == 0.0
        lam[bad] = rng.random((int(bad.sum()), 3))
    forced = rng.integers(n, size=pop_n)
    uniforms = rng.random((pop_n, n))
    mutants, trials = np.empty_like(genes), np.empty_like(genes)
    for p in range(pop_n):
        w = lam[p] / lam[p].sum()
        donor = w[0] * genes[trio[p, 0]] + w[1] * genes[trio[p, 1]] + w[2] * genes[trio[p, 2]]
        mutant = donor + config.scale * (genes[pair[p, 0]] - genes[pair[p, 1]])
        mutants[p] = np.minimum(np.maximum(mutant, lower), upper)
        take = uniforms[p] <= config.crossover_rate
        take[forced[p]] = True
        trials[p] = np.where(take, mutants[p], genes[p])
    return mutants, trials


# --- config and box ---------------------------------------------------------


def rejected_box(lower, upper):
    """`optimize` on the box, which it must refuse before evaluating anything."""
    def evaluate(mat):
        raise AssertionError("evaluated a population over a rejected box")

    optimize(evaluate, small_config(), lower, upper, np.random.default_rng(0))


def test_optimize_rejects_non_finite_and_inverted_bounds():
    with pytest.raises(ValueError, match="finite"):
        rejected_box([0.0, np.nan], [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        rejected_box([0.0, 0.0], [1.0, np.inf])
    with pytest.raises(ValueError, match="exceeds"):
        rejected_box([0.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("stall", [0, -1, 2.5, True])
def test_config_rejects_stall_other_than_a_positive_integer(stall):
    with pytest.raises(ValueError, match="stall"):
        small_config(stall=stall)


# --- init -------------------------------------------------------------------


def test_init_degenerate_bounds_collapse():
    genes, costs = init_population(sphere_eval, small_config(), *box(5, lo=0.0, hi=0.0),
                                   np.random.default_rng(0))
    assert np.all(genes == 0.0) and np.all(costs == 0.0)


def test_init_deterministic_under_seed():
    cfg = small_config()
    a, _ = init_population(sphere_eval, cfg, *box(4), np.random.default_rng(9))
    b, _ = init_population(sphere_eval, cfg, *box(4), np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_init_uniform_mean():
    cfg = DEConfig(population_size=100, generations=1)
    genes, _ = init_population(sphere_eval, cfg, *box(100), np.random.default_rng(2))
    assert genes.mean() == pytest.approx(0.5, abs=0.01)  # 10^4 genes pooled


# --- one generation: propose ------------------------------------------------


def test_donor_is_convex_combination():
    # Three members, so every trio is the whole population; scale 0 makes
    # the mutant the donor, and the wide box never clips it.
    pop = np.array([[0.0], [3.0], [6.0]])
    cfg = small_config(scale=0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        mutants, _ = propose(pop, cfg, *box(1, lo=-100.0, hi=100.0), rng)
        assert np.all((mutants >= 0.0) & (mutants <= 6.0))


def test_donor_of_identical_members():
    pop = np.tile([2.5, -1.0], (5, 1))
    mutants, trials = propose(pop, DEConfig(scale=0.7), *box(2, lo=-10.0, hi=10.0),
                              np.random.default_rng(3))
    np.testing.assert_allclose(mutants, pop)
    np.testing.assert_allclose(trials, pop)


def trio_first_draws(pop_n, n, lam, pair_order=None):
    """Draws under which every row's trio is members (0, 1, 2), its pair the
    first two of `pair_order`, its weights `lam`, and its trial the mutant's
    gene 0 with the parent's others."""
    first = np.tile(np.arange(1.0, pop_n + 1.0), (pop_n, 1))
    pair = first if pair_order is None else np.tile(pair_order, (pop_n, 1))
    return (first, pair, np.tile(lam, (pop_n, 1)), np.zeros(pop_n, dtype=int),
            np.ones((pop_n, n)))


def test_donor_equal_weights_hand_value():
    # lambda = (1, 1, 1) gives the plain average: (0 + 3 + 6) / 3 = 3, and
    # scale 0 leaves the donor as the mutant.
    pop = np.array([[0.0], [3.0], [6.0]])
    mutants, trials = propose(pop, small_config(scale=0.0), *box(1, lo=-100.0, hi=100.0),
                              ScriptedRng(*trio_first_draws(3, 1, [1.0, 1.0, 1.0])))
    np.testing.assert_allclose(mutants, 3.0)
    np.testing.assert_array_equal(trials, mutants)  # the forced gene is the only gene


def test_mutate_identities_and_hand_value():
    # Donor member 0 = (1, 1); pair (1, 2) gives the difference (2, 0) - (0, 2).
    pop = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])

    def mutants_at(scale):
        draws = trio_first_draws(3, 2, [1.0, 0.0, 0.0], pair_order=[3.0, 1.0, 2.0])
        return propose(pop, small_config(scale=scale), *box(2, lo=-10.0, hi=10.0),
                       ScriptedRng(*draws))[0]

    np.testing.assert_array_equal(mutants_at(0.0), np.tile([1.0, 1.0], (3, 1)))
    np.testing.assert_array_equal(mutants_at(0.5), np.tile([2.0, 0.0], (3, 1)))


def test_mutate_clamps_to_bounds():
    rng = np.random.default_rng(4)
    pop = rng.random((12, 3))
    mutants, trials = propose(pop, small_config(scale=2.0), *box(3), rng)
    assert np.all((mutants >= 0.0) & (mutants <= 1.0))
    assert np.all((trials >= 0.0) & (trials <= 1.0))
    assert np.any((mutants == 0.0) | (mutants == 1.0))  # the clip did act


def test_mutate_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        rejected_box(np.zeros(2), np.ones(3))


def test_crossover_extremes():
    rng = np.random.default_rng(0)
    pop = rng.random((8, 6))
    wide = box(6, lo=-10.0, hi=10.0)
    mutants, trials = propose(pop, small_config(crossover_rate=1.0), *wide, rng)
    np.testing.assert_array_equal(trials, mutants)
    mutants, trials = propose(pop, small_config(crossover_rate=0.0), *wide,
                              np.random.default_rng(1))
    assert np.all((trials == pop) | (trials == mutants))
    # only the forced index comes from the mutant
    np.testing.assert_array_equal(np.sum(trials != pop, axis=1), 1)


def test_crossover_mutant_fraction():
    rng = np.random.default_rng(42)
    pop = rng.random((100, 4))
    cfg, wide = small_config(crossover_rate=0.5), box(4, lo=-10.0, hi=10.0)
    frac = np.mean([np.mean(propose(pop, cfg, *wide, rng)[1] != pop) for _ in range(100)])
    # C_r + (1 - C_r)/n with the forced-index correction
    assert frac == pytest.approx(0.5 + 0.5 / 4, abs=0.02)


def test_propose_matches_numpy_reference():
    # n >= 2 as in both planners: for a single gene numpy's einsum adds the
    # three donor terms in another order, so the last bit may differ.
    rng = np.random.default_rng(8)
    for seed in range(40):
        pop_n, n = int(rng.integers(3, 40)), int(rng.integers(2, 60))
        lo = rng.uniform(-5.0, 0.0, n)
        cfg = DEConfig(scale=float(rng.uniform(0.0, 2.0)), crossover_rate=float(rng.random()))
        hi = lo + rng.uniform(0.0, 5.0, n)
        pop = lo + rng.random((pop_n, n)) * (hi - lo)
        mutants, trials = propose(pop, cfg, lo, hi, np.random.default_rng(seed))
        ref_mutants, ref_trials = reference_generation(pop, cfg, lo, hi,
                                                       np.random.default_rng(seed))
        np.testing.assert_array_equal(mutants, ref_mutants)
        np.testing.assert_array_equal(trials, ref_trials)


# --- one generation: survive ------------------------------------------------


def test_select_three_way_and_ties():
    costs = {"p": [1.0, 3.0, 1.0, 1.0, 2.0],
             "m": [2.0, 2.0, 1.0, 1.0, 1.0],
             "t": [3.0, 1.0, 1.0, 2.0, 1.0]}
    # Each source's genes name it: parent 0, mutant 1, trial 2.
    source = {0.0: "p", 1.0: "m", 2.0: "t"}
    rows = {k: (np.full((5, 1), float(i)), np.array(c)) for i, (k, c) in enumerate(costs.items())}
    genes, new_costs = survive(rows["p"], rows["m"], rows["t"])
    # min cost wins; ties prefer the trial, then the mutant
    assert [source[g] for g in genes[:, 0]] == ["p", "t", "t", "m", "t"]
    np.testing.assert_array_equal(new_costs, [1.0, 1.0, 1.0, 1.0, 1.0])


# --- optimize ---------------------------------------------------------------


def test_optimize_sphere_benchmark():
    cfg = DEConfig(population_size=30, generations=200)
    result = optimize(sphere_eval, cfg, *box(10, lo=-5.0, hi=5.0), np.random.default_rng(5))
    assert result.best.cost < 1e-3
    # random search with the same evaluation budget does strictly worse
    rng = np.random.default_rng(5)
    samples = rng.uniform(-5, 5, size=(result.evaluations, 10))
    assert np.min(np.sum(samples ** 2, axis=1)) > result.best.cost


def test_optimize_single_generation_runs_once():
    cfg = small_config(generations=1)
    result = optimize(sphere_eval, cfg, *box(3), np.random.default_rng(1))
    assert len(result.trace) == 2  # after init plus one generation
    assert result.evaluations == cfg.population_size * 3


def test_optimize_constant_cost_flat_trace():
    result = optimize(lambda mat: np.full(mat.shape[0], 7.0), small_config(generations=20),
                      *box(3), np.random.default_rng(1))
    assert result.best.cost == 7.0
    assert set(result.trace) == {7.0}


def test_optimize_deterministic_and_elitist():
    cfg, square = DEConfig(population_size=12, generations=60), box(6, lo=-2.0, hi=2.0)

    def rastrigin(mat):
        return 10 * mat.shape[1] + np.sum(mat ** 2 - 10 * np.cos(2 * np.pi * mat), axis=1)

    a = optimize(rastrigin, cfg, *square, np.random.default_rng(33))
    b = optimize(rastrigin, cfg, *square, np.random.default_rng(33))
    assert a.trace == b.trace
    np.testing.assert_array_equal(a.best.genes, b.best.genes)
    assert np.all(np.diff(a.trace) <= 0.0 + 1e-15)


def test_optimize_respects_bounds_always():
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.0])
    cfg = DEConfig(population_size=10, generations=30)
    seen = []

    def spy(mat):
        seen.append(mat.copy())
        return np.sum(mat, axis=1)

    optimize(spy, cfg, lo, hi, np.random.default_rng(2))
    allpts = np.vstack(seen)
    assert np.all(allpts >= lo - 1e-12) and np.all(allpts <= hi + 1e-12)


def test_optimize_seed_genes_take_effect():
    cfg = small_config(generations=1, population_size=6)
    seed_vec = np.array([0.25, 0.5, 0.75])
    seen = []

    def spy(mat):
        seen.append(mat.copy())
        return np.sum(mat, axis=1)

    optimize(spy, cfg, *box(3), np.random.default_rng(1), seed_genes=[seed_vec])
    np.testing.assert_allclose(seen[0][0], seed_vec)


@st.composite
def de_problems(draw):
    n = draw(st.integers(1, 6))
    lo = np.array(draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.sampled_from([0.0, 1e-3, 1.0, 25.0]),
                                   min_size=n, max_size=n)))  # 0 pins a gene
    cfg = DEConfig(population_size=draw(st.integers(4, 12)), generations=draw(st.integers(1, 6)),
                   scale=draw(st.floats(0.0, 2.0)), crossover_rate=draw(st.floats(0.0, 1.0)))
    seeds = [lo + np.array(draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
             for _ in range(draw(st.integers(0, 3)))]  # mostly outside the box
    return cfg, (lo, lo + width), seeds, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(problem=de_problems())
def test_optimize_stays_in_bounds_with_monotone_trace(problem):
    cfg, (lo, hi), seeds, seed = problem
    seen = []

    def evaluate(mat):
        seen.append(mat.copy())
        return np.sum(np.sin(3.0 * mat) + 0.01 * mat * mat, axis=1)

    result = optimize(evaluate, cfg, lo, hi, np.random.default_rng(seed), seed_genes=seeds)
    rows = np.vstack(seen)
    assert np.all((rows >= lo) & (rows <= hi))
    assert np.all(np.diff(result.trace) <= 0.0)
    assert result.evaluations == rows.shape[0] == cfg.population_size * (1 + 2 * cfg.generations)
    # The best is a row that was evaluated, at the cost it was given.
    best_at = np.flatnonzero(np.all(rows == result.best.genes, axis=1))
    assert best_at.size and evaluate(rows[best_at[:1]])[0] == result.best.cost

    again = optimize(evaluate, cfg, lo, hi, np.random.default_rng(seed), seed_genes=seeds)
    assert again.trace == result.trace and again.evaluations == result.evaluations
    assert again.best.cost == result.best.cost
    np.testing.assert_array_equal(again.best.genes, result.best.genes)


@st.composite
def stall_problems(draw):
    n = draw(st.integers(1, 4))
    lo = np.array(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=n, max_size=n)))
    cfg = DEConfig(population_size=draw(st.integers(4, 10)),
                   generations=draw(st.integers(1, 40)),
                   scale=draw(st.floats(0.0, 2.0)), crossover_rate=draw(st.floats(0.0, 1.0)))
    # A coarse cost quantum makes long plateaus, so runs do stall.
    quantum = draw(st.sampled_from([0.0, 0.01, 0.3]))
    return cfg, (lo, lo + width), draw(st.integers(1, 12)), quantum, draw(st.integers(0, 2**32 - 1))


def plateau_run(config, bounds, quantum, seed, stop=None):
    """`optimize` on a quantized cost; returns the result and every matrix evaluated."""
    seen = []

    def evaluate(mat):
        seen.append(mat.copy())
        costs = np.sum(np.sin(3.0 * mat) + 0.01 * mat * mat, axis=1)
        return np.floor(costs / quantum) * quantum if quantum else costs

    return optimize(evaluate, config, *bounds, np.random.default_rng(seed), stop=stop), seen


@settings(max_examples=100, deadline=None)
@given(problem=stall_problems())
def test_stall_stops_a_run_as_a_prefix_of_the_full_run(problem):
    cfg, bounds, stall, quantum, seed = problem

    def run(config):
        return plateau_run(config, bounds, quantum, seed)

    full, full_seen = run(cfg)
    stopped, stopped_seen = run(replace(cfg, stall=stall))
    ran = len(stopped.trace) - 1
    pop_n = cfg.population_size

    # A prefix of the full run: the same trace and the same matrices evaluated.
    assert 1 <= ran <= cfg.generations
    assert stopped.trace == full.trace[:ran + 1]
    assert len(stopped_seen) == ran + 1
    assert all(np.array_equal(a, b) for a, b in zip(stopped_seen, full_seen))
    assert stopped.evaluations == pop_n + 2 * pop_n * ran

    # It stops exactly after `stall` generations in a row with no strict improvement.
    flat = 0
    for g in range(1, ran + 1):
        flat = 0 if stopped.trace[g] < stopped.trace[g - 1] else flat + 1
        assert flat < stall or g == ran
    assert flat == stall or (ran == cfg.generations and flat <= stall)

    # Its best is the full run's best after as many generations.
    short, _ = run(replace(cfg, generations=ran))
    assert short.trace == stopped.trace and short.best.cost == stopped.best.cost
    np.testing.assert_array_equal(short.best.genes, stopped.best.genes)

    # stall=None runs every generation, as a stall that cannot be reached does.
    assert len(full.trace) == cfg.generations + 1
    assert full.evaluations == pop_n * (1 + 2 * cfg.generations)
    never, _ = run(replace(cfg, stall=cfg.generations + 1))
    assert never.trace == full.trace and never.evaluations == full.evaluations
    np.testing.assert_array_equal(never.best.genes, full.best.genes)


@settings(max_examples=100, deadline=None)
@given(problem=stall_problems(), window=st.integers(1, 12), settled=st.booleans())
def test_stop_predicate_stops_a_run_as_a_prefix_of_the_full_run(problem, window, settled):
    cfg, bounds, _, quantum, seed = problem
    calls = []

    def stop(trace):
        # The local planner's shape of rule when `settled`, a plain count otherwise.
        calls.append(list(trace))
        return len(trace) > window and (not settled or trace[-1] == trace[0])

    def run(config, stop=None):
        return plateau_run(config, bounds, quantum, seed, stop)

    full, full_seen = run(cfg)
    stopped, stopped_seen = run(cfg, stop)
    ran = len(stopped.trace) - 1

    # A prefix of the full run: the same trace and the same matrices evaluated.
    assert 1 <= ran <= cfg.generations
    assert stopped.trace == full.trace[:ran + 1]
    assert len(stopped_seen) == ran + 1
    assert all(np.array_equal(a, b) for a, b in zip(stopped_seen, full_seen))
    assert stopped.evaluations == cfg.population_size * (1 + 2 * ran)

    # The predicate saw the trace after each generation and the run ended at
    # the first generation where it held.
    assert calls == [full.trace[:g + 1] for g in range(1, ran + 1)]
    assert all(not stop(full.trace[:g + 1]) for g in range(1, ran))
    assert stop(stopped.trace) or ran == cfg.generations

    # Its best is the full run's best after as many generations.
    short, _ = run(replace(cfg, generations=ran))
    assert short.trace == stopped.trace and short.best.cost == stopped.best.cost
    np.testing.assert_array_equal(short.best.genes, stopped.best.genes)
