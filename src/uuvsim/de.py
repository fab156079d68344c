"""Differential Evolution over bounded real vectors, shared by both planners.

One generation is `propose` then `survive`.  `propose` builds each donor as a
random convex combination of three population members, perturbs it with a
scaled difference of two further members, clips it to the box, and applies
binomial crossover against the parent.  `survive` keeps the best of {parent,
mutant, trial} row by row (ties prefer newer material).  All random draws for
a generation happen in `propose`, before any cost evaluation, so evaluation
order can never change the result.

The box (`lower`, `upper`) belongs to the problem, so it is an argument of
`optimize` and its operators; `DEConfig` holds only the search settings.
`optimize` runs the configured generations, or stops early once `stall`
generations in a row have not strictly improved the best, or once the
caller's `stop` predicate holds after a generation.  Since each generation
draws before it evaluates, a stopped run is an exact prefix of the full run
on the same generator: the same populations, trace and best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass
class DEConfig:
    population_size: int = 50
    generations: int = 200
    scale: float = 0.7          # difference-vector amplification, in [0, 2]
    crossover_rate: float = 0.9
    stall: int | None = None    # stop after this many generations without a new best

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.scale <= 2.0:
            raise ValueError("scale must be in [0, 2]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        # `type(...) is int` turns away bools and whole floats.
        if self.stall is not None and not (type(self.stall) is int and self.stall >= 1):
            raise ValueError("stall must be None or an integer >= 1")


@dataclass
class Individual:
    genes: np.ndarray
    cost: float


@dataclass
class DEResult:
    best: Individual
    trace: list[float]           # best-so-far cost after init and each generation run
    evaluations: int = 0


Evaluator = Callable[[np.ndarray], np.ndarray]
# One row per population member: (genes (P, n), costs (P,)).
Generation = tuple[np.ndarray, np.ndarray]


def init_population(evaluate: Evaluator, config: DEConfig, lower: np.ndarray,
                    upper: np.ndarray, rng: np.random.Generator,
                    seed_genes: Sequence[np.ndarray] = ()) -> Generation:
    """Uniform population over the box [lower, upper], costs evaluated.

    `seed_genes` overwrite the first members after the uniform draw (used for
    warm starts); the rng consumption is identical either way.
    """
    genes = lower + rng.random((config.population_size, lower.shape[0])) * (upper - lower)
    for i, sg in enumerate(seed_genes):
        if i >= config.population_size:
            break
        genes[i] = np.clip(np.asarray(sg, dtype=float), lower, upper)
    return genes, evaluate(genes)


def propose(genes: np.ndarray, config: DEConfig, lower: np.ndarray, upper: np.ndarray,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One generation's (mutants, trials) for a (P, n) population.

    Row p's donor is a convex combination of three distinct members with
    U(0,1) weights; its mutant adds `scale` times the difference of two
    distinct members and is clipped to the box; its trial takes one forced
    gene, and each other gene with probability `crossover_rate`, from the
    mutant and the rest from the parent.
    """
    pop_n, n = genes.shape
    # Draw everything for the generation up front (fixed stream order).
    trio = np.argsort(rng.random((pop_n, pop_n)), axis=1)[:, :3]
    pair = np.argsort(rng.random((pop_n, pop_n)), axis=1)[:, :2]
    lam = rng.random((pop_n, 3))
    while np.any(lam.sum(axis=1) == 0.0):
        bad = lam.sum(axis=1) == 0.0
        lam[bad] = rng.random((int(bad.sum()), 3))
    forced = rng.integers(n, size=pop_n)
    cross = rng.random((pop_n, n)) <= config.crossover_rate
    cross[np.arange(pop_n), forced] = True

    w = lam / lam.sum(axis=1, keepdims=True)
    donors = np.einsum("pk,pkn->pn", w, genes[trio])
    mutants = donors + config.scale * (genes[pair[:, 0]] - genes[pair[:, 1]])
    np.clip(mutants, lower, upper, out=mutants)
    trials = np.where(cross, mutants, genes)
    return mutants, trials


def survive(parents: Generation, mutants: Generation, trials: Generation) -> Generation:
    """Row-wise minimum-cost survivor of the three; ties prefer trial, then mutant."""
    genes, costs = parents
    m_genes, m_costs = mutants
    t_genes, t_costs = trials
    t_wins = (t_costs <= m_costs) & (t_costs <= costs)
    m_wins = ~t_wins & (m_costs <= costs)
    new_genes = np.where(t_wins[:, None], t_genes, np.where(m_wins[:, None], m_genes, genes))
    new_costs = np.where(t_wins, t_costs, np.where(m_wins, m_costs, costs))
    return new_genes, new_costs


def optimize(evaluate: Evaluator, config: DEConfig, lower: np.ndarray, upper: np.ndarray,
             rng: np.random.Generator,
             seed_genes: Sequence[np.ndarray] = (),
             stop: Callable[[list[float]], bool] | None = None) -> DEResult:
    """Run the configured generations over [lower, upper]; return the best-ever individual.

    `evaluate` maps a (m, n) gene matrix to its (m,) costs.  The box must be
    finite, with `lower <= upper` and both of one shape (ValueError).  With
    `config.stall` set, the run ends after the generation that makes
    `stall` in a row without a strictly lower best.  With `stop` given, it
    also ends after a generation once `stop(trace)` is true, where `trace`
    holds the best cost after init and after each generation so far.  The
    returned trace ends where the run did.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise ValueError("bounds length mismatch")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("bounds must be finite")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    pop_n = config.population_size

    genes, costs = init_population(evaluate, config, lower, upper, rng, seed_genes)
    evaluations = pop_n

    best_i = int(np.argmin(costs))
    best = Individual(genes[best_i].copy(), float(costs[best_i]))
    trace = [best.cost]
    stalled = 0

    for _ in range(config.generations):
        mutants, trials = propose(genes, config, lower, upper, rng)
        cand_costs = evaluate(np.vstack([mutants, trials]))
        evaluations += 2 * pop_n
        genes, costs = survive((genes, costs), (mutants, cand_costs[:pop_n]),
                               (trials, cand_costs[pop_n:]))

        gen_best = int(np.argmin(costs))
        if costs[gen_best] < best.cost:
            best = Individual(genes[gen_best].copy(), float(costs[gen_best]))
            stalled = 0
        else:
            stalled += 1
        trace.append(best.cost)
        if stalled == config.stall or (stop is not None and stop(trace)):
            break

    return DEResult(best=best, trace=trace, evaluations=evaluations)
