"""Differential Evolution over bounded real vectors, shared by both planners.

The variant implemented here builds a donor as a random convex combination of
three population members, perturbs it with a scaled difference of two further
members, applies binomial crossover against the parent, and keeps the best of
{parent, mutant, trial} (ties prefer newer material).  All random draws for a
generation happen before any cost evaluation, so evaluation order can never
change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import LengthMismatchError


@dataclass
class DEConfig:
    population_size: int = 50
    generations: int = 200
    scale: float = 0.7          # difference-vector amplification, in [0, 2]
    crossover_rate: float = 0.9
    seed: int = 0
    lower: np.ndarray | None = None  # per-gene bounds
    upper: np.ndarray | None = None

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.scale <= 2.0:
            raise ValueError("scale must be in [0, 2]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.lower is not None:
            self.lower = np.asarray(self.lower, dtype=float)
            self.upper = np.asarray(self.upper, dtype=float)
            if self.lower.shape != self.upper.shape:
                raise LengthMismatchError("bounds length mismatch")
            if np.any(self.lower > self.upper):
                raise ValueError("lower bound exceeds upper bound")


@dataclass
class Individual:
    genes: np.ndarray
    cost: float
    aux: Any = None


@dataclass
class DEResult:
    best: Individual
    trace: list[float]           # best-so-far cost after init and each generation
    evaluations: int = 0


Evaluator = Callable[[np.ndarray], tuple[np.ndarray, list]]


def _make_evaluator(cost_fn, decode_hook=None, batch: bool = False) -> Evaluator:
    """Normalize the user callable to batch form: (m, n) -> (costs, auxes)."""
    if batch:
        return cost_fn

    def evaluate(mat: np.ndarray) -> tuple[np.ndarray, list]:
        costs = np.empty(mat.shape[0])
        auxes: list = [None] * mat.shape[0]
        for i, genes in enumerate(mat):
            if decode_hook is not None:
                aux = decode_hook(genes)
                auxes[i] = aux
                costs[i] = cost_fn(aux)
            else:
                costs[i] = cost_fn(genes)
        return costs, auxes

    return evaluate


def init_population(evaluate: Evaluator, config: DEConfig, rng: np.random.Generator,
                    seed_genes: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, np.ndarray, list]:
    """Uniform population over the bounded box, costs evaluated.

    `seed_genes` overwrite the first members after the uniform draw (used for
    warm starts); the rng consumption is identical either way.
    """
    n = config.lower.shape[0]
    genes = config.lower + rng.random((config.population_size, n)) * (config.upper - config.lower)
    for i, sg in enumerate(seed_genes):
        if i >= config.population_size:
            break
        genes[i] = np.clip(np.asarray(sg, dtype=float), config.lower, config.upper)
    costs, auxes = evaluate(genes)
    return genes, costs, auxes


def make_donor(population: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Convex combination of three distinct members with U(0,1) weights."""
    if population.shape[0] < 3:
        raise ValueError("population must have >= 3 members")
    idx = rng.choice(population.shape[0], size=3, replace=False)
    lam = rng.random(3)
    while lam.sum() == 0.0:  # degenerate draw: retry
        lam = rng.random(3)
    w = lam / lam.sum()
    return w @ population[idx]


def mutate(base: np.ndarray, a: np.ndarray, b: np.ndarray, scale: float,
           lower: np.ndarray | None = None, upper: np.ndarray | None = None) -> np.ndarray:
    """base + scale * (a - b), clamped to bounds when given."""
    if len(base) != len(a) or len(a) != len(b):
        raise LengthMismatchError("mutation operands differ in length")
    out = np.asarray(base, dtype=float) + scale * (np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if lower is not None:
        out = np.clip(out, lower, upper)
    return out


def crossover(parent: np.ndarray, mutant: np.ndarray, crossover_rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover: one forced mutant gene, others taken with prob C_r."""
    if len(parent) != len(mutant):
        raise LengthMismatchError("crossover operands differ in length")
    n = len(parent)
    k = int(rng.integers(n))
    mask = rng.random(n) <= crossover_rate
    mask[k] = True
    return np.where(mask, mutant, parent)


def select(parent: Individual, mutant: Individual, trial: Individual) -> Individual:
    """Minimum-cost survivor of the three; ties prefer trial, then mutant."""
    if trial.cost <= mutant.cost and trial.cost <= parent.cost:
        return trial
    if mutant.cost <= parent.cost:
        return mutant
    return parent


def optimize(cost_fn, config: DEConfig, decode_hook=None, rng: np.random.Generator | None = None,
             seed_genes: Sequence[np.ndarray] = (), batch: bool = False) -> DEResult:
    """Run the configured number of generations and return the best-ever individual.

    `cost_fn` is either per-candidate (optionally after `decode_hook`) or, with
    ``batch=True``, a callable mapping a (m, n) gene matrix to (costs, auxes).
    """
    if config.lower is None or config.upper is None:
        raise ValueError("config bounds are required")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    evaluate = _make_evaluator(cost_fn, decode_hook, batch)
    pop_n = config.population_size
    n = config.lower.shape[0]

    genes, costs, auxes = init_population(evaluate, config, rng, seed_genes)
    evaluations = pop_n

    best_i = int(np.argmin(costs))
    best = Individual(genes[best_i].copy(), float(costs[best_i]), auxes[best_i])
    trace = [best.cost]

    for _ in range(config.generations):
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
        np.clip(mutants, config.lower, config.upper, out=mutants)
        trials = np.where(cross, mutants, genes)

        cand = np.vstack([mutants, trials])
        cand_costs, cand_auxes = evaluate(cand)
        evaluations += cand.shape[0]
        m_costs, t_costs = cand_costs[:pop_n], cand_costs[pop_n:]

        t_wins = (t_costs <= m_costs) & (t_costs <= costs)
        m_wins = ~t_wins & (m_costs <= costs)
        new_genes = np.where(t_wins[:, None], trials, np.where(m_wins[:, None], mutants, genes))
        new_costs = np.where(t_wins, t_costs, np.where(m_wins, m_costs, costs))
        new_auxes = [cand_auxes[pop_n + i] if t_wins[i] else (cand_auxes[i] if m_wins[i] else auxes[i])
                     for i in range(pop_n)]
        genes, costs, auxes = new_genes, new_costs, new_auxes

        gen_best = int(np.argmin(costs))
        if costs[gen_best] < best.cost:
            best = Individual(genes[gen_best].copy(), float(costs[gen_best]), auxes[gen_best])
        trace.append(best.cost)

    return DEResult(best=best, trace=trace, evaluations=evaluations)
