"""Reference schedulers: random, round-robin, greedy-by-backlog, genetic.

All of them emit a K-cell illumination pattern for one slot. The greedy
scheduler doubles as the low-latency online planner in the orchestrator, so
it ranks with one numpy lexsort (backlog descending, then cell id) rather
than a Python sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scoring import ScoreContext, score_bruteforce, score_sliding_window, with_queue_totals


def pattern_random(n_cells: int, beams: int, rng) -> tuple:
    """Uniform K-subset of the cells."""
    if beams > n_cells:
        raise ValueError(f"cannot place {beams} beams on {n_cells} cells")
    draw = rng.choice(n_cells, size=beams, replace=False)
    return tuple(sorted(int(c) for c in draw))


def pattern_periodic(n_cells: int, beams: int, slot_index: int) -> tuple:
    """Round-robin coverage: K consecutive cells, advancing K per slot."""
    if beams > n_cells:
        raise ValueError(f"cannot place {beams} beams on {n_cells} cells")
    return tuple((slot_index * beams + m) % n_cells for m in range(beams))


def pattern_greedy(queue_totals, beams: int) -> tuple:
    """The K cells with the largest backlogs, ties to the lower cell id."""
    totals = np.asarray(queue_totals)
    if totals.dtype.kind not in "if":  # negate only in a signed or float dtype
        totals = totals.astype(float)
    n_cells = len(totals)
    if beams > n_cells:
        raise ValueError(f"cannot place {beams} beams on {n_cells} cells")
    ranked = np.lexsort((np.arange(n_cells), -totals))
    # Python sorts the K ids as fast, without paging in numpy's sort kernels.
    return tuple(sorted(ranked[:beams].tolist()))


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 500
    generations: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    rng_seed: int = 0
    scorer: str = "bruteforce"

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.scorer not in ("bruteforce", "sliding"):
            raise ValueError(f"unknown scorer {self.scorer!r}")


def _tournament(population, fitness, rng) -> tuple:
    i, j = rng.integers(0, len(population), size=2)
    return population[i] if fitness[i] >= fitness[j] else population[j]


def _crossover(a: tuple, b: tuple, beams: int, rng) -> tuple:
    """Set-mix: keep the shared cells, fill the rest from either parent."""
    shared = set(a) & set(b)
    pool = sorted(set(a) ^ set(b))
    need = beams - len(shared)
    if need:
        picks = rng.choice(len(pool), size=need, replace=False)
        shared.update(pool[i] for i in picks)
    return tuple(sorted(shared))


def _mutate(ind: tuple, n_cells: int, rng) -> tuple:
    members = list(ind)
    outside = sorted(set(range(n_cells)) - set(ind))
    if not outside:
        return ind
    members[rng.integers(len(members))] = outside[rng.integers(len(outside))]
    return tuple(sorted(members))


def pattern_ga(ctx: ScoreContext, queue_totals, beams: int, cfg: GaConfig) -> tuple:
    """Evolve K-subsets under the pattern score; returns the best ever seen.

    Binary-tournament parents, set-mix crossover repaired to cardinality K,
    member-swap mutation. Deterministic under cfg.rng_seed, and the running
    best is monotone in the generation count for a fixed seed.
    """
    n_cells = ctx.grid.n_cells
    if beams > n_cells:
        raise ValueError(f"cannot place {beams} beams on {n_cells} cells")
    ctx = with_queue_totals(ctx, queue_totals)
    score = score_bruteforce if cfg.scorer == "bruteforce" else score_sliding_window
    rng = np.random.default_rng(cfg.rng_seed)

    population = [pattern_random(n_cells, beams, rng) for _ in range(cfg.population_size)]
    fitness = [score(ind, ctx, beams) for ind in population]
    best_idx = int(np.argmax(fitness))
    best_fit, best_ind = fitness[best_idx], population[best_idx]

    for _ in range(cfg.generations):
        offspring = []
        for _ in range(cfg.population_size):
            parent_a = _tournament(population, fitness, rng)
            parent_b = _tournament(population, fitness, rng)
            child = (
                _crossover(parent_a, parent_b, beams, rng)
                if rng.random() < cfg.crossover_rate
                else parent_a
            )
            if rng.random() < cfg.mutation_rate:
                child = _mutate(child, n_cells, rng)
            offspring.append(child)
        population = offspring
        fitness = [score(ind, ctx, beams) for ind in population]
        gen_idx = int(np.argmax(fitness))
        if fitness[gen_idx] > best_fit:
            best_fit, best_ind = fitness[gen_idx], population[gen_idx]
    return best_ind
