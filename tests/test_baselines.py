"""Reference schedulers: distribution checks, counting oracles, GA behavior."""

import time
from collections import Counter

import numpy as np
import pytest

from hoplite.baselines import (
    GaConfig,
    _crossover,
    _mutate,
    pattern_ga,
    pattern_greedy,
    pattern_periodic,
    pattern_random,
)
from hoplite.scoring import score_bruteforce
from hoplite.geometry import grid_from_points
from hoplite.channel import build_link_budget

from conftest import build_ctx


def test_random_uniform_marginals():
    rng = np.random.default_rng(0)
    counts = Counter()
    draws = 100_000
    for _ in range(draws):
        counts.update(pattern_random(5, 2, rng))
    for cell in range(5):
        assert counts[cell] / draws == pytest.approx(2 / 5, abs=0.01)


def test_random_full_set_and_validity():
    rng = np.random.default_rng(1)
    assert pattern_random(4, 4, rng) == (0, 1, 2, 3)
    for _ in range(100):
        p = pattern_random(37, 9, rng)
        assert len(set(p)) == 9 and all(0 <= c < 37 for c in p)
    with pytest.raises(ValueError):
        pattern_random(3, 4, rng)


def test_periodic_round_robin_counts():
    counts = Counter()
    for slot in range(37):
        pattern = pattern_periodic(37, 9, slot)
        assert len(set(pattern)) == 9
        counts.update(pattern)
    # 37 slots x 9 beams = 333 = 9 x 37: a full super-period is exactly fair.
    assert all(counts[c] == 9 for c in range(37))


def test_periodic_first_slots():
    assert pattern_periodic(37, 9, 0) == tuple(range(9))
    assert pattern_periodic(37, 9, 1) == tuple(range(9, 18))


def test_periodic_covers_everything_quickly():
    seen = set()
    for slot in range(-(-37 // 9)):  # ceil(N/K) slots
        seen.update(pattern_periodic(37, 9, slot))
    assert seen == set(range(37))


def test_greedy_matches_sort_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        totals = rng.integers(0, 1000, 37)
        got = pattern_greedy(totals, 9)
        oracle = sorted(sorted(range(37), key=lambda i: (-totals[i], i))[:9])
        assert list(got) == oracle


def test_greedy_one_hot_and_ties():
    totals = np.zeros(37)
    totals[13] = 5
    assert pattern_greedy(totals, 1) == (13,)
    assert pattern_greedy(np.full(37, 7.0), 9) == tuple(range(9))


def test_greedy_ties_go_to_the_lower_id():
    totals = np.array([5, 9, 5, 9, 5, 1, 9])
    assert pattern_greedy(totals, 2) == (1, 3)
    assert pattern_greedy(totals, 4) == (0, 1, 3, 6)
    assert pattern_greedy(totals, 5) == (0, 1, 2, 3, 6)


def test_greedy_float_and_list_input_match_sort_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        totals = np.round(rng.uniform(0, 50, 37), 1)  # rounding makes ties
        oracle = sorted(sorted(range(37), key=lambda i: (-totals[i], i))[:9])
        assert pattern_greedy(totals, 9) == tuple(oracle)
        assert pattern_greedy(totals.tolist(), 9) == tuple(oracle)
    got = pattern_greedy([0.5, 2.25, 2.25, 1.0], 2)
    assert got == (1, 2) and all(type(c) is int for c in got)
    assert pattern_greedy(np.array([0, 3, 2], dtype=np.uint8), 1) == (1,)  # no wrap-around


def test_greedy_rejects_more_beams_than_cells():
    with pytest.raises(ValueError):
        pattern_greedy([1, 2, 3], 4)
    with pytest.raises(ValueError):
        pattern_greedy(np.zeros(37), 38)


def test_greedy_fast_at_127():
    rng = np.random.default_rng(3)
    totals = rng.integers(0, 100_000, 127)
    best = min(
        _timed(lambda: pattern_greedy(totals, 31)) for _ in range(20)
    )
    assert best < 0.010  # seconds


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- genetic algorithm ------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_ctx(params):
    d = 500.0
    grid = grid_from_points(
        [0.0, d, 2 * d, 0.5 * d, 1.5 * d], [0.0, 0.0, 0.0, d, d], cell_diameter=d
    )
    budget = build_link_budget(grid, params)
    totals = np.array([900.0, 50.0, 800.0, 10.0, 400.0])
    return build_ctx(grid, budget, params, totals, beams=2)


def test_ga_finds_toy_optimum(tiny_ctx):
    from itertools import combinations

    best = max(
        combinations(range(5), 2), key=lambda p: score_bruteforce(p, tiny_ctx, 2)
    )
    cfg = GaConfig(population_size=40, generations=1, rng_seed=0)
    assert pattern_ga(tiny_ctx, tiny_ctx.queue_totals, 2, cfg) == best


def test_ga_deterministic_and_valid(ctx37):
    cfg = GaConfig(population_size=30, generations=4, rng_seed=9)
    a = pattern_ga(ctx37, ctx37.queue_totals, 9, cfg)
    b = pattern_ga(ctx37, ctx37.queue_totals, 9, cfg)
    assert a == b
    assert len(set(a)) == 9 and all(0 <= c < 37 for c in a)


def test_ga_elitism_monotone_in_generations(ctx37):
    # Same seed means longer runs share the shorter runs' history, so the
    # best-ever fitness cannot decrease with more generations.
    scores = []
    for gens in (1, 3, 6):
        cfg = GaConfig(population_size=25, generations=gens, rng_seed=4)
        pattern = pattern_ga(ctx37, ctx37.queue_totals, 9, cfg)
        scores.append(score_bruteforce(pattern, ctx37, 9))
    assert scores == sorted(scores)


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        GaConfig(scorer="quantum")


def test_crossover_preserves_cardinality_and_membership():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = tuple(sorted(rng.choice(20, 6, replace=False)))
        b = tuple(sorted(rng.choice(20, 6, replace=False)))
        child = _crossover(a, b, 6, rng)
        assert len(set(child)) == 6
        assert set(child) <= set(a) | set(b)
        assert set(a) & set(b) <= set(child)


def test_mutate_swaps_at_most_one_member():
    rng = np.random.default_rng(6)
    ind = (0, 3, 5)
    for _ in range(100):
        out = _mutate(ind, 10, rng)
        assert len(set(out)) == 3
        assert len(set(ind) - set(out)) <= 1
    assert _mutate((0, 1, 2), 3, rng) == (0, 1, 2)  # nowhere to go
