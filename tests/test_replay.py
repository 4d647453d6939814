"""The fused closed-loop replay kernel against the per-slot public steps.

The oracle is the loop the kernel replaced: each slot's pattern, then the
capacities, then the validated ``advance_slot``. The oracle computes the
capacities with its own copy of the original ``pattern_capacities``
arithmetic, so the kernel is checked against code it does not share. Plans,
per-slot served bits, drops and the final backlog must agree bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

import hoplite.harness as harness
from hoplite.baselines import pattern_random
from hoplite.channel import build_link_budget, pattern_capacities
from hoplite.geometry import generate_grid
from hoplite.harness import ExperimentConfig
from hoplite.mcts import MctsConfig, compute_pattern_mcts
from hoplite.orchestrator import PlannerSettings, plan_bhtp, simulate_bhtp
from hoplite.scoring import make_score_context, omega_max_for
from hoplite.traffic import advance_slot, generate_clustered_demand, make_queue_state, replay

SLOT_S = 0.1


def sorted_greedy(totals, beams):
    """The greedy rule as a Python sort: largest backlog first, ties to lower id."""
    ranked = sorted(range(len(totals)), key=lambda i: (-totals[i], i))
    return tuple(sorted(ranked[:beams]))


def oracle_capacities(pattern, budget, params, n_cells):
    """``pattern_capacities`` as first written: an ``np.ix_`` block copy,
    ``fill_diagonal``, column sums, ``log2``."""
    caps = np.zeros(n_cells, dtype=float)
    if len(pattern) == 0:
        return caps
    served = np.array(sorted(int(c) for c in pattern), dtype=np.intp)
    sub = budget.gain2[np.ix_(served, served)].copy()
    own = np.diag(sub).copy()
    np.fill_diagonal(sub, 0.0)
    p = params.beam_power_w
    s = p * own / (budget.noise_power_w + p * sub.sum(axis=0))
    caps[served] = params.bandwidth_hz * np.log2(1.0 + s)
    return caps


def oracle_replay(state, choose, slots, budget, params, rng=None, expected_beams=None):
    plan, bits, drops = [], [], []
    for slot in range(slots):
        pattern = choose(state.totals(), slot)
        plan.append(tuple(pattern))
        caps = oracle_capacities(pattern, budget, params, state.n_cells)
        out = advance_slot(state, pattern, caps, SLOT_S, rng=rng, expected_beams=expected_beams)
        bits.append(float(out.served_bits.sum()))
        drops.append(int(out.dropped_packets.sum()))
        state = out.queue_after
    return tuple(plan), bits, drops, int(state.totals().sum())


@pytest.fixture(scope="module", params=[3, 6, 10], ids=["n37", "n127", "n331"])
def system(request, params):
    grid = generate_grid(request.param)
    return grid, build_link_budget(grid, params), params


def overload_rates(grid, budget, params, seed, load=1.3):
    """Clustered demand at ``load`` times what the quarter-rule beams can serve."""
    beams = grid.n_cells // 4
    c0 = omega_max_for(budget, params, 1, SLOT_S) / (1500 * 8.0)
    base = generate_clustered_demand(grid, 1.0, min(12, grid.n_cells), 6.0, seed)
    return base * (load * beams * c0 / base.sum())


def test_pattern_capacities_equal_the_original_arithmetic(system):
    grid, budget, params = system
    n = grid.n_cells
    rng = np.random.default_rng(n)
    patterns = [(), (0,), tuple(range(n)), tuple(range(n - 1, -1, -1))]
    patterns += [pattern_random(n, k, rng) for k in (1, 2, n // 4, n // 2) for _ in range(10)]
    for pattern in patterns:
        got = pattern_capacities(pattern, budget, params, n)
        assert np.array_equal(got, oracle_capacities(pattern, budget, params, n))


def assert_same_as_oracle(state, choose, slots, budget, params, **kwargs):
    got = replay(state, choose, slots, budget, params, SLOT_S, **kwargs)
    want = oracle_replay(state, choose, slots, budget, params, **kwargs)
    assert (got.plan, got.served_bits, got.dropped_packets, got.final_backlog) == want
    for bits in got.served_bits:
        assert type(bits) is float
    return got


@pytest.mark.parametrize("ttl", [1, 2, 20])
@pytest.mark.parametrize("horizon", [1, 30])
def test_greedy_replay_matches_oracle(system, ttl, horizon):
    grid, budget, params = system
    beams = grid.n_cells // 4
    state = make_queue_state(grid.n_cells, overload_rates(grid, budget, params, ttl),
                             ttl=ttl)
    got = assert_same_as_oracle(
        state, lambda totals, slot: sorted_greedy(totals, beams), horizon, budget, params,
        expected_beams=beams,
    )
    if horizon == 30 and ttl < 20:
        assert sum(got.dropped_packets) > 0  # the TTL path is exercised


@pytest.mark.parametrize("rates", ["zero", "round_to_zero", "tied"])
def test_degenerate_demand_matches_oracle(system, rates):
    grid, budget, params = system
    n, beams = grid.n_cells, grid.n_cells // 4
    value = {"zero": 0.0, "round_to_zero": 0.4, "tied": 3000.0}[rates]
    state = make_queue_state(n, np.full(n, value), ttl=5)
    got = assert_same_as_oracle(
        state, lambda totals, slot: sorted_greedy(totals, beams), 30, budget, params
    )
    if rates != "tied":
        assert got.served_bits == [0.0] * 30 and got.final_backlog == 0


def test_poisson_arrivals_match_oracle_and_rng_state(system):
    grid, budget, params = system
    beams = grid.n_cells // 4
    state = make_queue_state(grid.n_cells, overload_rates(grid, budget, params, 4), ttl=3)
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    choose = lambda totals, slot: sorted_greedy(totals, beams)  # noqa: E731
    got = replay(state, choose, 30, budget, params, SLOT_S, rng=ours)
    want = oracle_replay(state, choose, 30, budget, params, rng=theirs)
    assert (got.plan, got.served_bits, got.dropped_packets, got.final_backlog) == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_replay_leaves_the_start_state_alone(system):
    grid, budget, params = system
    state = make_queue_state(grid.n_cells, 50.0, initial_packets=np.arange(grid.n_cells))
    before = state.age_buckets.copy()
    replay(state, lambda totals, slot: (0, 1), 5, budget, params, SLOT_S)
    assert np.array_equal(state.age_buckets, before)


def test_chooser_that_changes_its_argument_cannot_change_service(system):
    grid, budget, params = system
    beams = grid.n_cells // 4
    state = make_queue_state(grid.n_cells, overload_rates(grid, budget, params, 9), ttl=4)

    def vandal(totals, slot):
        pattern = sorted_greedy(totals, beams)
        totals[:] = 0  # a chooser is handed the backlog, not the queues
        return pattern

    assert_same_as_oracle(state, vandal, 30, budget, params)


def test_plan_bhtp_greedy_matches_oracle(system):
    grid, budget, params = system
    settings = PlannerSettings(beams=grid.n_cells // 4, ttl_slots=4)
    for seed in range(3):
        rates = overload_rates(grid, budget, params, seed)
        state = make_queue_state(grid.n_cells, rates, ttl=4)
        want = oracle_replay(state, lambda totals, slot: sorted_greedy(totals, settings.beams),
                             30, budget, params)[0]
        assert plan_bhtp(rates, grid, budget, params, settings, "greedy") == want


def test_plan_bhtp_mcts_matches_oracle(params):
    grid = generate_grid(3)
    budget = build_link_budget(grid, params)
    settings = PlannerSettings(beams=9, horizon_slots=4, ttl_slots=3)
    rates = overload_rates(grid, budget, params, 5)
    cfg = MctsConfig(max_iterations=20, rng_seed=(3, 1))
    state = make_queue_state(grid.n_cells, rates, ttl=3)
    ctx = make_score_context(
        grid, budget, params, state.totals(), slot_s=SLOT_S, packet_bits=1500 * 8.0,
        omega_max=omega_max_for(budget, params, 9, SLOT_S),
    )

    def choose(totals, slot):
        return compute_pattern_mcts(ctx, totals, 9, replace(cfg, rng_seed=(3, 1, slot)))

    want = oracle_replay(state, choose, 4, budget, params)[0]
    assert plan_bhtp(rates, grid, budget, params, settings, "mcts", cfg) == want


def test_simulate_bhtp_matches_oracle(system):
    grid, budget, params = system
    beams = grid.n_cells // 4
    settings = PlannerSettings(beams=beams, ttl_slots=6)
    rates = overload_rates(grid, budget, params, 7)
    plan = [tuple(range(s, s + beams)) for s in range(20)]
    state = make_queue_state(grid.n_cells, rates, ttl=6)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    sim = simulate_bhtp(plan, rates, grid, budget, params, settings, rng=rng_a)
    _, bits, drops, backlog = oracle_replay(
        state, lambda totals, slot: plan[slot], 20, budget, params, rng=rng_b
    )
    total = 0.0
    for b in bits:
        total += b
    assert sim == {"served_bits": total, "dropped_packets": sum(drops),
                   "per_slot_bits": bits, "final_backlog": backlog}


BAD_ROWS = {
    "duplicate": lambda beams: (0,) * 2 + tuple(range(2, beams)),
    "out_of_range": lambda beams: tuple(range(1, beams)) + (10_000,),
    "negative": lambda beams: (-1,) + tuple(range(1, beams)),
    "wrong_count": lambda beams: tuple(range(beams - 1)),
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_simulate_bhtp_rejects_bad_rows(bad, params):
    grid = generate_grid(3)
    budget = build_link_budget(grid, params)
    settings = PlannerSettings(beams=9)
    plan = [tuple(range(9)), BAD_ROWS[bad](9)]
    with pytest.raises(ValueError):
        simulate_bhtp(plan, np.full(37, 100.0), grid, budget, params, settings)


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_harness_replay_rejects_bad_rows(bad, monkeypatch):
    cfg = ExperimentConfig(algorithms=("greedy",), horizon_slots=3)
    system = harness.build_system(cfg)
    beams = system.settings.beams
    monkeypatch.setattr(
        harness, "_pattern_fn", lambda *args: lambda totals, slot: BAD_ROWS[bad](beams)
    )
    with pytest.raises(ValueError):
        harness._simulate_run("greedy", np.full(37, 100.0), system, cfg, 0, 1.0)
