"""The System value: one grid, link and settings, with tables built once."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hoplite.scoring as scoring
from hoplite.channel import LinkParams, build_link_budget
from hoplite.geometry import generate_grid
from hoplite.harness import ExperimentConfig, run_ds_sweep, run_throughput_sweep
from hoplite.orchestrator import PlannerSettings, System, default_c_max
from hoplite.scoring import make_score_context, omega_max_for, score_pattern


@pytest.fixture(scope="module", params=[3, 6], ids=["37cells", "127cells"])
def system(request):
    grid = generate_grid(request.param)
    return System(grid, LinkParams(), PlannerSettings(beams=grid.n_cells // 4))


# Brute force is the full-pair model: the window of an unbounded Ds.
@pytest.mark.parametrize("ds_km", [1500.0, math.inf], ids=["sliding", "bruteforce"])
def test_score_context_matches_make_score_context(system, ds_km):
    s = replace(system, settings=replace(system.settings, ds_km=ds_km))
    grid, settings = s.grid, s.settings
    n, beams = grid.n_cells, settings.beams
    rng = np.random.default_rng((n, 7))
    for _ in range(3):
        totals = rng.integers(0, 20000, size=n).astype(float)
        expect = make_score_context(
            grid, s.budget, s.params, totals, slot_s=settings.slot_s,
            packet_bits=settings.packet_bits, ds_km=settings.ds_km,
            omega_max=omega_max_for(s.budget, s.params, beams, settings.slot_s),
        )
        got = s.score_context(totals)
        for _ in range(20):
            pattern = tuple(int(c) for c in rng.choice(n, size=beams, replace=False))
            assert score_pattern(pattern, got, beams).hex() == \
                score_pattern(pattern, expect, beams).hex()


def test_c_max_matches_default_c_max(system):
    assert system.c_max == default_c_max(system.budget, system.params, system.settings)


def test_budget_of_wrong_shape_rejected(system):
    other = build_link_budget(generate_grid(2), system.params)
    with pytest.raises(ValueError):
        System(system.grid, system.params, system.settings, other)


def test_given_budget_is_kept(system):
    again = System(system.grid, system.params, system.settings, system.budget)
    assert again.budget is system.budget


@pytest.fixture
def window_scans(monkeypatch):
    """Counts the grid-wide window scans, one per score-context table built."""
    calls = []
    scan = scoring.interference_cells_sliding_window

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(scoring, "interference_cells_sliding_window", counted)
    return calls


SMALL = dict(rings=2, demand_levels=(0.5, 1.0), seeds=(0, 1), horizon_slots=3,
             mcts_iterations=5)


def test_tables_built_once_per_system(window_scans):
    s = System(generate_grid(2), LinkParams(), PlannerSettings(beams=4))
    s.score_context(np.zeros(19))
    s.score_context(np.ones(19))
    assert len(window_scans) == 1


def test_baseline_sweep_builds_no_window_table(window_scans):
    run_throughput_sweep(ExperimentConfig(**SMALL, algorithms=("periodic", "random", "greedy")))
    assert window_scans == []


def test_mcts_sweep_builds_one_window_table(window_scans):
    run_throughput_sweep(ExperimentConfig(**SMALL, algorithms=("mcts",)))
    assert len(window_scans) == 1


def test_ds_sweep_builds_one_window_table_per_level(window_scans):
    run_ds_sweep(ExperimentConfig(**SMALL, ds_levels=(1.0, 2.0, 3.0)), patterns_per_ds=2)
    assert len(window_scans) == 3
