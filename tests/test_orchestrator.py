"""Hybrid planner: plan construction, cache flow, background-fill contract."""

import logging
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import hoplite.orchestrator as orch
from hoplite.channel import build_link_budget
from hoplite.geometry import generate_grid
from hoplite.mcts import MctsConfig
from hoplite.orchestrator import (
    HybridPlanner,
    PlanRequest,
    PlannerSettings,
    default_c_max,
    plan_bhtp,
    simulate_bhtp,
)
from hoplite.traffic import generate_clustered_demand


@pytest.fixture(scope="module")
def system(params):
    grid = generate_grid(3)
    return grid, build_link_budget(grid, params), params


def test_settings_validation():
    with pytest.raises(ValueError):
        PlannerSettings(beams=0)
    with pytest.raises(ValueError):
        PlannerSettings(beams=9, horizon_slots=0)


def test_default_c_max_one_beam_slot(system):
    grid, budget, params = system
    settings = PlannerSettings(beams=9)
    packets = default_c_max(budget, params, settings)
    assert packets == pytest.approx(9975, rel=0.01)


def test_plan_bhtp_well_formed_and_deterministic(system):
    grid, budget, params = system
    settings = PlannerSettings(beams=9, horizon_slots=12)
    rng = np.random.default_rng(0)
    rates = rng.uniform(0, 4000, grid.n_cells)
    for algorithm, cfg in (
        ("greedy", None),
        ("mcts", MctsConfig(max_iterations=15, rng_seed=1)),
    ):
        plan = plan_bhtp(rates, grid, budget, params, settings, algorithm, cfg)
        assert len(plan) == 12
        for pattern in plan:
            assert len(set(pattern)) == 9
            assert all(0 <= c < grid.n_cells for c in pattern)
        again = plan_bhtp(rates, grid, budget, params, settings, algorithm, cfg)
        assert plan == again


def test_plan_bhtp_validation(system):
    grid, budget, params = system
    settings = PlannerSettings(beams=9)
    with pytest.raises(ValueError):
        plan_bhtp(np.zeros(grid.n_cells), grid, budget, params, settings, "magic")
    with pytest.raises(ValueError):
        plan_bhtp(np.zeros(5), grid, budget, params, settings, "greedy")


def test_simulate_bhtp_accounting(system):
    grid, budget, params = system
    settings = PlannerSettings(beams=9, horizon_slots=8)
    rng = np.random.default_rng(1)
    rates = rng.uniform(0, 3000, grid.n_cells)
    plan = plan_bhtp(rates, grid, budget, params, settings, "greedy")
    sim = simulate_bhtp(plan, rates, grid, budget, params, settings)
    assert sim["served_bits"] == pytest.approx(sum(sim["per_slot_bits"]), rel=1e-12)
    assert len(sim["per_slot_bits"]) == 8
    assert sim["dropped_packets"] >= 0
    assert sim["final_backlog"] >= 0


# -- request flow ------------------------------------------------------------------


def sync_planner(system, beta=4, iterations=10, horizon=6):
    grid, budget, params = system
    settings = PlannerSettings(beams=9, horizon_slots=horizon)
    return HybridPlanner(
        grid,
        params,
        settings,
        mcts_cfg=MctsConfig(max_iterations=iterations, rng_seed=0),
        mode="sync",
        beta=beta,
    )


def test_first_miss_then_hit_sync(system):
    grid, budget, params = system
    planner = sync_planner(system)
    rng = np.random.default_rng(2)
    demand = rng.uniform(0, 5000, grid.n_cells)
    first = planner.handle_request(PlanRequest(demand))
    assert first.source == "online_greedy"
    assert len(first.bhtp) == 6
    second = planner.handle_request(PlanRequest(demand))
    assert second.source == "cache"
    # The stored plan is the MCTS plan computed from the discretized demand.
    expect = plan_bhtp(
        planner.cache.discretize(demand),
        grid,
        planner.system.budget,
        params,
        planner.system.settings,
        "mcts",
        planner.mcts_cfg,
    )
    assert second.bhtp == expect
    stats = planner.stats()
    assert stats["requests"] == 2
    assert stats["cache_hits"] == 1
    assert stats["jobs_completed"] == 1


def test_counters_exact_under_concurrent_requests(system):
    grid = system[0]
    planner = sync_planner(system)
    demand = np.full(grid.n_cells, 900.0)
    planner.handle_request(PlanRequest(demand))  # miss; the sync job fills the cache
    threads, per_thread = 8, 250
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(per_thread):
            planner.handle_request(PlanRequest(demand))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, daemon=True) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    stats = planner.stats()
    assert stats["requests"] == 1 + threads * per_thread
    assert stats["cache_hits"] == threads * per_thread
    assert stats["online_misses"] == 1


def test_demand_length_checked(system):
    planner = sync_planner(system)
    with pytest.raises(ValueError):
        planner.handle_request(PlanRequest(np.zeros(5)))


def test_horizon_mismatch_is_a_miss(system):
    grid = system[0]
    planner = sync_planner(system, horizon=6)
    demand = np.full(grid.n_cells, 800.0)
    # A plan of another length, as a snapshot from another planner would hold.
    planner.cache.store(demand, [tuple(range(9))] * 3)
    first = planner.handle_request(PlanRequest(demand))
    assert first.source == "online_greedy"
    assert len(first.bhtp) == 6
    assert len(planner.cache.lookup(demand)) == 6  # the job replaced the short plan
    repeat = planner.handle_request(PlanRequest(demand))
    assert repeat.source == "cache"
    assert len(repeat.bhtp) == 6


def test_beam_count_mismatch_is_a_miss(system):
    grid = system[0]
    planner = sync_planner(system, horizon=6)
    demand = np.full(grid.n_cells, 800.0)
    # A plan of the right length for a 5-beam planner, as a snapshot could hold.
    planner.cache.store(demand, [tuple(range(5))] * 6)
    first = planner.handle_request(PlanRequest(demand))
    assert first.source == "online_greedy"
    assert [len(row) for row in planner.cache.lookup(demand)] == [9] * 6  # the job's plan
    repeat = planner.handle_request(PlanRequest(demand))
    assert repeat.source == "cache"
    assert [len(row) for row in repeat.bhtp] == [9] * 6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_bad_demand_rejected_before_any_side_effect(system, bad):
    grid = system[0]
    planner = sync_planner(system)
    demand = np.full(grid.n_cells, 800.0)
    planner.handle_request(PlanRequest(demand))
    before = planner.stats(), planner.cache.stats()
    demand[4] = bad
    with pytest.raises(ValueError):
        planner.handle_request(PlanRequest(demand))
    assert (planner.stats(), planner.cache.stats()) == before


def test_invalid_mode_rejected(system):
    grid, budget, params = system
    with pytest.raises(ValueError):
        HybridPlanner(grid, params, PlannerSettings(beams=9), mode="fiber")


def test_planner_takes_a_budget_that_fits_its_grid(system):
    grid, budget, params = system
    planner = HybridPlanner(grid, params, PlannerSettings(beams=9), mode="sync", budget=budget)
    assert planner.system.budget is budget
    other = build_link_budget(generate_grid(2), params)
    with pytest.raises(ValueError):
        HybridPlanner(grid, params, PlannerSettings(beams=9), mode="sync", budget=other)


# -- background fill (thread mode, gated worker) --------------------------------------


class GatedJob:
    """Stand-in background planner that blocks until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, system, mcts_cfg, demand):
        self.calls += 1
        self.started.set()
        assert self.release.wait(20), "test never released the gated job"
        s = system.settings
        return tuple(tuple(range(s.beams)) for _ in range(s.horizon_slots))


def thread_planner(system, max_pending=8):
    grid, budget, params = system
    settings = PlannerSettings(beams=9, horizon_slots=4)
    return HybridPlanner(
        grid,
        params,
        settings,
        mcts_cfg=MctsConfig(max_iterations=5),
        mode="thread",
        max_workers=1,
        max_pending=max_pending,
        beta=4,
    )


def test_duplicate_inflight_misses_coalesce(system, monkeypatch):
    gate = GatedJob()
    monkeypatch.setattr(orch, "_background_job", gate)
    grid = system[0]
    demand = np.full(grid.n_cells, 1500.0)
    with thread_planner(system) as planner:
        first = planner.handle_request(PlanRequest(demand))
        assert first.source == "online_greedy"
        assert gate.started.wait(5)
        second = planner.handle_request(PlanRequest(demand))
        assert second.source == "online_greedy"
        assert planner.stats()["coalesced"] == 1
        gate.release.set()
        assert planner.drain(timeout=10)
        third = planner.handle_request(PlanRequest(demand))
        assert third.source == "cache"
        assert gate.calls == 1
        assert planner.stats()["jobs_completed"] == 1


def test_pending_queue_drops_oldest(system, monkeypatch):
    gate = GatedJob()
    monkeypatch.setattr(orch, "_background_job", gate)
    grid = system[0]
    with thread_planner(system, max_pending=2) as planner:
        step = planner.cache.c_max / planner.cache.beta
        demands = [np.full(grid.n_cells, i * step) for i in range(4)]
        assert len({planner.cache.key_for(d) for d in demands}) == 4
        for demand in demands:
            planner.handle_request(PlanRequest(demand))
        assert gate.started.wait(5)
        assert planner.stats()["dropped_jobs"] == 1
        gate.release.set()
        assert planner.drain(timeout=10)
        assert planner.stats()["jobs_completed"] == 3
        kept = [planner.cache.lookup(d) is not None for d in demands]
        assert kept == [True, False, True, True]  # the oldest waiter was shed


def test_miss_discretizes_demand_once(system, monkeypatch):
    gate = GatedJob()
    monkeypatch.setattr(orch, "_background_job", gate)
    grid = system[0]
    with thread_planner(system) as planner:
        calls = []
        classify = planner.cache.classify
        planner.cache.classify = lambda v: calls.append(1) or classify(v)
        try:
            response = planner.handle_request(PlanRequest(np.full(grid.n_cells, 1200.0)))
            on_request = len(calls)  # before the job's store adds its own
        finally:
            gate.release.set()
        assert response.source == "online_greedy"
        assert on_request == 1  # one pass, shared by the lookup, the job and its key
        assert planner.drain(timeout=10)
        assert len(calls) == 1  # the finished job stores the request's class


def test_online_path_not_blocked_by_inflight_job(system, monkeypatch):
    gate = GatedJob()
    monkeypatch.setattr(orch, "_background_job", gate)
    grid = system[0]
    with thread_planner(system) as planner:
        step = planner.cache.c_max / planner.cache.beta
        planner.handle_request(PlanRequest(np.full(grid.n_cells, step)))
        assert gate.started.wait(5)
        t0 = time.perf_counter()
        response = planner.handle_request(PlanRequest(np.full(grid.n_cells, 2 * step)))
        elapsed = time.perf_counter() - t0
        gate.release.set()
        assert response.source == "online_greedy"
        assert elapsed < 1.0  # nowhere near the gated job's 20 s hold


class DoneExecutor:
    """Executor stub whose futures are already finished when submit returns."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):
        pass


def test_job_done_at_submit_does_not_deadlock(system):
    grid = system[0]
    planner = thread_planner(system)
    planner._executor.shutdown()
    planner._executor = DoneExecutor()
    request = PlanRequest(np.full(grid.n_cells, 700.0))
    caller = threading.Thread(target=planner.handle_request, args=(request,), daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert planner.stats()["jobs_completed"] == 1
    assert planner.drain(0)


class BrokenExecutor:
    """Executor stub whose pool died: every submit raises."""

    def submit(self, fn, *args):
        raise BrokenProcessPool("a worker process died")

    def shutdown(self, wait=True):
        pass


def failure_records(caplog):
    return [r for r in caplog.records if r.getMessage().startswith("background plan job failed")]


def test_submit_failure_is_a_failed_job(system, caplog):
    grid = system[0]
    planner = thread_planner(system)
    planner._executor.shutdown()
    planner._executor = BrokenExecutor()
    response = planner.handle_request(PlanRequest(np.full(grid.n_cells, 700.0)))
    assert response.source == "online_greedy"
    stats = planner.stats()
    assert (stats["jobs_failed"], stats["waiting"], stats["inflight"]) == (1, 0, 0)
    assert planner.drain(0)
    # The pool stays broken: each later miss fails alike and logs one line.
    for level in (800.0, 900.0, 1000.0):
        response = planner.handle_request(PlanRequest(np.full(grid.n_cells, level)))
        assert response.source == "online_greedy"
    records = failure_records(caplog)
    assert len(records) == planner.stats()["jobs_failed"] == 4
    assert [r.exc_info is not None for r in records] == [True, False, False, False]


class ClosingExecutor:
    """Executor stub: close() shuts the pool down between claim and submit."""

    def __init__(self, planner):
        self.planner = planner

    def submit(self, fn, *args):
        self.planner.close()
        raise RuntimeError("cannot schedule new futures after shutdown")

    def shutdown(self, wait=True):
        pass


def test_job_claimed_before_close_is_dropped(system, caplog):
    grid = system[0]
    planner = thread_planner(system)
    planner._executor.shutdown()
    planner._executor = ClosingExecutor(planner)
    request = PlanRequest(np.full(grid.n_cells, 700.0))
    caller = threading.Thread(target=planner.handle_request, args=(request,), daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert planner.drain(0)
    stats = planner.stats()
    assert (stats["jobs_failed"], stats["dropped_jobs"], stats["inflight"]) == (0, 1, 0)


def test_killed_worker_degrades_to_greedy(system, caplog):
    grid = system[0]
    settings = PlannerSettings(beams=9, horizon_slots=4)
    # Seconds of search, so the first job is still running when its worker dies.
    planner = HybridPlanner(grid, system[2], settings,
                            mcts_cfg=MctsConfig(max_iterations=5000), mode="process")
    before = {p.pid for p in multiprocessing.active_children()}
    try:
        step = planner.cache.c_max / planner.cache.beta
        first = planner.handle_request(PlanRequest(np.full(grid.n_cells, step)))
        assert first.source == "online_greedy"
        workers = [p for p in multiprocessing.active_children() if p.pid not in before]
        assert len(workers) == 1
        os.kill(workers[0].pid, signal.SIGKILL)
        assert planner.drain(timeout=60)
        caplog.clear()
        later = planner.handle_request(PlanRequest(np.full(grid.n_cells, 2 * step)))
        assert later.source == "online_greedy"
        assert planner.drain(timeout=60)
        stats = planner.stats()
        assert (stats["jobs_failed"], stats["jobs_completed"]) == (2, 0)
        # Only the first failed submit on the broken pool logs a traceback.
        for level in (3, 4, 5):
            later = planner.handle_request(PlanRequest(np.full(grid.n_cells, level * step)))
            assert later.source == "online_greedy"
            assert planner.drain(timeout=60)
        records = failure_records(caplog)
        assert len(records) == 4
        assert sum(r.exc_info is not None for r in records) == 1
        assert planner.stats()["jobs_failed"] == 5
    finally:
        planner.close()


def test_close_drops_waiting_jobs_without_errors(system, monkeypatch, caplog):
    gate = GatedJob()
    monkeypatch.setattr(orch, "_background_job", gate)
    grid = system[0]
    planner = thread_planner(system)
    step = planner.cache.c_max / planner.cache.beta
    for level in (1, 2, 3):
        planner.handle_request(PlanRequest(np.full(grid.n_cells, level * step)))
    assert gate.started.wait(5)
    assert planner.stats()["waiting"] == 2
    closer = threading.Thread(target=planner.close, daemon=True)
    closer.start()
    deadline = time.monotonic() + 5
    while planner.stats()["waiting"] and time.monotonic() < deadline:
        time.sleep(0.01)
    gate.release.set()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert planner.drain(0)
    stats = planner.stats()
    assert (stats["jobs_completed"], stats["dropped_jobs"], stats["waiting"]) == (1, 2, 0)


def test_sync_mode_failure_keeps_serving(system, monkeypatch):
    def exploding(*args):
        raise RuntimeError("search blew up")

    monkeypatch.setattr(orch, "_background_job", exploding)
    grid = system[0]
    planner = sync_planner(system)
    demand = np.full(grid.n_cells, 700.0)
    first = planner.handle_request(PlanRequest(demand))
    assert first.source == "online_greedy"
    assert planner.stats()["jobs_failed"] == 1
    again = planner.handle_request(PlanRequest(demand))
    assert again.source == "online_greedy"  # cache was never filled


# -- refined plans beat the online answer ----------------------------------------------


def test_stored_plan_at_least_greedy_on_most_seeds(system):
    grid, budget, params = system
    settings = PlannerSettings(beams=9)
    c0 = default_c_max(budget, params, settings)
    wins = 0
    for seed in range(20):
        base = generate_clustered_demand(grid, 1.0, 9, 5.0, seed)
        rates = base * (1.2 * 9 * c0 / base.sum())
        greedy = plan_bhtp(rates, grid, budget, params, settings, "greedy")
        cfg = MctsConfig(
            max_iterations=60,
            exploration_constant=0.5,
            pruning_enabled=True,
            prune_width=12,
            rng_seed=(seed,),
        )
        refined = plan_bhtp(rates, grid, budget, params, settings, "mcts", cfg)
        served_g = simulate_bhtp(greedy, rates, grid, budget, params, settings)
        served_m = simulate_bhtp(refined, rates, grid, budget, params, settings)
        wins += served_m["served_bits"] >= served_g["served_bits"]
    assert wins >= 18  # >= 90% of 20 trials
