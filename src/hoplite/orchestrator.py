"""Hybrid planner: answer now with greedy, refine in the background.

A request carries a per-cell demand vector. If the plan cache already holds
a transmission plan for that demand class, of the settings' horizon and beam
count (a loaded snapshot records neither), the stored plan is returned
immediately; otherwise the request is answered with a greedy plan computed
on the spot, and a background search job is queued that computes an MCTS
plan for the same demand class and stores it for future requests. Jobs for
the same discretized demand coalesce, and the waiting queue is depth-limited
(oldest waiting demand dropped first). A job that raises or cannot be
submitted is logged and counted as failed; the request that queued it has
its greedy answer all the same. A pool whose worker died stays broken: its
first failed submit logs a traceback, each later one a single line.

Both planners plan for one :class:`System`: the cell grid, its link
parameters and budget, and the planner settings, built once and passed whole.
Plans are built closed-loop: each slot's pattern is chosen against the queue
state that results from serving the previous slots of the same plan, with
arrivals taken as the rounded demand rates. Planning and plan replay both run
on the fused replay kernel ``hoplite.traffic.replay``, which keeps the greedy
answer to a miss at a few milliseconds for a 127-cell, 30-slot plan.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .baselines import pattern_greedy
from .cache import BhtpCache, DemandClass
from .channel import LinkBudget, LinkParams, build_link_budget
from .geometry import CellGrid
from .mcts import MctsConfig, compute_pattern_mcts
from .scoring import ScoreContext, make_score_context, omega_max_for, with_queue_totals
from .traffic import Replay, make_queue_state, replay

logger = logging.getLogger(__name__)

EXECUTION_MODES = ("process", "thread", "sync")
PLAN_ALGORITHMS = ("greedy", "mcts")


@dataclass(frozen=True)
class PlannerSettings:
    """Shared knobs for plan construction and replay."""

    beams: int
    horizon_slots: int = 30
    slot_s: float = 0.1
    packet_bits: float = 1500 * 8.0
    ttl_slots: int = 20
    ds_km: float | None = None  # None -> one cell diameter; inf -> full-pair scoring

    def __post_init__(self):
        if self.beams < 1 or self.horizon_slots < 1:
            raise ValueError("beams and horizon_slots must be >= 1")


@dataclass(frozen=True)
class PlanRequest:
    demand: np.ndarray  # per-cell packets per slot
    request_id: int = 0


@dataclass(frozen=True)
class PlanResponse:
    bhtp: tuple
    source: str  # "cache" | "online_greedy"
    latency_s: float
    request_id: int = 0


def default_c_max(budget: LinkBudget, params: LinkParams, settings: PlannerSettings) -> float:
    """Demand clamp for discretization: one beam-slot's packet capacity."""
    bits = omega_max_for(budget, params, 1, settings.slot_s)
    return bits / settings.packet_bits


def _slot_seed(base, slot: int) -> tuple:
    if isinstance(base, tuple):
        return base + (slot,)
    return (int(base), slot)


@dataclass(frozen=True, eq=False)
class System:
    """The satellite system both planners plan for: one cell grid, its link
    parameters and budget, and the planner settings.

    The link budget (an N x N Bessel evaluation) is built here unless one is
    passed in; the scorer's static tables (gain columns, windows, x-ranks)
    are built on the first :meth:`score_context` call and then shared.
    """

    grid: CellGrid
    params: LinkParams
    settings: PlannerSettings
    budget: LinkBudget | None = None  # None -> built from grid and params

    def __post_init__(self):
        if self.budget is None:
            object.__setattr__(self, "budget", build_link_budget(self.grid, self.params))
        elif self.budget.gain2.shape != (self.grid.n_cells,) * 2:
            raise ValueError(f"link budget of shape {self.budget.gain2.shape} does not fit the grid")

    @property
    def c_max(self) -> float:
        return default_c_max(self.budget, self.params, self.settings)

    @cached_property
    def _tables(self) -> ScoreContext:
        """A context on zero backlog, normalized by the best case of ``beams`` beams."""
        s = self.settings
        return make_score_context(
            self.grid, self.budget, self.params, np.zeros(self.grid.n_cells), slot_s=s.slot_s,
            packet_bits=s.packet_bits, ds_km=s.ds_km,
            omega_max=omega_max_for(self.budget, self.params, s.beams, s.slot_s),
        )

    def score_context(self, totals) -> ScoreContext:
        """Scoring context for backlog ``totals``, on tables built once."""
        return with_queue_totals(self._tables, totals)

    def run(self, arrival_rates, choose, slots: int, rng=None) -> Replay:
        """``slots`` slots of the replay kernel from empty queues fed
        ``arrival_rates``; every pattern ``choose`` picks must hold ``beams``
        distinct in-range cells, else ValueError."""
        s = self.settings
        state = make_queue_state(
            self.grid.n_cells, arrival_rates, ttl=s.ttl_slots, packet_bits=s.packet_bits
        )
        return replay(state, choose, slots, self.budget, self.params, s.slot_s, rng=rng,
                      expected_beams=s.beams)

    def plan(self, arrival_rates, algorithm="greedy", mcts_cfg=None) -> tuple:
        """Closed-loop plan for one demand vector over the settings' horizon."""
        if algorithm not in PLAN_ALGORITHMS:
            raise ValueError(f"unknown planning algorithm {algorithm!r}")
        rates = np.asarray(arrival_rates, dtype=float)
        if rates.shape != (self.grid.n_cells,):
            raise ValueError("demand vector length must match the grid")
        beams = self.settings.beams
        if algorithm == "greedy":
            def choose(totals, slot):
                return pattern_greedy(totals, beams)
        else:
            base = mcts_cfg if mcts_cfg is not None else MctsConfig()

            def choose(totals, slot):
                cfg = replace(base, rng_seed=_slot_seed(base.rng_seed, slot))
                return compute_pattern_mcts(self.score_context(totals), totals, beams, cfg)

        return self.run(rates, choose, self.settings.horizon_slots).plan

    def simulate(self, bhtp, arrival_rates, rng: np.random.Generator | None = None) -> dict:
        """Replay a fixed plan against the queue model; totals for scoring runs.

        Rows are checked as :meth:`run` checks patterns."""
        rows = tuple(bhtp)
        run = self.run(arrival_rates, lambda totals, slot: rows[slot], len(rows), rng)
        return {
            "served_bits": run.served_total(),
            "dropped_packets": sum(run.dropped_packets),
            "per_slot_bits": run.served_bits,
            "final_backlog": run.final_backlog,
        }


def plan_bhtp(
    arrival_rates,
    grid: CellGrid,
    budget: LinkBudget,
    params: LinkParams,
    settings: PlannerSettings,
    algorithm: str = "greedy",
    mcts_cfg: MctsConfig | None = None,
) -> tuple:
    """Closed-loop transmission plan over the horizon for one demand vector."""
    return System(grid, params, settings, budget).plan(arrival_rates, algorithm, mcts_cfg)


def simulate_bhtp(
    bhtp,
    arrival_rates,
    grid: CellGrid,
    budget: LinkBudget,
    params: LinkParams,
    settings: PlannerSettings,
    rng: np.random.Generator | None = None,
) -> dict:
    """:meth:`System.simulate` on a system assembled from its parts."""
    return System(grid, params, settings, budget).simulate(bhtp, arrival_rates, rng)


def _background_job(system: System, mcts_cfg: MctsConfig, demand) -> tuple:
    """Runs in a worker (process or thread): the refined plan for one demand."""
    return system.plan(demand, "mcts", mcts_cfg)


def _reraise(exc: BaseException):
    raise exc


class HybridPlanner:
    """Serves plan requests from the cache, filling misses in the background.

    ``budget`` spares a caller that already holds the grid's link budget a
    rebuild; it is checked against the grid like :class:`System`'s.
    """

    def __init__(
        self,
        grid: CellGrid,
        params: LinkParams,
        settings: PlannerSettings,
        cache: BhtpCache | None = None,
        mcts_cfg: MctsConfig | None = None,
        mode: str = "process",
        max_workers: int = 1,
        max_pending: int = 8,
        beta: int = 4,
        budget: LinkBudget | None = None,
    ):
        if mode not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {mode!r}")
        self.system = System(grid, params, settings, budget)
        self.mcts_cfg = mcts_cfg if mcts_cfg is not None else MctsConfig()
        if cache is None:
            cache = BhtpCache(c_max=self.system.c_max, beta=beta)
        self.cache = cache
        self.mode = mode
        self.max_workers = max(1, int(max_workers))
        self.max_pending = max(1, int(max_pending))
        if mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        elif mode == "thread":
            self._executor = ThreadPoolExecutor(max_workers=self.max_workers)
        else:
            self._executor = None
        self._lock = threading.Lock()
        self._waiting: OrderedDict[bytes, DemandClass] = OrderedDict()
        self._inflight: set[bytes] = set()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._submit_failed = False  # a failed submit has logged its traceback
        self.requests = 0
        self.cache_hits = 0
        self.online_misses = 0
        self.coalesced = 0
        self.dropped_jobs = 0
        self.jobs_completed = 0
        self.jobs_failed = 0

    # -- online path -------------------------------------------------------

    def handle_request(self, req: PlanRequest) -> PlanResponse:
        t0 = time.perf_counter()
        system = self.system
        demand = np.asarray(req.demand, dtype=float)
        if demand.shape != (system.grid.n_cells,):
            raise ValueError(
                f"demand length {demand.shape} does not match {system.grid.n_cells} cells"
            )
        demand_class = self.cache.classify(demand)  # rejects NaN, inf and negatives
        stored = self.cache.lookup(demand_class)
        s = system.settings
        hit = stored is not None and (len(stored), len(stored[0])) == (s.horizon_slots, s.beams)
        with self._lock:
            self.requests += 1
            if hit:
                self.cache_hits += 1
            else:
                self.online_misses += 1
        if hit:
            return PlanResponse(stored, "cache", time.perf_counter() - t0, req.request_id)
        self._enqueue(demand_class)
        # The module-level plan_bhtp, so tracing that wraps it sees the online plan.
        bhtp = plan_bhtp(demand, system.grid, system.budget, system.params, system.settings,
                         "greedy")
        return PlanResponse(bhtp, "online_greedy", time.perf_counter() - t0, req.request_id)

    # -- background fill: claim under the lock, start and finish outside it --

    def _enqueue(self, demand: DemandClass):
        with self._lock:
            if self._closed:
                self.dropped_jobs += 1
                return
            if demand.key in self._inflight or demand.key in self._waiting:
                self.coalesced += 1
                return
            self._idle.clear()
            self._waiting[demand.key] = demand
            while len(self._waiting) > self.max_pending:
                self._waiting.popitem(last=False)
                self.dropped_jobs += 1
            job = self._claim_locked()
        self._start(job)

    def _claim_locked(self) -> DemandClass | None:
        """The oldest waiting job if a worker is free; sets idle if none is left.

        Nothing waits after close(), so nothing is claimed after it.
        """
        if self._waiting and len(self._inflight) < self.max_workers:
            key, job = self._waiting.popitem(last=False)
            self._inflight.add(key)
            return job
        if not self._waiting and not self._inflight:
            self._idle.set()
        return None

    def _start(self, job: DemandClass | None):
        """Run claimed jobs inline in sync mode, or submit them to the pool."""
        while job is not None:
            args = (self.system, self.mcts_cfg, job.values)
            if self._executor is None:
                job = self._finish(job, lambda: _background_job(*args))
                continue
            try:
                future = self._executor.submit(_background_job, *args)
            except RuntimeError as exc:  # a dead worker broke the pool, or close() shut it
                if self._closed:
                    job = self._finish(job, None)
                    continue
                # The pool stays broken, so every later submit fails alike.
                with self._lock:
                    first, self._submit_failed = not self._submit_failed, True
                job = self._finish(job, partial(_reraise, exc), log_traceback=first)
                continue
            # A future already done runs the callback here at once: hold no lock.
            future.add_done_callback(lambda fut, j=job: self._start(self._finish(j, fut.result)))
            return

    def _finish(self, job: DemandClass, result, log_traceback: bool = True) -> DemandClass | None:
        """Store the plan ``result()`` returns, or log and count its failure;
        then release the job's key and claim the next job. ``result`` is None
        for a job that close() shut the pool on before it ran: it is dropped.
        Without ``log_traceback`` a failure is logged as a single line.
        """
        if result is None:
            counter = "dropped_jobs"
        else:
            try:
                bhtp = result()
            except Exception as exc:
                if log_traceback:
                    logger.exception("background plan job failed")
                else:
                    logger.error("background plan job failed: %r", exc)
                counter = "jobs_failed"
            else:
                self.cache.store(job, bhtp)
                counter = "jobs_completed"
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
            self._inflight.remove(job.key)
            return self._claim_locked()

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until all queued background jobs have finished."""
        return self._idle.wait(timeout)

    def close(self):
        """Drop the waiting jobs, then wait for the in-flight ones to finish."""
        with self._lock:
            self._closed = True
            self.dropped_jobs += len(self._waiting)
            self._waiting.clear()
            if not self._inflight:
                self._idle.set()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "online_misses": self.online_misses,
                "coalesced": self.coalesced,
                "dropped_jobs": self.dropped_jobs,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "waiting": len(self._waiting),
                "inflight": len(self._inflight),
            }
