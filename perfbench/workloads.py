"""The benchmark's workloads: each runs, checks its outputs and reports metrics.

slot_loop_127   closed loop: one MCTS pattern per slot on a 127-cell grid.
serve_warm_37   open loop into the hybrid planner; ~90% of requests hit the cache.
serve_cold_127  open loop into the hybrid planner; every request is a new class.

A run is: set-up (repeated), warm-up, a timed phase, output checks, teardown,
more set-up repetitions (the median of all is reported). With tracing on, the
timed phase is split: the first half runs untraced, then the span wrappers
are installed (after the worker process exists, so it never inherits them)
and the second half runs traced.
All callable layers are reached through their modules at call time, so the
wrappers see the calls.
"""

from __future__ import annotations

import gc
import logging
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import hoplite.baselines
import hoplite.cache
import hoplite.channel
import hoplite.geometry
import hoplite.mcts
import hoplite.orchestrator
import hoplite.scoring
import hoplite.traffic

from inputs import ClassRegistry, clustered_demand, same_class_variant
from spans import Tracer

clock = time.perf_counter

# The generator sleeps until this long before a request is due, then spins,
# because a plain sleep overshoots by 0.1-0.5 ms: more than a cache hit costs.
SPIN_S = 0.002
# Set-up repetitions are this far apart, and split between before and after
# the timed phase, so that their median spans the swings in CPU speed of a
# shared host over the whole run instead of one of them.
SETUP_GAP_S = 0.4
# A p99 needs ten samples beyond it.
P99_MIN_SAMPLES = 1000
# A shared host changes speed by up to a third within seconds, and the
# wall-clock latency of a run with it. A fixed reference kernel, timed in the
# same process right around each operation, slows down alike, so the gated
# latency is each operation's time over the kernel's local median time. On
# one fixed input (2 vCPUs), 25 s medians of the slot loop's decision time
# spread over 40% of their median, and those of the per-decision ratios over
# 6%. This kernel tracked the program better than a sort of a 2 MiB vector,
# dict churn or small-array numpy loops did.
REF_VECTOR = np.random.default_rng(0).random(4096)
REF_PER_SLOT = 5
REF_GAP_S = 0.005  # run the kernel only when the next request is this far off
REF_HALO_S = 0.25  # kernel samples this close to an operation are its reference


@dataclass(frozen=True)
class SlotSpec:
    rings: int = 6
    beams: int = 31
    iterations: int = 200
    load: float = 1.3  # offered packets / (beams x one beam-slot's capacity)
    ttl: int = 20
    warm_slots: int = 45  # greedy slots before timing; > ttl, so queues are steady
    setup_reps: int = 9  # about half before the timed phase, the rest after it


@dataclass(frozen=True)
class ServeSpec:
    rings: int
    beams: int
    rate_per_s: float
    hot_classes: int  # 0: every request is a fresh class
    hot_share: float
    greedy_check: int | None  # None: check every greedy answer; n: a seeded sample
    iterations: int = 50
    load: float = 1.0
    horizon: int = 30
    beta: int = 4
    replay_sample: int = 200
    setup_reps: int = 9  # about half before the timed phase, the rest after it


SPECS = {
    "slot_loop_127": SlotSpec(),
    "serve_warm_37": ServeSpec(
        rings=3, beams=9, rate_per_s=50.0, hot_classes=4, hot_share=0.9, greedy_check=None
    ),
    "serve_cold_127": ServeSpec(
        rings=6, beams=31, rate_per_s=40.0, hot_classes=0, hot_share=0.0, greedy_check=100
    ),
}

# Seconds-long configuration for the benchmark's own tests (run.py --smoke).
SMOKE_SPECS = {
    "slot_loop_127": SlotSpec(rings=2, beams=2, iterations=5, warm_slots=25, setup_reps=2),
    "serve_warm_37": ServeSpec(
        rings=2, beams=2, rate_per_s=20.0, hot_classes=2, hot_share=0.8, greedy_check=None,
        iterations=5, horizon=3, replay_sample=10, setup_reps=2,
    ),
    "serve_cold_127": ServeSpec(
        rings=2, beams=4, rate_per_s=20.0, hot_classes=0, hot_share=0.0, greedy_check=5,
        iterations=5, horizon=3, replay_sample=10, setup_reps=2,
        load=2.0,  # at load 1 on 19 cells only the hot region varies: too few classes
    ),
}

# name -> (unit, kind); kind "e2e" is printed untraced, "layer" when traced.
METRICS = {
    "setup_s": ("s", "e2e"),
    "peak_rss_mb": ("MB", "e2e"),
    "latency_p50_ref": ("ref", "e2e"),
    "served_ratio": ("ratio", "e2e"),
    "geometry.grid_s": ("s", "layer"),
    "channel.budget_s": ("s", "layer"),
    "channel.capacities_calls": ("count", "layer"),
    "channel.capacities_us": ("us", "layer"),
    "traffic.advance_calls": ("count", "layer"),
    "traffic.advance_us": ("us", "layer"),
    "baselines.greedy_us": ("us", "layer"),
    "scoring.calls_per_decision": ("count", "layer"),
    "scoring.us_per_call": ("us", "layer"),
    "scoring.share": ("ratio", "layer"),
    "mcts.stage_ms": ("ms", "layer"),
    "mcts.uct_calls": ("count", "layer"),
    "mcts.uct_us": ("us", "layer"),
    "mcts.rollout_self_us": ("us", "layer"),
    "mcts.self_share": ("ratio", "layer"),
    "cache.lookup_hit_us": ("us", "layer"),
    "cache.lookup_miss_us": ("us", "layer"),
    "cache.key_us": ("us", "layer"),
    "cache.store_us": ("us", "layer"),
    "cache.hits": ("count", "layer"),
    "cache.misses": ("count", "layer"),
    "cache.hit_ratio": ("ratio", "layer"),
    "cache.collisions": ("count", "layer"),
    "orchestrator.handle_self_us": ("us", "layer"),
    "orchestrator.plan_greedy_ms": ("ms", "layer"),
    "orchestrator.jobs_completed": ("count", "layer"),
    "orchestrator.jobs_dropped": ("count", "layer"),
    "orchestrator.jobs_failed": ("count", "layer"),
    "orchestrator.coalesced": ("count", "layer"),
    "orchestrator.job_yield": ("ratio", "layer"),
    "orchestrator.waiting_max": ("count", "layer"),
    "orchestrator.inflight_max": ("count", "layer"),
    "orchestrator.teardown_errors": ("count", "layer"),
    "bench.late_ms_p99": ("ms", "layer"),
    "bench.trace_overhead": ("ratio", "layer"),
    "bench.warmup_s": ("s", "layer"),
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> value (METRICS names)
    samples: dict = field(default_factory=dict)  # per-layer name -> samples it rests on
    report: list = field(default_factory=list)  # (name, value, unit, samples)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer | None = None

    def check(self, name: str, bad: int, total: int, detail: str = ""):
        self.checks.append((name, bad == 0, f"{total - bad}/{total} ok {detail}".strip()))

    def show(self, name: str, value, unit: str, samples: int):
        self.report.append((name, value, unit, samples))


# -- shared helpers -----------------------------------------------------------


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def p99(values) -> float | None:
    return float(np.percentile(values, 99)) if len(values) >= P99_MIN_SAMPLES else None


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def reference_kernel(refs: list):
    """Time a fixed interpreter loop and numpy sort (about 1 ms) into ``refs``.

    Appends (start, seconds); ``refs`` stays in time order.
    """
    t0 = clock()
    s = 0
    for i in range(10000):
        s += i * i % 7
    np.sort(REF_VECTOR)
    refs.append((t0, clock() - t0))


def in_ref(ops: list, refs: list) -> tuple[float, int]:
    """Median over operations of latency over the local reference time.

    ``ops`` are (start, end, latency in s). Each operation is divided by the
    median kernel time within REF_HALO_S of it; one with no kernel sample
    that close is left out. Returns the median and the operations it rests on.
    """
    times = np.array([t for t, _ in refs])
    kernel = np.array([d for _, d in refs])
    ratios = []
    for start, end, latency in ops:
        lo, hi = np.searchsorted(times, [start - REF_HALO_S, end + REF_HALO_S])
        if hi > lo:
            ratios.append(latency / float(np.median(kernel[lo:hi])))
    return median(ratios), len(ratios)


def wait_until(due: float):
    while True:
        left = due - clock()
        if left <= 0:
            return
        if left > SPIN_S:
            time.sleep(left - SPIN_S)
        else:
            while clock() < due:
                pass
            return


def valid_plan(plan, rows: int, beams: int, n_cells: int) -> bool:
    """``rows`` rows of ``beams`` distinct in-range cell ids."""
    try:
        return len(plan) == rows and all(
            len(row) == beams
            and len(set(row)) == beams
            and all(0 <= int(c) < n_cells for c in row)
            for row in plan
        )
    except TypeError:
        return False


def phases(seconds: float, trace: bool):
    """(seconds, traced) for each timed phase of the run."""
    if trace:
        return [(seconds / 2.0, False), (seconds / 2.0, True)]
    return [(seconds, False)]


def repeated_setup(build, reps: int, timings: list):
    """Run ``build`` ``reps`` times, SETUP_GAP_S apart, each from a collected heap.

    ``build`` returns (timings tuple, system); the tuples are appended to
    ``timings`` and the last system is returned.
    """
    for rep in range(reps):
        if rep:
            time.sleep(SETUP_GAP_S)
        gc.collect()
        t, system = build()
        timings.append(t)
    return system


def setup_medians(timings: list) -> list:
    return [median(column) for column in zip(*timings)]


def layer_metrics(out: Outcome, summary: dict, ops: int, decisions: int, decision_s: float):
    """Per-layer metrics from the traced phase's spans; absent spans read 0.

    Each records the number of spans it rests on, so that a 0 from a layer
    that was never called can be told from a measured one.
    """

    def count(name):
        return summary.get(name, {}).get("count", 0)

    def total(name, key="total"):
        return summary.get(name, {}).get(key, 0.0)

    def mean_us(name, key="total"):
        return ratio(total(name, key), count(name)) * 1e6

    per_span = {  # metric -> (value, span it rests on)
        "channel.capacities_calls": (ratio(count("channel.capacities"), ops), "channel.capacities"),
        "channel.capacities_us": (mean_us("channel.capacities"), "channel.capacities"),
        "traffic.advance_calls": (ratio(count("traffic.advance"), ops), "traffic.advance"),
        "traffic.advance_us": (mean_us("traffic.advance"), "traffic.advance"),
        "baselines.greedy_us": (mean_us("baselines.greedy"), "baselines.greedy"),
        "scoring.calls_per_decision": (ratio(count("scoring.score"), decisions), "scoring.score"),
        "scoring.us_per_call": (mean_us("scoring.score"), "scoring.score"),
        "scoring.share": (ratio(total("scoring.score"), decision_s), "scoring.score"),
        "mcts.stage_ms": (mean_us("mcts.stage") / 1e3, "mcts.stage"),
        "mcts.uct_calls": (ratio(count("mcts.uct"), decisions), "mcts.uct"),
        "mcts.uct_us": (mean_us("mcts.uct"), "mcts.uct"),
        "mcts.rollout_self_us": (mean_us("mcts.rollout", "self"), "mcts.rollout"),
        "mcts.self_share": (ratio(total("mcts.stage", "self"), decision_s), "mcts.stage"),
        "cache.lookup_hit_us": (mean_us("cache.lookup.hit"), "cache.lookup.hit"),
        "cache.lookup_miss_us": (mean_us("cache.lookup.miss"), "cache.lookup.miss"),
        "cache.key_us": (mean_us("cache.key"), "cache.key"),
        "cache.store_us": (mean_us("cache.store"), "cache.store"),
        "orchestrator.handle_self_us": (mean_us("orchestrator.handle", "self"), "orchestrator.handle"),
        "orchestrator.plan_greedy_ms": (mean_us("orchestrator.plan") / 1e3, "orchestrator.plan"),
    }
    for name, (value, span) in per_span.items():
        out.metrics[name] = value
        out.samples[name] = count(span)


# -- slot_loop_127 ------------------------------------------------------------


def run_slot_loop(spec: SlotSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    params = hoplite.channel.LinkParams()
    slot_s, packet_bits = 0.1, 1500 * 8.0

    def build():
        t0 = clock()
        grid = hoplite.geometry.generate_grid(spec.rings)
        t1 = clock()
        budget = hoplite.channel.build_link_budget(grid, params)
        t2 = clock()
        c0 = hoplite.scoring.omega_max_for(budget, params, 1, slot_s) / packet_bits
        rates = clustered_demand(np.random.default_rng([seed, 1]), grid, spec.load, spec.beams, c0)
        ctx = hoplite.scoring.make_score_context(
            grid,
            budget,
            params,
            np.zeros(grid.n_cells),
            slot_s=slot_s,
            packet_bits=packet_bits,
            ds_km=grid.cell_diameter,
            omega_max=hoplite.scoring.omega_max_for(budget, params, spec.beams, slot_s),
            backend="sliding",
        )
        state = hoplite.traffic.make_queue_state(
            grid.n_cells, rates, ttl=spec.ttl, packet_bits=packet_bits
        )
        arrivals = np.random.default_rng([seed, 2])
        t3 = clock()
        for _ in range(spec.warm_slots):
            pattern = hoplite.baselines.pattern_greedy(state.totals(), spec.beams)
            caps = hoplite.channel.pattern_capacities(pattern, budget, params, grid.n_cells)
            state = hoplite.traffic.advance_slot(state, pattern, caps, slot_s, rng=arrivals).queue_after
        t4 = clock()
        return (t4 - t0, t1 - t0, t2 - t1, t4 - t3), (grid, budget, ctx, state, arrivals)

    timings = []
    grid, budget, ctx, state, arrivals = repeated_setup(build, (spec.setup_reps + 1) // 2, timings)
    n = grid.n_cells

    slots = []  # (slot, totals, pattern, seconds, arrivals, served bits, dropped, identity ok, start)
    phase_stats = []
    tracer = Tracer() if trace else None
    slot = 0
    for phase_s, traced in phases(seconds, trace):
        if traced:
            tracer.install()
        first = len(slots)
        refs = []
        gc.collect()
        for _ in range(REF_PER_SLOT):
            reference_kernel(refs)
        start = clock()
        try:
            while True:
                done = slots[first:]
                if done and clock() - start + median([s[3] for s in done]) / 2 > phase_s:
                    break
                totals = state.totals()
                cfg = hoplite.mcts.MctsConfig(max_iterations=spec.iterations, rng_seed=(seed, slot))
                out.attempted += 1
                t0 = clock()
                try:
                    if traced:
                        tracer.request_id = slot
                        with tracer.span("slot.decision"):
                            pattern = hoplite.mcts.compute_pattern_mcts(ctx, totals, spec.beams, cfg)
                    else:
                        pattern = hoplite.mcts.compute_pattern_mcts(ctx, totals, spec.beams, cfg)
                except Exception:
                    out.failed += 1
                    pattern = None
                dt = clock() - t0
                served_pattern = (
                    pattern
                    if valid_plan([pattern] if pattern else [], 1, spec.beams, n)
                    else hoplite.baselines.pattern_greedy(totals, spec.beams)
                )
                caps = hoplite.channel.pattern_capacities(served_pattern, budget, params, n)
                step = hoplite.traffic.advance_slot(state, served_pattern, caps, slot_s, rng=arrivals)
                after = step.queue_after.totals()
                identity = np.array_equal(
                    step.arrivals - step.served_packets - step.dropped_packets, after - totals
                )
                slots.append(
                    (slot, totals, pattern, dt, int(step.arrivals.sum()),
                     float(step.served_bits.sum()), int(step.dropped_packets.sum()), identity, t0)
                )
                state = step.queue_after
                slot += 1
                for _ in range(REF_PER_SLOT):
                    reference_kernel(refs)
        finally:
            if traced:
                tracer.uninstall()
        phase_stats.append((slots[first:], clock() - start, refs))

    # Checks.
    patterns = [s[2] for s in slots if s[2] is not None]
    bad = sum(not valid_plan([p], 1, spec.beams, n) for p in patterns)
    out.check("patterns_valid", bad, len(patterns), f"({spec.beams} distinct ids of {n})")
    out.check("slot_identity", sum(not s[7] for s in slots), len(slots),
              "(arrivals - served - dropped == delta total, per cell)")
    s0 = slots[0]
    again = hoplite.mcts.compute_pattern_mcts(
        ctx, s0[1], spec.beams,
        hoplite.mcts.MctsConfig(max_iterations=spec.iterations, rng_seed=(seed, s0[0])),
    )
    out.check("decision_recomputed", int(tuple(again) != tuple(s0[2] or ())), 1, "(first slot)")

    time.sleep(SETUP_GAP_S)
    repeated_setup(build, spec.setup_reps - len(timings), timings)
    m = out.metrics
    m["setup_s"], m["geometry.grid_s"], m["channel.budget_s"], m["bench.warmup_s"] = (
        setup_medians(timings))
    out.samples.update(dict.fromkeys(("geometry.grid_s", "channel.budget_s", "bench.warmup_s"),
                                     len(timings)))

    # End-to-end metrics from the untraced phase.
    timed, elapsed, refs = phase_stats[0]
    dec_ms = [s[3] * 1e3 for s in timed]
    arrived = sum(s[4] for s in timed)
    out.metrics["latency_p50_ref"], n_ref = in_ref([(s[8], s[8] + s[3], s[3]) for s in timed], refs)
    out.metrics["served_ratio"] = ratio(sum(s[5] for s in timed), arrived * packet_bits)
    out.metrics["peak_rss_mb"] = peak_rss_mb()

    out.show("setup_s", out.metrics["setup_s"], "s", len(timings))
    out.show("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", 1)
    out.show("decisions_per_s", ratio(len(timed), elapsed), "1/s", len(timed))
    out.show("decision_ms_p50", median(dec_ms), "ms", len(timed))
    out.show("latency_p50_ref", out.metrics["latency_p50_ref"], "ref", n_ref)
    out.show("ref_kernel_ms", median([d for _, d in refs]) * 1e3, "ms", len(refs))
    out.show("served_gbit_per_slot", ratio(sum(s[5] for s in timed), len(timed)) / 1e9, "Gbit", len(timed))
    out.show("drop_ratio", ratio(sum(s[6] for s in timed), arrived), "ratio", len(timed))
    out.show("served_ratio", out.metrics["served_ratio"], "ratio", len(timed))

    if trace:
        traced_slots, _, traced_refs = phase_stats[1]
        decision_s = sum(s[3] for s in traced_slots)
        layer_metrics(out, tracer.summary(), len(traced_slots), len(traced_slots), decision_s)
        traced_ref, n_traced = in_ref([(s[8], s[8] + s[3], s[3]) for s in traced_slots], traced_refs)
        out.metrics["bench.trace_overhead"] = ratio(traced_ref, out.metrics["latency_p50_ref"])
        out.samples["bench.trace_overhead"] = n_traced
        out.tracer = tracer
    return out


# -- serve_warm_37 and serve_cold_127 -----------------------------------------


class _ErrorCounter(logging.Handler):
    """Counts exceptions that executor callbacks log instead of raising."""

    def __init__(self):
        super().__init__()
        self.errors = 0

    def emit(self, record):
        if record.exc_info is not None:
            self.errors += 1


@dataclass
class _Request:
    index: int
    kind: str  # "hot" | "fresh"
    hot_class: int
    demand: np.ndarray
    due: float = 0.0
    done: float = 0.0
    response: object = None


def _serve_phase(planner, requests, rate, tracer, late, completions, peaks, refs):
    """Open loop at a fixed rate; latency is counted from each due time.

    The reference kernel runs in the gaps, where it delays no request.
    """
    interval = 1.0 / rate
    t0 = clock() + 0.01
    last_completed = planner.stats()["jobs_completed"]
    for j, req in enumerate(requests):
        req.due = t0 + j * interval
        wait_until(req.due)
        late.append(clock() - req.due)
        if tracer is not None:
            tracer.request_id = req.index
        try:
            req.response = planner.handle_request(
                hoplite.orchestrator.PlanRequest(req.demand, request_id=req.index)
            )
        except Exception:
            req.response = None
        req.done = clock()
        st = planner.stats()
        peaks[0] = max(peaks[0], st["waiting"])
        peaks[1] = max(peaks[1], st["inflight"])
        if st["jobs_completed"] != last_completed:
            last_completed = st["jobs_completed"]
            completions.append((req.done, last_completed))
        if t0 + (j + 1) * interval - clock() > REF_GAP_S:
            reference_kernel(refs)
    return clock() - t0


def _plans_per_s(completions, elapsed: float, completed: int) -> float:
    """Background plans per second, between the first and last completion seen."""
    if len(completions) >= 2:
        (t_a, n_a), (t_b, n_b) = completions[0], completions[-1]
        if t_b > t_a:
            return (n_b - n_a) / (t_b - t_a)
    return ratio(completed, elapsed)


def run_serve(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    orch = hoplite.orchestrator
    params = hoplite.channel.LinkParams()
    settings = orch.PlannerSettings(beams=spec.beams, horizon_slots=spec.horizon)
    mcts_cfg = hoplite.mcts.MctsConfig(max_iterations=spec.iterations)

    built = []

    def build():
        if built:
            built.pop().close()  # no job was submitted, so no worker was started
        t0 = clock()
        grid = hoplite.geometry.generate_grid(spec.rings)
        t1 = clock()
        budget = hoplite.channel.build_link_budget(grid, params)
        t2 = clock()
        planner = orch.HybridPlanner(
            grid, params, settings, mcts_cfg=mcts_cfg, mode="process", max_workers=1,
            beta=spec.beta,
        )
        built.append(planner)
        return (clock() - t0, t1 - t0, t2 - t1), (grid, budget, planner)

    timings = []
    grid, budget, planner = repeated_setup(build, (spec.setup_reps + 1) // 2, timings)
    n = grid.n_cells

    # Inputs: hot classes, then the request stream; every class is distinct.
    cache = planner.cache
    c0 = orch.default_c_max(budget, params, settings)
    rng = np.random.default_rng([seed, 3])
    registry = ClassRegistry(cache.discretize)

    def draw():
        return clustered_demand(rng, grid, spec.load, spec.beams, c0)

    hot = [registry.fresh(draw) for _ in range(spec.hot_classes)]
    warmup = hot if hot else [registry.fresh(draw)]
    n_requests = max(1, int(round(seconds * spec.rate_per_s)))
    requests = []
    for i in range(n_requests):
        if hot and rng.random() < spec.hot_share:
            c = int(rng.integers(len(hot)))
            demand = same_class_variant(rng, registry, hot[c], cache.c_max, cache.beta)
            requests.append(_Request(i, "hot", c, demand))
        else:
            requests.append(_Request(i, "fresh", -1, registry.fresh(draw)))

    # Warm-up: fill the hot set (or just start the worker), untimed.
    t0 = clock()
    for i, demand in enumerate(warmup):
        planner.handle_request(orch.PlanRequest(demand, request_id=-1 - i))
    if hot and not planner.drain(timeout=600):
        raise RuntimeError("background jobs did not finish during warm-up")
    out.metrics["bench.warmup_s"] = clock() - t0
    out.samples["bench.warmup_s"] = 1

    tracer = Tracer() if trace else None
    late = []
    phase_data = []
    offset = 0
    for phase_s, traced in phases(seconds, trace):
        count = n_requests - offset if not trace or traced else int(round(phase_s * spec.rate_per_s))
        chunk = requests[offset:offset + count]
        offset += count
        completions, phase_peaks, refs = [], [0, 0], []
        before = (planner.stats(), cache.stats())
        gc.collect()
        if traced:
            tracer.install()
        try:
            elapsed = _serve_phase(planner, chunk, spec.rate_per_s, tracer if traced else None,
                                   late if not traced else [], completions, phase_peaks, refs)
        finally:
            if traced:
                tracer.uninstall()
        after = (planner.stats(), cache.stats())
        phase_data.append((chunk, elapsed, completions, before, after, phase_peaks, refs))
    out.attempted = len(requests)
    out.failed = sum(r.response is None for r in requests)
    answered = [r for r in requests if r.response is not None]

    # Checks, while the worker finishes its current job on the other core.
    out.check("plans_valid",
              sum(not valid_plan(r.response.bhtp, spec.horizon, spec.beams, n) for r in answered),
              len(answered), f"({spec.horizon} rows of {spec.beams} distinct ids of {n})")
    expected = {"hot": "cache", "fresh": "online_greedy"}
    out.check("sources", sum(r.response.source != expected[r.kind] for r in answered),
              len(answered), "(hot -> cache, fresh -> online_greedy)")
    bad = checked = 0
    for c, demand in enumerate(hot):
        reference = orch.plan_bhtp(cache.discretize(demand), grid, budget, params, settings,
                                   "mcts", mcts_cfg)
        for r in answered:
            if r.hot_class == c and r.response.source == "cache":
                checked += 1
                bad += r.response.bhtp != reference
    out.check("cache_answers", bad, checked, "(== mcts plan of the discretized demand)")
    greedy = [r for r in answered if r.response.source == "online_greedy"]
    check_rng = np.random.default_rng([seed, 4])
    if spec.greedy_check is not None and len(greedy) > spec.greedy_check:
        picks = check_rng.choice(len(greedy), spec.greedy_check, replace=False)
        greedy = [greedy[i] for i in sorted(picks)]
        detail = f"(seeded sample of {spec.greedy_check})"
    else:
        detail = "(all)"
    bad = sum(
        r.response.bhtp != orch.plan_bhtp(r.demand, grid, budget, params, settings, "greedy")
        for r in greedy
    )
    out.check("greedy_answers", bad, len(greedy), detail)

    # Served ratio: replay returned plans against the request's own demand.
    timed = [r for r in phase_data[0][0] if r.response is not None]
    picks = check_rng.choice(len(timed), min(spec.replay_sample, len(timed)), replace=False)
    ratios = []
    for i in sorted(picks):
        r = timed[i]
        sim = orch.simulate_bhtp(r.response.bhtp, r.demand, grid, budget, params, settings)
        offered = spec.horizon * np.rint(r.demand).sum() * settings.packet_bits
        ratios.append(ratio(sim["served_bits"], offered))

    # Teardown: closing with jobs still waiting makes the done-callback submit
    # to a shut-down executor; that error is logged, so count it.
    counter = _ErrorCounter()
    futures_log = logging.getLogger("concurrent.futures")
    futures_log.addHandler(counter)
    try:
        planner.close()
    finally:
        futures_log.removeHandler(counter)
    out.metrics["orchestrator.teardown_errors"] = counter.errors
    out.samples["orchestrator.teardown_errors"] = 1
    out.metrics["peak_rss_mb"] = peak_rss_mb()

    time.sleep(SETUP_GAP_S)
    built.pop()  # closed above
    repeated_setup(build, spec.setup_reps - len(timings), timings)
    built.pop().close()
    m = out.metrics
    m["setup_s"], m["geometry.grid_s"], m["channel.budget_s"] = setup_medians(timings)
    out.samples.update(dict.fromkeys(("geometry.grid_s", "channel.budget_s"), len(timings)))

    # End-to-end metrics from the untraced phase.
    chunk, elapsed, completions, before, after, _, refs = phase_data[0]
    lat = {k: [(r.done - r.due) * 1e3 for r in chunk if r.response is not None and r.kind == k]
           for k in ("hot", "fresh")}
    completed = after[0]["jobs_completed"] - before[0]["jobs_completed"]
    plans_per_s = _plans_per_s(completions, elapsed, completed)
    primary = "hot" if hot else "fresh"
    out.metrics["latency_p50_ref"], n_ref = in_ref(
        [(r.due, r.done, r.done - r.due) for r in chunk
         if r.response is not None and r.kind == primary], refs)
    out.metrics["served_ratio"] = float(np.mean(ratios)) if ratios else 0.0
    late_p99 = float(np.percentile(late, 99)) * 1e3 if late else 0.0
    out.metrics["bench.late_ms_p99"] = late_p99
    out.samples["bench.late_ms_p99"] = len(late)

    out.show("setup_s", out.metrics["setup_s"], "s", len(timings))
    out.show("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", 1)
    for kind, label in (("hot", "hit"), ("fresh", "miss")):
        if lat[kind]:
            out.show(f"{label}_ms_p50", median(lat[kind]), "ms", len(lat[kind]))
            out.show(f"{label}_ms_p99", p99(lat[kind]), "ms", len(lat[kind]))
    out.show("latency_p50_ref", out.metrics["latency_p50_ref"], "ref", n_ref)
    out.show("ref_kernel_ms", median([d for _, d in refs]) * 1e3, "ms", len(refs))
    if hot:
        out.show("plans_per_s", plans_per_s, "1/s", max(0, len(completions) - 1))
    else:
        out.show("answers_per_s", ratio(len(lat["fresh"]), elapsed), "1/s", len(lat["fresh"]))
    out.show("served_ratio", out.metrics["served_ratio"], "ratio", len(ratios))
    out.show("bench.late_ms_p99", late_p99, "ms", len(late))
    out.show("orchestrator.teardown_errors", counter.errors, "count", 1)

    if trace:
        chunk, elapsed, completions, before, after, phase_peaks, traced_refs = phase_data[1]
        layer_metrics(out, tracer.summary(), len(chunk), 0, 0.0)
        ps, cs = before
        pa, ca = after
        hits, misses = ca["hits"] - cs["hits"], ca["misses"] - cs["misses"]
        coalesced = pa["coalesced"] - ps["coalesced"]
        completed = pa["jobs_completed"] - ps["jobs_completed"]
        enqueued = (pa["online_misses"] - ps["online_misses"]) - coalesced
        out.metrics.update({
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": ratio(hits, hits + misses),
            "cache.collisions": ca["collisions"] - cs["collisions"],
            "orchestrator.jobs_completed": completed,
            "orchestrator.jobs_dropped": pa["dropped_jobs"] - ps["dropped_jobs"],
            "orchestrator.jobs_failed": pa["jobs_failed"] - ps["jobs_failed"],
            "orchestrator.coalesced": coalesced,
            "orchestrator.job_yield": ratio(completed, enqueued),
            "orchestrator.waiting_max": phase_peaks[0],
            "orchestrator.inflight_max": phase_peaks[1],
        })
        traced_ref, n_traced = in_ref(
            [(r.due, r.done, r.done - r.due) for r in chunk
             if r.response is not None and r.kind == primary], traced_refs)
        out.metrics["bench.trace_overhead"] = ratio(traced_ref, out.metrics["latency_p50_ref"])
        # Counters are deltas over the traced requests; ratios rest on their denominators.
        for name in ("cache.hits", "cache.misses", "cache.collisions", "orchestrator.jobs_completed",
                     "orchestrator.jobs_dropped", "orchestrator.jobs_failed",
                     "orchestrator.coalesced", "orchestrator.waiting_max",
                     "orchestrator.inflight_max"):
            out.samples[name] = len(chunk)
        out.samples["cache.hit_ratio"] = hits + misses
        out.samples["orchestrator.job_yield"] = enqueued
        out.samples["bench.trace_overhead"] = n_traced
        out.tracer = tracer
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    if isinstance(spec, SlotSpec):
        return run_slot_loop(spec, seed, seconds, trace)
    return run_serve(spec, seed, seconds, trace)
