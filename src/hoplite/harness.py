"""Experiment harness: seeded sweeps, timing benches, and metric files.

Demand levels are expressed as offered load divided by best-case system
capacity (beam count x one beam-slot's packet capacity), so level 1.0 means
the system is offered exactly what it could serve with every beam boresight
and interference-free. Hotspot cells concentrate the load to make scheduler
quality visible.

All sweeps are deterministic under their seed lists; wall-clock columns are
the only nondeterministic outputs and are named in TIMING_COLUMNS so
consumers can exclude them when comparing runs.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import (
    GaConfig,
    pattern_ga,
    pattern_greedy,
    pattern_periodic,
    pattern_random,
)
from .channel import LinkParams
from .geometry import generate_grid
from .mcts import MctsConfig, compute_pattern_mcts, compute_pattern_mcts_traced
from .orchestrator import HybridPlanner, PlannerSettings, PlanRequest, System
from .scoring import score_bruteforce, score_sliding_window
from .traffic import generate_clustered_demand, generate_demand

# Columns whose values are wall-clock measurements; excluded from
# reproducibility comparisons.
TIMING_COLUMNS = ("mean_pattern_time_s",)


@dataclass(frozen=True)
class ExperimentConfig:
    rings: int = 3
    cell_diameter_km: float = 942.0
    beams: int | None = None  # None -> floor(N/4)
    demand_levels: tuple = (0.2, 0.5, 0.8, 1.0, 1.2)
    algorithms: tuple = ("periodic", "random", "greedy", "mcts")
    seeds: tuple = (0, 1, 2)
    horizon_slots: int = 30
    # Unmetered lead-in slots so throughput is measured at steady state
    # rather than during the cold-start queue build-up.
    warmup_slots: int = 0
    slot_s: float = 0.1
    packet_bits: float = 1500 * 8.0
    ttl_slots: int = 20
    ds_diameters: float = 1.0  # math.inf (JSON Infinity) -> full-pair scoring
    demand_profile: str = "clustered"  # "clustered" | "uniform" hotspot layout
    hotspot_count: int = 12
    hotspot_multiplier: float = 6.0
    mcts_iterations: int = 200
    mcts_exploration: float = math.sqrt(2.0)
    mcts_pruning: bool = False
    prune_width: int | None = None
    ga_population: int = 60
    ga_generations: int = 10
    beta_levels: tuple = (2, 4, 6, 8, 10)
    ds_levels: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)
    bench_rings: tuple = (3, 4, 5, 6)
    sweeps: tuple = ("throughput",)
    output_dir: str = "results"

    def beams_for(self, n_cells: int) -> int:
        return self.beams if self.beams is not None else n_cells // 4


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; unknown keys are rejected, lists become tuples."""
    with open(path) as fh:
        raw = json.load(fh)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cleaned = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in raw.items()
    }
    return ExperimentConfig(**cleaned)


@dataclass(frozen=True)
class MetricsRecord:
    sweep: str
    algorithm: str
    n_cells: int
    beams: int
    demand_level: float
    seed: int
    served_bits: float
    dropped_packets: int
    final_backlog: int
    mean_pattern_time_s: float


def build_system(cfg: ExperimentConfig, rings: int | None = None) -> System:
    """The system a sweep plans for: cfg's settings on a grid of ``rings``
    rings (None -> cfg.rings)."""
    grid = generate_grid(cfg.rings if rings is None else rings, cfg.cell_diameter_km)
    settings = PlannerSettings(
        beams=cfg.beams_for(grid.n_cells), horizon_slots=cfg.horizon_slots, slot_s=cfg.slot_s,
        packet_bits=cfg.packet_bits, ttl_slots=cfg.ttl_slots,
        ds_km=cfg.ds_diameters * grid.cell_diameter,
    )
    return System(grid, LinkParams(), settings)


def scaled_demand(grid, level: float, beams: int, c0_packets: float, cfg: ExperimentConfig, seed: int):
    """Hotspotted arrival rates whose total equals level x system capacity."""
    if cfg.demand_profile == "clustered":
        generator = generate_clustered_demand
    elif cfg.demand_profile == "uniform":
        generator = generate_demand
    else:
        raise ValueError(f"unknown demand profile {cfg.demand_profile!r}")
    base = generator(grid, 1.0, cfg.hotspot_count, cfg.hotspot_multiplier, seed)
    target_total = level * beams * c0_packets
    total = float(base.sum())
    return base * (target_total / total) if total > 0 else base


def _entropy(*parts) -> tuple:
    return tuple(int(p) for p in parts)


def _mcts_config(cfg: ExperimentConfig) -> MctsConfig:
    return MctsConfig(
        max_iterations=cfg.mcts_iterations,
        exploration_constant=cfg.mcts_exploration,
        pruning_enabled=cfg.mcts_pruning,
        prune_width=cfg.prune_width,
    )


def _pattern_fn(alg: str, system: System, seed: int, level_key: int, cfg: ExperimentConfig):
    """The slot chooser of ``alg``; only the searches build score contexts."""
    n, beams = system.grid.n_cells, system.settings.beams
    if alg == "periodic":
        return lambda totals, slot: pattern_periodic(n, beams, slot)
    if alg == "random":
        rng = np.random.default_rng(_entropy(seed, level_key, 7))
        return lambda totals, slot: pattern_random(n, beams, rng)
    if alg == "greedy":
        return lambda totals, slot: pattern_greedy(totals, beams)
    if alg == "mcts":
        base = _mcts_config(cfg)
        return lambda totals, slot: compute_pattern_mcts(
            system.score_context(totals), totals, beams,
            replace(base, rng_seed=_entropy(seed, level_key, slot))
        )
    if alg == "ga":
        base = GaConfig(
            population_size=cfg.ga_population, generations=cfg.ga_generations
        )
        return lambda totals, slot: pattern_ga(
            system.score_context(totals), totals, beams,
            replace(base, rng_seed=_entropy(seed, level_key, slot))
        )
    raise ValueError(f"unknown algorithm {alg!r}")


def _simulate_run(alg, rates, system: System, cfg: ExperimentConfig, seed, level) -> MetricsRecord:
    beams = system.settings.beams
    level_key = round(level * 1000)
    warmup = cfg.warmup_slots  # lead-in slots evolve the queues and record nothing
    rng = np.random.default_rng(_entropy(seed, level_key, 1))
    run = system.run(rates, _pattern_fn(alg, system, seed, level_key, cfg),
                     warmup + cfg.horizon_slots, rng)
    return MetricsRecord(
        sweep="throughput",
        algorithm=alg,
        n_cells=system.grid.n_cells,
        beams=beams,
        demand_level=level,
        seed=seed,
        served_bits=run.served_total(warmup),
        dropped_packets=sum(run.dropped_packets[warmup:]),
        final_backlog=run.final_backlog,
        mean_pattern_time_s=statistics.fmean(run.choose_s[warmup:]),
    )


def run_throughput_sweep(cfg: ExperimentConfig) -> list[MetricsRecord]:
    system = build_system(cfg)
    beams, c0 = system.settings.beams, system.c_max
    records = []
    for level in cfg.demand_levels:
        for seed in cfg.seeds:
            rates = scaled_demand(system.grid, level, beams, c0, cfg, seed)
            for alg in cfg.algorithms:
                records.append(_simulate_run(alg, rates, system, cfg, seed, level))
    return records


def run_timing_table(cfg: ExperimentConfig, repeats: int = 10) -> list[dict]:
    """Mean/stdev wall time per emitted pattern, per algorithm and grid size."""
    rows = []
    for rings in cfg.bench_rings:
        system = build_system(cfg, rings)
        n, beams = system.grid.n_cells, system.settings.beams
        totals = np.rint(scaled_demand(system.grid, 1.0, beams, system.c_max, cfg, cfg.seeds[0]))
        for alg in cfg.algorithms:
            fn = _pattern_fn(alg, system, cfg.seeds[0], 1000, cfg)
            fn(totals, 0)  # untimed: the first call pays one-off costs (cold caches, tables)
            times = []
            for rep in range(repeats):
                t0 = time.perf_counter()
                fn(totals, rep)
                times.append(time.perf_counter() - t0)
            rows.append(
                {
                    "algorithm": alg,
                    "n_cells": n,
                    "beams": beams,
                    "repeats": repeats,
                    "mean_pattern_time_s": statistics.fmean(times),
                    "stdev_pattern_time_s": statistics.stdev(times) if repeats > 1 else 0.0,
                }
            )
    return rows


def convergence_iterations(best_so_far: list[float], fraction: float = 0.99) -> int:
    """First iteration index whose running best reaches fraction x final."""
    final = best_so_far[-1]
    threshold = fraction * final
    for i, value in enumerate(best_so_far):
        if value >= threshold:
            return i
    return len(best_so_far) - 1


def run_convergence_trace(cfg: ExperimentConfig) -> dict:
    """Paired pruned/unpruned search traces on one demand snapshot per seed."""
    system = build_system(cfg)
    beams = system.settings.beams
    base_cfg = _mcts_config(cfg)
    out = {"n_cells": system.grid.n_cells, "beams": beams, "seeds": list(cfg.seeds), "runs": []}
    for seed in cfg.seeds:
        totals = np.rint(scaled_demand(system.grid, 1.0, beams, system.c_max, cfg, seed))
        ctx = system.score_context(totals)
        run = {"seed": seed}
        for label, pruned in (("unpruned", False), ("pruned", True)):
            mcfg = replace(
                base_cfg, pruning_enabled=pruned, rng_seed=_entropy(seed, int(pruned))
            )
            _, trace = compute_pattern_mcts_traced(ctx, totals, beams, mcfg)
            best = trace.best_so_far()
            run[label] = {
                "final_score": best[-1],
                "iterations_to_99pct": convergence_iterations(best),
                "best_so_far": best,
            }
        out["runs"].append(run)
    return out


def run_scoring_bench(
    cfg: ExperimentConfig, patterns_per_n: int = 50, repeats: int = 5
) -> list[dict]:
    """Per-score wall time, brute force vs sliding window, across grid sizes.

    Each repeat times both scorers back to back and each keeps its fastest
    pass, so a change in host speed lands on both alike.
    """
    rows = []
    for rings in cfg.bench_rings:
        system = build_system(cfg, rings)
        n, beams = system.grid.n_cells, system.settings.beams
        rng = np.random.default_rng(_entropy(rings, 99))
        totals = rng.integers(0, 20000, size=n).astype(float)
        ctx = system.score_context(totals)
        patterns = [pattern_random(n, beams, rng) for _ in range(patterns_per_n)]
        scorers = (score_bruteforce, score_sliding_window)
        best = [math.inf] * len(scorers)
        for _ in range(repeats):
            for i, scorer in enumerate(scorers):
                t0 = time.perf_counter()
                for p in patterns:
                    scorer(p, ctx, beams)
                best[i] = min(best[i], time.perf_counter() - t0)
        brute, sliding = (seconds / patterns_per_n for seconds in best)
        rows.append(
            {
                "n_cells": n,
                "beams": beams,
                "bruteforce_per_score_s": brute,
                "sliding_per_score_s": sliding,
                "speedup": brute / sliding,
            }
        )
    return rows


def run_beta_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Throughput of the cached plan path as discretization coarsens.

    For each beta the planner is asked twice: the first request fills the
    cache (inline, sync mode), the second returns the stored refined plan,
    which is then replayed against the true (undiscretized) demand. A
    reference row plans directly from the raw demand.
    """
    system = build_system(cfg)
    grid, settings = system.grid, system.settings
    mcts_cfg = _mcts_config(cfg)
    rows = []
    for seed in cfg.seeds:
        rates = scaled_demand(grid, 1.0, settings.beams, system.c_max, cfg, seed)
        reference = system.plan(rates, "mcts", replace(mcts_cfg, rng_seed=_entropy(seed)))
        plans = [(None, reference)]
        for beta in cfg.beta_levels:
            planner = HybridPlanner(
                grid,
                system.params,
                settings,
                mcts_cfg=replace(mcts_cfg, rng_seed=_entropy(seed)),
                mode="sync",
                beta=beta,
                budget=system.budget,
            )
            first = planner.handle_request(PlanRequest(rates))
            assert first.source == "online_greedy"
            second = planner.handle_request(PlanRequest(rates))
            if second.source != "cache":
                raise RuntimeError("sync fill did not populate the cache")
            plans.append((beta, second.bhtp))
        for beta, bhtp in plans:
            sim = system.simulate(bhtp, rates)
            rows.append(
                {
                    "seed": seed,
                    "beta": beta,
                    "served_bits": sim["served_bits"],
                    "dropped_packets": sim["dropped_packets"],
                }
            )
    return rows


def run_ds_sweep(cfg: ExperimentConfig, patterns_per_ds: int = 30) -> list[dict]:
    """Score time and plan quality as the interference window widens.

    The timing repeats cycle through all window sizes and keep each size's
    fastest pass, so a change in host speed lands on every size alike.
    """
    system = build_system(cfg)
    grid = system.grid
    n, beams = grid.n_cells, system.settings.beams
    rng = np.random.default_rng(_entropy(505, n))
    totals = rng.integers(0, 20000, size=n).astype(float)
    patterns = [pattern_random(n, beams, rng) for _ in range(patterns_per_ds)]
    systems = [
        replace(system, settings=replace(system.settings, ds_km=ds * grid.cell_diameter))
        for ds in cfg.ds_levels
    ]
    contexts = [s.score_context(totals) for s in systems]
    best = [math.inf] * len(contexts)
    for _ in range(5):
        for i, ctx in enumerate(contexts):
            t0 = time.perf_counter()
            for p in patterns:
                score_sliding_window(p, ctx, beams)
            best[i] = min(best[i], time.perf_counter() - t0)
    mcts_cfg = replace(_mcts_config(cfg), pruning_enabled=False)  # unpruned search
    rows = []
    for ds, seconds, s in zip(cfg.ds_levels, best, systems):
        rates = scaled_demand(grid, 1.0, beams, s.c_max, cfg, cfg.seeds[0])
        seed = _entropy(cfg.seeds[0], round(ds * 10))
        bhtp = s.plan(rates, "mcts", replace(mcts_cfg, rng_seed=seed))
        sim = s.simulate(bhtp, rates)
        rows.append(
            {
                "ds_diameters": ds,
                "per_score_time_s": seconds / patterns_per_ds,
                "served_bits": sim["served_bits"],
            }
        )
    return rows


# -- output files ------------------------------------------------------------


def write_records_csv(records: list[MetricsRecord], path):
    cols = [f.name for f in fields(MetricsRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in records:
            writer.writerow([getattr(rec, c) for c in cols])


def write_records_json(records: list[MetricsRecord], path):
    write_json([asdict(r) for r in records], path)


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def strip_timing_columns(csv_text: str) -> str:
    """CSV content with TIMING_COLUMNS removed — the reproducible part."""
    lines = csv_text.splitlines()
    if not lines:
        return csv_text
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out) + "\n"


# Sweep name -> (file written, function producing its records).
_SWEEP_RUNNERS = {
    "throughput": ("throughput.csv", run_throughput_sweep),
    "timing": ("timing.json", run_timing_table),
    "convergence": ("convergence.json", run_convergence_trace),
    "scoring": ("scoring_bench.json", run_scoring_bench),
    "beta": ("beta_sweep.json", run_beta_sweep),
    "ds": ("ds_sweep.json", run_ds_sweep),
}


def run_all(cfg: ExperimentConfig) -> dict[str, Path]:
    """Run every sweep named in cfg.sweeps; returns the files written.

    Throughput records go to CSV with a JSON twin; every other sweep to JSON.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for sweep in cfg.sweeps:
        if sweep not in _SWEEP_RUNNERS:
            raise ValueError(f"unknown sweep {sweep!r}")
        filename, run = _SWEEP_RUNNERS[sweep]
        path = outdir / filename
        result = run(cfg)
        if path.suffix == ".csv":
            write_records_csv(result, path)
            write_records_json(result, path.with_suffix(".json"))
        else:
            write_json(result, path)
        written[sweep] = path
    return written
