#!/usr/bin/env python3
"""Digests of seeded hoplite outputs, for checking that a change is bit-identical.

Run it on two source trees and diff the printed JSON; any difference is a
change in behaviour:

    PYTHONPATH=<tree>/src python scripts/digest_outputs.py [OUT.json]

Sections:
  rings<r>.*   both scorers on 3000 seeded patterns (Ds of 0, 1, 1.5, 3 and 100
               cell diameters: the empty window, both sides of the subset
               table's window limit and the whole grid), `score_batch` on
               the same patterns on the Ds context and on a
               `backend="bruteforce"` one (`batch_sliding`, `batch_brute`),
               `score_pattern` and `score_batch` on a `ds_km=math.inf` one
               (`unbounded`, `batch_unbounded`); the script exits non-zero
               unless the batch scores equal the scalar scores, and the
               unbounded scores the brute-force ones, bit for bit. Then
               plain and pruned MCTS patterns, greedy and MCTS plans, on
               20 demand vectors at rings 3 and at rings 6;
  run_all.*    every sweep of `run_all` on a small config, once with defaults
               and once with pruning, prune_width=4 and the full-pair scorer
               (`ds_diameters=math.inf`; timing columns stripped);
  search       pattern and rollout-score list of 60 seeded MCTS searches,
               above and below the root candidate count, plain and pruned;
  planner.*    sync-, thread- and process-mode planners fed a fixed request
               sequence (repeats and new classes), drained after each
               request: every answer's source and plan, and the counters;
  classes.*    the plan-cache key (`key_for`, hex) and a digest of the
               `discretize` bytes of 20 fixed demand vectors on two grids
               (beta 4 at the 37-cell c_max, and beta 3 on c_max 10, whose
               grid points have no exact float32 form): seeded random
               vectors, exact half-step ties, the floats just below and
               above them, values above c_max, c_max itself and zeros.

Takes a few minutes on two cores.
"""

import hashlib
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from hoplite.cache import BhtpCache
from hoplite.channel import LinkParams, build_link_budget
from hoplite.geometry import generate_grid
from hoplite.harness import ExperimentConfig, run_all, scaled_demand, strip_timing_columns
from hoplite.mcts import MctsConfig, compute_pattern_mcts, compute_pattern_mcts_traced
from hoplite.orchestrator import (
    HybridPlanner,
    PlannerSettings,
    PlanRequest,
    default_c_max,
    plan_bhtp,
)
from hoplite.scoring import (
    make_score_context,
    omega_max_for,
    score_batch,
    score_bruteforce,
    score_pattern,
    score_sliding_window,
)

TIMING_KEYS = {"mean_pattern_time_s", "stdev_pattern_time_s", "bruteforce_per_score_s",
               "sliding_per_score_s", "speedup", "per_score_time_s"}
PARAMS = LinkParams()


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def untimed(obj):
    if isinstance(obj, dict):
        return {k: untimed(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [untimed(v) for v in obj]
    return obj


def system(rings: int):
    grid = generate_grid(rings)
    budget = build_link_budget(grid, PARAMS)
    beams = grid.n_cells // 4
    return grid, budget, beams, ExperimentConfig(rings=rings)


def scorers_and_plans(out: dict) -> list[str]:
    """Fills ``out``; returns the sections whose scores differ from the
    scalar scorer's they must equal."""
    mismatched = []
    for rings in (3, 6):
        grid, budget, beams, cfg = system(rings)
        n = grid.n_cells
        settings = PlannerSettings(beams=beams, horizon_slots=3)
        c0 = default_c_max(budget, PARAMS, settings)
        res = {k: [] for k in ("mcts", "mcts_pruned", "greedy", "plan_mcts", "brute", "sliding",
                               "batch_brute", "batch_sliding", "unbounded", "batch_unbounded")}
        for i in range(20):
            rates = scaled_demand(grid, 0.6 + 0.05 * i, beams, c0, cfg, seed=1000 + i)
            totals = np.rint(rates * 3)
            mc = MctsConfig(max_iterations=40, rng_seed=(rings, i))
            omega_max = omega_max_for(budget, PARAMS, beams, 0.1)
            unbounded = make_score_context(grid, budget, PARAMS, totals, ds_km=math.inf,
                                           omega_max=omega_max)
            for ds in (0.0, 1.0, 1.5, 3.0, 100.0):
                ctx, brute_ctx = (
                    make_score_context(grid, budget, PARAMS, totals,
                                       ds_km=ds * grid.cell_diameter, backend=backend,
                                       omega_max=omega_max)
                    for backend in ("sliding", "bruteforce"))
                rng = np.random.default_rng((rings, i, int(2 * ds)))
                patterns = []
                for _ in range(30):
                    p = tuple(int(c) for c in rng.choice(n, size=beams, replace=False))
                    res["brute"].append(score_bruteforce(p, ctx, beams).hex())
                    res["sliding"].append(score_sliding_window(p, ctx, beams).hex())
                    res["unbounded"].append(score_pattern(p, unbounded, beams).hex())
                    patterns.append(p)
                for key, c in (("batch_sliding", ctx), ("batch_brute", brute_ctx),
                               ("batch_unbounded", unbounded)):
                    res[key].extend(s.hex() for s in score_batch(np.array(patterns), c).tolist())
            ctx = make_score_context(grid, budget, PARAMS, totals, omega_max=omega_max)
            res["mcts"].append(compute_pattern_mcts(ctx, totals, beams, mc))
            res["mcts_pruned"].append(compute_pattern_mcts(
                ctx, totals, beams, replace(mc, pruning_enabled=True)))
            res["greedy"].append(plan_bhtp(rates, grid, budget, PARAMS,
                                           replace(settings, horizon_slots=30), "greedy"))
            res["plan_mcts"].append(plan_bhtp(rates, grid, budget, PARAMS, settings, "mcts",
                                              replace(mc, max_iterations=20)))
        for k, v in res.items():
            out[f"rings{rings}.{k}"] = f"{len(v)} items {digest(v)}"
        expected = {"batch_brute": "brute", "batch_sliding": "sliding",
                    "unbounded": "brute", "batch_unbounded": "brute"}
        mismatched += [f"rings{rings}.{k} != {v}" for k, v in expected.items()
                       if res[k] != res[v]]
    return mismatched


def sweeps(out: dict):
    variants = (("", {}),
                ("pruned_brute.", {"mcts_pruning": True, "prune_width": 4,
                                   "ds_diameters": math.inf}))
    for tag, extra in variants:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = ExperimentConfig(
                **extra, rings=2, demand_levels=(0.5, 1.0), seeds=(0, 1), horizon_slots=5,
                algorithms=("periodic", "random", "greedy", "mcts", "ga"),
                mcts_iterations=20, ga_population=10, ga_generations=3,
                beta_levels=(2, 4), ds_levels=(1.0, 2.0), bench_rings=(2, 3),
                sweeps=("throughput", "timing", "convergence", "scoring", "beta", "ds"),
                output_dir=tmp)
            for name, path in sorted(run_all(cfg).items()):
                text = Path(path).read_text()
                body = (strip_timing_columns(text) if path.suffix == ".csv"
                        else untimed(json.loads(text)))
                out[f"run_all.{tag}{name}"] = digest(body)
            throughput = json.loads((Path(tmp) / "throughput.json").read_text())
            out[f"run_all.{tag}throughput.json"] = digest(untimed(throughput))


def searches(out: dict):
    found = {}
    for rings, inputs in ((3, 8), (6, 4)):
        grid, budget, beams, cfg = system(rings)
        n = grid.n_cells
        c0 = default_c_max(budget, PARAMS, PlannerSettings(beams=beams))
        # (iterations, pruning, width): 200 and 50 per stage, on both sides of
        # the root candidate count (n unpruned; beams or n // 2 pruned).
        cases = [(200, False, None), (50, False, None), (200, True, None),
                 (50, True, None), (50, True, n // 2)]
        for i in range(inputs):
            rates = scaled_demand(grid, 1.3, beams, c0, cfg, seed=2000 + i)
            totals = np.rint(rates * 5)
            ctx = make_score_context(grid, budget, PARAMS, totals,
                                     omega_max=omega_max_for(budget, PARAMS, beams, 0.1))
            for iters, pruning, width in cases:
                mc = MctsConfig(max_iterations=iters, pruning_enabled=pruning,
                                prune_width=width, rng_seed=(rings, i, iters))
                pattern, trace = compute_pattern_mcts_traced(ctx, totals, beams, mc)
                scores = hashlib.sha256(
                    repr([s.hex() for s in trace.iteration_scores]).encode()).hexdigest()[:16]
                kind = f"pruned{width}" if pruning else "plain"
                found[f"rings{rings}.in{i}.it{iters}.{kind}"] = {
                    "pattern": list(pattern), "scores": scores,
                    "rollouts": len(trace.iteration_scores)}
    total = hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()[:16]
    out["search"] = f"{len(found)} searches {total}"


def planner_requests(out: dict):
    grid, budget, beams, cfg = system(3)
    settings = PlannerSettings(beams=beams, horizon_slots=6)
    c0 = default_c_max(budget, PARAMS, settings)
    classes = [scaled_demand(grid, 0.5 + 0.25 * k, beams, c0, cfg, seed=3000 + k)
               for k in range(4)]
    # Demand classes in request order: repeats and new classes.
    sequence = [0, 0, 1, 0, 0, 2, 1, 3, 3, 3, 0, 2, 2, 1]
    for mode in ("sync", "thread", "process"):
        planner = HybridPlanner(grid, PARAMS, settings, mode=mode, beta=4,
                                mcts_cfg=MctsConfig(max_iterations=20, rng_seed=0))
        answers = []
        with planner:
            for i, k in enumerate(sequence):
                response = planner.handle_request(PlanRequest(classes[k], request_id=i))
                if not planner.drain(timeout=600):
                    raise RuntimeError(f"{mode} planner did not drain after request {i}")
                answers.append((response.source, response.bhtp))
        out[f"planner.{mode}.sources"] = " ".join(
            "c" if source == "cache" else "g" for source, _ in answers)
        out[f"planner.{mode}.plans"] = f"{len(answers)} requests {digest(answers)}"
        out[f"planner.{mode}.stats"] = json.dumps(planner.stats(), sort_keys=True)


def classes(out: dict):
    grid, budget, beams, cfg = system(3)
    n = grid.n_cells
    c0 = default_c_max(budget, PARAMS, PlannerSettings(beams=beams))
    for c_max, beta, key_bytes in ((c0, 4, 4), (10.0, 3, 8)):
        step = c_max / beta
        rng = np.random.default_rng(4000 + beta)
        ties = (np.arange(n) % (beta + 1) + 0.5) * step
        vectors = [rng.uniform(0.0, 1.2 * c_max, n) for _ in range(13)] + [
            ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), ties + c_max,
            np.full(n, c_max), np.full(n, 1e300), np.zeros(n)]
        cache = BhtpCache(c_max=c_max, beta=beta, key_bytes=key_bytes)
        out[f"classes.beta{beta}.keys"] = " ".join(cache.key_for(v).hex() for v in vectors)
        wire = b"".join(cache.discretize(v).tobytes() for v in vectors)
        out[f"classes.beta{beta}.discretized"] = (
            f"{len(vectors)} vectors {hashlib.sha256(wire).hexdigest()[:16]}")


def main() -> int:
    out = {}
    mismatched = scorers_and_plans(out)
    for section in (sweeps, searches, planner_requests, classes):
        section(out)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text)
    print(text, end="")
    for key in mismatched:
        print(f"scores differ: {key}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
