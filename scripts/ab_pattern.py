#!/usr/bin/env python3
"""Time one MCTS pattern in two source trees, interleaved in one process.

Each tree's ``src/hoplite`` is loaded under its own package name, so both
run side by side on the same interpreter, the same demand and the same
seeds. Pair i times ``compute_pattern_mcts_traced`` once on each side, the
side that goes first swapping from one pair to the next, and records the
ratio change / parent of their CPU times (``time.process_time``, which
leaves out the time the process waits for a CPU). A shared host can change
speed by a large factor within minutes, so medians of separate processes
are hard to compare; ratios of neighbouring calls in one process are not.

Configurations (cells, beams, iterations per stage, search settings):

    37     37 cells,  9 beams, 200 iterations, plain, c = sqrt(2)
    127   127 cells, 31 beams, 200 iterations, plain, c = sqrt(2)
    127p  127 cells, 31 beams, 200 iterations, pruned to the beam count, c = sqrt(2)
    331   331 cells, 82 beams, 200 iterations, plain, c = sqrt(2)
    gates  37 cells,  9 beams, 400 iterations, pruned to width 18, c = 0.5
           (the search settings of ACCEPTANCE-05 and -08)

    python scripts/ab_pattern.py --parent ../parent --change . [--configs 37 gates] [--split]

Prints per configuration the per-pair ratios and their median and
quartiles. Exits 1 if any pair's patterns or rollout-score traces differ.
With ``--split``, each side's ``hoplite.mcts`` functions that score and
predict are wrapped to add up their CPU time, and a pattern's median time
is also printed split into ``score_batch``, the rest of ``_rollout_scores``
(rollout set-up), the prediction and root check (``_predict`` and
``_root_run``, where the tree has them) and the rest (leaf choice, pruned
expansions, the general path's descent, UCT, backup and scalar rollouts).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

CONFIGS = {
    "37": dict(rings=3, beams=9, iterations=200, pruning=False, width=None,
               c=math.sqrt(2.0), pairs=60),
    "127": dict(rings=6, beams=31, iterations=200, pruning=False, width=None,
                c=math.sqrt(2.0), pairs=20),
    "127p": dict(rings=6, beams=31, iterations=200, pruning=True, width=None,
                 c=math.sqrt(2.0), pairs=20),
    "331": dict(rings=10, beams=82, iterations=200, pruning=False, width=None,
                c=math.sqrt(2.0), pairs=4),
    "gates": dict(rings=3, beams=9, iterations=400, pruning=True, width=18,
                  c=0.5, pairs=40),
}


def load_tree(tree: Path, name: str):
    """The ``hoplite`` package of ``tree`` imported as package ``name``."""
    root = tree.resolve() / "src" / "hoplite"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


# Functions of ``hoplite.mcts`` timed by --split; score_batch runs inside
# _rollout_scores.
SPLIT = ("score_batch", "_rollout_scores", "_predict", "_root_run")


class Side:
    """One tree's search entry point and a scoring context for one config."""

    def __init__(self, package: str, spec: dict, totals_seed: int):
        geometry = importlib.import_module(f"{package}.geometry")
        channel = importlib.import_module(f"{package}.channel")
        scoring = importlib.import_module(f"{package}.scoring")
        self.mcts = importlib.import_module(f"{package}.mcts")
        grid = geometry.generate_grid(spec["rings"])
        params = channel.LinkParams()
        budget = channel.build_link_budget(grid, params)
        rng = np.random.default_rng(totals_seed)
        self.totals = rng.integers(0, 20000, size=grid.n_cells).astype(float)
        self.ctx = scoring.make_score_context(
            grid, budget, params, self.totals, slot_s=0.1, ds_km=grid.cell_diameter,
            omega_max=scoring.omega_max_for(budget, params, spec["beams"], 0.1),
        )
        self.spec = spec
        self.spent = None

    def time_parts(self):
        """Wrap the :data:`SPLIT` functions this tree has so that each adds
        its CPU time to ``self.spent``."""
        self.spent = dict.fromkeys(SPLIT, 0.0)
        for name in SPLIT:
            inner = getattr(self.mcts, name, None)
            if inner is None:
                continue

            def timed(*args, _inner=inner, _name=name):
                t0 = time.process_time()
                try:
                    return _inner(*args)
                finally:
                    self.spent[_name] += time.process_time() - t0

            setattr(self.mcts, name, timed)

    def parts(self, elapsed: float) -> dict:
        """The last run's ``elapsed`` CPU time split by layer; zeroes the sums."""
        spent = self.spent
        self.spent = dict.fromkeys(SPLIT, 0.0)
        return {
            "score_batch": spent["score_batch"],
            "rollout set-up": spent["_rollout_scores"] - spent["score_batch"],
            "prediction + root check": spent["_predict"] + spent["_root_run"],
            "rest": elapsed - spent["_rollout_scores"] - spent["_predict"]
            - spent["_root_run"],
        }

    def run(self, seed: int):
        spec = self.spec
        cfg = self.mcts.MctsConfig(
            max_iterations=spec["iterations"], exploration_constant=spec["c"],
            pruning_enabled=spec["pruning"], prune_width=spec["width"], rng_seed=seed,
        )
        t0 = time.process_time()
        pattern, trace = self.mcts.compute_pattern_mcts_traced(
            self.ctx, self.totals, spec["beams"], cfg
        )
        elapsed = time.process_time() - t0
        return elapsed, (pattern, [s.hex() for s in trace.iteration_scores])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(name: str, spec: dict, pairs: int, seed: int, split: bool) -> bool:
    sides = {side: Side(f"ab_{side}", spec, seed) for side in ("parent", "change")}
    for side in sides.values():
        side.run(seed)  # warm-up: first-use tables, imports, caches
        if split:
            side.time_parts()
    ratios, times, same = [], {"parent": [], "change": []}, True
    parts = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        out = {}
        for side in order:
            elapsed, result = sides[side].run(seed + i)
            times[side].append(elapsed)
            out[side] = result
            if split:
                parts[side].append(sides[side].parts(elapsed))
        if out["parent"] != out["change"]:
            same = False
            print(f"{name} pair {i} (rng_seed {seed + i}): outputs differ", flush=True)
        ratios.append(times["change"][-1] / times["parent"][-1])
    q1, med, q3 = quartiles(ratios)
    print(f"{name}: ratio change/parent median {med:.3f} (q1 {q1:.3f}, q3 {q3:.3f}); "
          f"median CPU ms parent {1e3 * statistics.median(times['parent']):.1f}, "
          f"change {1e3 * statistics.median(times['change']):.1f}; "
          f"outputs {'identical' if same else 'DIFFER'}")
    print(f"{name} ratios: " + " ".join(f"{r:.3f}" for r in ratios), flush=True)
    for side, runs in parts.items():
        if runs:
            print(f"{name} {side} split, median CPU ms: " + ", ".join(
                f"{part} {1e3 * statistics.median(run[part] for run in runs):.1f}"
                for part in runs[0]), flush=True)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--configs", nargs="+", choices=sorted(CONFIGS),
                        default=["37", "gates", "127", "127p", "331"])
    parser.add_argument("--pairs", type=int, default=None,
                        help="pairs per configuration (default: per-config)")
    parser.add_argument("--seed", type=int, default=0, help="demand and first search seed")
    parser.add_argument("--split", action="store_true",
                        help="also print each side's CPU time split by layer")
    args = parser.parse_args(argv)

    load_tree(args.parent, "ab_parent")
    load_tree(args.change, "ab_change")
    ok = True
    for name in args.configs:
        spec = CONFIGS[name]
        ok &= compare(name, spec, args.pairs or spec["pairs"], args.seed, args.split)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
