#!/usr/bin/env python3
"""Alternated benchmark pairs of two source trees, summarized as BENCH_<n>.json.

Each pair runs ``perfbench/run.py`` once in the parent tree and once in the
changed tree on the same seed; the side that goes first swaps from one pair
to the next, so a drift in host speed lands on both sides alike. Runs are
sequential. For every workload the output file records each run (its
end-to-end metrics, its report lines and its checks), and per metric the
median and quartiles of each side, the per-pair change, and in how many
pairs the change was better (end-to-end metrics, by the direction that
``BENCHMARK.json`` gives) or lower (report lines).

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload serve_cold_127 --seeds 1101-1110 --out BENCH_11.json

A second invocation with another workload adds it to the same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(items: list[str]) -> list[int]:
    """Seeds from ``7``-style items and inclusive ``1101-1110`` ranges."""
    seeds = []
    for item in items:
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its result JSON plus the report lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"seed": seed, "exit": proc.returncode, "wall_s": round(time.time() - t0, 2),
           "started": t0, "report": {}, "checks": {}, "env": None, "result": None}
    for line in lines:
        if line.startswith("# env "):
            run["env"] = json.loads(line[len("# env "):])
        elif line.startswith(("metric ", "layer ")):
            _, name, value = line.split()[:3]
            run["report"][name] = None if value == "n/a" else float(value)
        elif line.startswith("check "):
            _, name, verdict = line.split()[:3]
            run["checks"][name] = verdict
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def e2e_value(run: dict, name: str):
    result = run["result"] or {}
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def summarize(pairs: list[dict], directions: dict) -> dict:
    """Per metric: each side's median and quartiles, per-pair values and wins."""
    names = sorted(set().union(*(
        set((p["parent"]["result"] or {}).get("metrics", {})) | set(p["parent"]["report"])
        for p in pairs
    )))
    out = {}
    for name in names:
        rows = []
        for pair in pairs:
            values = []
            for side in ("parent", "change"):
                value = e2e_value(pair[side], name)
                values.append(pair[side]["report"].get(name) if value is None else value)
            if None not in values:
                rows.append(values)
        if not rows:
            continue
        parent = [r[0] for r in rows]
        change = [r[1] for r in rows]
        entry = {
            "pairs": len(rows),
            "parent": quartiles(parent),
            "change": quartiles(change),
            "per_pair": rows,
            "change_lower": sum(c < p for p, c in rows),
            "change_equal": sum(c == p for p, c in rows),
        }
        med = entry["parent"]["median"]
        if med:
            entry["median_change"] = entry["change"]["median"] / med - 1.0
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        if name in directions:
            better = directions[name]
            entry["better"] = better
            entry["change_better"] = sum(
                (c < p) if better == "lower" else (c > p) for p, c in rows
            )
        out[name] = entry
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "host_python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or A-B ranges")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds, args.trace)
            print(f"{args.workload} seed {seed} {side}: exit {pair[side]['exit']} "
                  f"latency_p50_ref {e2e_value(pair[side], 'latency_p50_ref')}", flush=True)
        pairs.append(pair)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["environment"] = environment()
    doc["workloads"][args.workload] = {
        "seconds": args.seconds,
        "trace": args.trace,
        "src_hoplite_lines": {side: (pairs[0][side]["env"] or {}).get("src_hoplite_lines")
                              for side in trees},
        "failed_ops": {side: sum(((p[side]["result"] or {}).get("failed", 0)) for p in pairs)
                       for side in trees},
        "all_correct": all((p[s]["result"] or {}).get("correct") for p in pairs for s in trees),
        "metrics": summarize(pairs, directions),
        "runs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
