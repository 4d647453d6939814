"""Command-line entry points.

Subcommands:
  run           execute the sweeps named in a JSON config file
  bench-scoring per-score timing, brute force vs sliding window
  serve-trace   replay a file of demand vectors through the hybrid planner
  dump-grid     print the hex grid for a ring count as JSON
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channel import LinkParams
from .geometry import generate_grid
from .harness import ExperimentConfig, load_config, run_all, run_scoring_bench, write_json
from .mcts import MctsConfig
from .orchestrator import HybridPlanner, PlanRequest, PlannerSettings


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    written = run_all(cfg)
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_bench_scoring(args) -> int:
    cfg = ExperimentConfig(bench_rings=tuple(args.rings), ds_diameters=args.ds)
    rows = run_scoring_bench(cfg, patterns_per_n=args.patterns, repeats=args.repeats)
    print(f"{'N':>5} {'K':>4} {'brute (us)':>12} {'sliding (us)':>13} {'speedup':>8}")
    for row in rows:
        print(
            f"{row['n_cells']:>5} {row['beams']:>4}"
            f" {row['bruteforce_per_score_s'] * 1e6:>12.2f}"
            f" {row['sliding_per_score_s'] * 1e6:>13.2f}"
            f" {row['speedup']:>8.2f}"
        )
    if args.output:
        write_json(rows, args.output)
        print(f"written: {args.output}")
    return 0


def _cmd_serve_trace(args) -> int:
    with open(args.demands) as fh:
        vectors = json.load(fh)
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("demands file must be a non-empty JSON array of vectors")
    grid = generate_grid(args.rings, args.diameter)
    beams = args.beams if args.beams else grid.n_cells // 4
    settings = PlannerSettings(beams=beams, horizon_slots=args.horizon)
    mcts_cfg = MctsConfig(max_iterations=args.iterations)
    planner = HybridPlanner(
        grid,
        LinkParams(),
        settings,
        mcts_cfg=mcts_cfg,
        mode=args.mode,
        beta=args.beta,
    )
    log = []
    with planner:
        for i, vec in enumerate(vectors):
            demand = np.asarray(vec, dtype=float)
            response = planner.handle_request(PlanRequest(demand, request_id=i))
            sim = planner.system.simulate(response.bhtp, demand)
            line = {
                "request": i,
                "source": response.source,
                "latency_ms": response.latency_s * 1e3,
                "served_bits": sim["served_bits"],
            }
            log.append(line)
            print(
                f"request {i}: source={line['source']}"
                f" latency={line['latency_ms']:.2f}ms"
                f" served_bits={line['served_bits']:.3e}"
            )
        if args.wait:
            planner.drain(timeout=args.wait)
        print(f"planner stats: {planner.stats()}")
    if args.output:
        write_json(log, args.output)
    return 0


def _cmd_dump_grid(args) -> int:
    grid = generate_grid(args.rings, args.diameter)
    print(grid.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoplite",
        description="Beam-hopping scheduling experiments: simulate, search, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sweeps named in a config file")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench-scoring", help="time the full-pair scorer against the Ds window")
    p_bench.add_argument("--rings", type=int, nargs="+", default=[3, 4, 5, 6])
    p_bench.add_argument("--ds", type=float, default=1.0, help="window in cell diameters")
    p_bench.add_argument("--patterns", type=int, default=50)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--output", help="also write rows as JSON")
    p_bench.set_defaults(fn=_cmd_bench_scoring)

    p_serve = sub.add_parser("serve-trace", help="replay demand vectors through the planner")
    p_serve.add_argument("demands", help="JSON file: array of per-cell demand vectors")
    p_serve.add_argument("--rings", type=int, default=3)
    p_serve.add_argument("--diameter", type=float, default=942.0)
    p_serve.add_argument("--beams", type=int, default=0, help="0 means floor(N/4)")
    p_serve.add_argument("--horizon", type=int, default=30)
    p_serve.add_argument("--iterations", type=int, default=50, help="search budget per stage")
    p_serve.add_argument("--beta", type=int, default=4)
    p_serve.add_argument("--mode", choices=("process", "thread", "sync"), default="process")
    p_serve.add_argument("--wait", type=float, default=60.0, help="seconds to wait for background jobs")
    p_serve.add_argument("--output", help="write the per-request log as JSON")
    p_serve.set_defaults(fn=_cmd_serve_trace)

    p_grid = sub.add_parser("dump-grid", help="print a hex grid as JSON")
    p_grid.add_argument("--rings", type=int, required=True)
    p_grid.add_argument("--diameter", type=float, default=942.0)
    p_grid.set_defaults(fn=_cmd_dump_grid)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
