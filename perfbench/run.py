#!/usr/bin/env python3
"""hoplite benchmark: one seeded workload, checked, with its metrics as JSON.

    python3 perfbench/run.py --workload slot_loop_127 --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same tree. Human-readable lines (environment, every metric with its unit and
sample count, every output check) come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones and writes the spans under ``perfbench/out/``. The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_program():
    """Import hoplite from this tree's ``src``; None if it is not there."""
    package = SRC / "hoplite"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hoplite

    if Path(hoplite.__file__).resolve().parent != package.resolve():
        return None
    return hoplite


def git_commit() -> str:
    """HEAD of the tree's git checkout; "unknown" outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "hoplite").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "src_hoplite_lines": src_lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for span files of traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes (rings 2) for the benchmark's own tests")
    return parser.parse_args(argv)


def start_watchdog(seconds: float) -> threading.Timer:
    """Fail a run that hangs: dump every thread, stop the workers, exit 3."""

    def expire():
        print(f"error: run exceeded {seconds:.0f} s; thread dump follows", file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr)
        for child in multiprocessing.active_children():
            child.kill()
            child.join(5)
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()
    return timer


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        print(f"error: hoplite sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # A normal run ends within about twice its measuring time; a hung one
    # is cut before 180 s at the default 25 s.
    watchdog = start_watchdog(100 + 2.5 * args.seconds)

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    # Only after the run: a forked git child would count in peak_rss_mb.
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    for name, value, unit, samples in out.report:
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f" (needs >= {workloads.P99_MIN_SAMPLES})" if value is None else ""
        print(f"metric {name} {shown} {unit} n={samples}{note}")
    if args.trace:  # a layer the workload never calls reads 0, on 0 samples
        for name, (unit, kind) in workloads.METRICS.items():
            if kind == "layer":
                print(f"layer {name} {out.metrics.get(name, 0):.6g} {unit} "
                      f"n={out.samples.get(name, 0)}")
    correct = True
    for name, passed, detail in out.checks:
        correct &= passed
        print(f"check {name} {'PASS' if passed else 'FAIL'} {detail}")
    print(f"ops attempted={out.attempted} failed={out.failed} "
          f"error_ratio={out.failed / max(1, out.attempted):.6g}")

    if args.trace:  # a layer the workload never calls reads 0
        metrics = {name: {"value": out.metrics.get(name, 0), "unit": unit}
                   for name, (unit, kind) in workloads.METRICS.items() if kind == "layer"}
    else:
        metrics = {name: {"value": out.metrics[name], "unit": unit}
                   for name, (unit, kind) in workloads.METRICS.items() if kind == "e2e"}
    if out.tracer is not None:
        path = args.out / f"spans_{args.workload}_seed{args.seed}"
        out.tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"# spans {path.with_suffix('.npz')} absent={out.tracer.absent}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    watchdog.cancel()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
