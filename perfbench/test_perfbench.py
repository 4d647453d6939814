"""Tests of the benchmark itself: python -m pytest perfbench

The smoke configuration (run.py --smoke: rings 2, a handful of requests)
runs every workload traced and untraced, in a subprocess as the benchmark is
run for real, and the printed metrics are checked against BENCHMARK.json. A
cache that lies about a hot class must fail the run.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from inputs import ClassRegistry, same_class_variant  # noqa: E402
from workloads import SMOKE_SPECS, SPECS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Makes every cache hit return a plan whose first cell is swapped for another.
LYING_CACHE = """
from hoplite.cache import BhtpCache
honest = BhtpCache.lookup
def lying(self, vector):
    plan = honest(self, vector)
    if plan is None:
        return None
    other = next(c for c in range(1000) if c not in plan[0])
    return ((other,) + plan[0][1:],) + plan[1:]
BhtpCache.lookup = lying
"""


def bench(args, cwd=ROOT, patch="", timeout=150):
    """Run run.py in its own process group; (exit code, stdout lines, stderr)."""
    script = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH_DIR)!r}]\n"
        f"{patch}\nimport run\nsys.exit(run.main({args!r}))\n"
    )
    cmd = [sys.executable, "-c", script] if patch else [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"benchmark did not finish in {timeout} s:\n{err[-4000:]}")
    return proc.returncode, out.splitlines(), err


def smoke_args(workload, trace, out_dir):
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--out", str(out_dir), "--smoke"]


def test_workloads_match_benchmark_json():
    names = sorted(w["name"] for w in BENCHMARK["workloads"])
    assert names == sorted(SPECS) == sorted(SMOKE_SPECS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    code, lines, err = bench(smoke_args(workload, trace, tmp_path))
    assert code == 0, "\n".join(lines) + err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert any(line.startswith("# env ") for line in lines)
    assert [line for line in lines if line.startswith("check ")]
    assert all(" PASS " in line for line in lines if line.startswith("check "))
    assert (tmp_path / f"spans_{workload}_seed3.npz").is_file() == bool(trace)


def test_lying_cache_fails_the_run(tmp_path):
    code, lines, err = bench(smoke_args("serve_warm_37", 0, tmp_path), patch=LYING_CACHE)
    assert code == 1, err
    assert json.loads(lines[-1])["correct"] is False
    assert any(line.startswith("check cache_answers FAIL") for line in lines)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _ = bench(["--workload", "serve_warm_37", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=tmp_path)
    assert code != 0
    assert not any('"correct"' in line for line in lines)


def test_class_registry_redraws_duplicates():
    draws = iter([np.array([1.0, 0.0]), np.array([1.1, 0.0]), np.array([0.0, 5.0])])
    registry = ClassRegistry(lambda v: np.round(np.asarray(v)))
    first = registry.fresh(lambda: next(draws))
    second = registry.fresh(lambda: next(draws))  # 1.1 rounds like 1.0: redrawn
    assert first.tolist() == [1.0, 0.0] and second.tolist() == [0.0, 5.0]


def test_same_class_variant_stays_in_class():
    from hoplite.cache import discretize

    rng = np.random.default_rng(0)
    registry = ClassRegistry(lambda v: discretize(v, 100.0, 4))
    demand = np.array([0.0, 10.0, 30.0, 60.0, 99.0, 150.0])
    for _ in range(50):
        variant = same_class_variant(rng, registry, demand, 100.0, 4)
        assert np.all(variant >= 0)
        assert registry.class_of(variant) == registry.class_of(demand)
