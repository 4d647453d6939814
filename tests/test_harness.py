"""Experiment sweeps, timing benches, config files, and the CLI."""

import csv
import io
import json
import math
import statistics
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from hoplite import cli
from hoplite.harness import (
    ExperimentConfig,
    MetricsRecord,
    convergence_iterations,
    build_system,
    load_config,
    run_all,
    run_beta_sweep,
    run_convergence_trace,
    run_ds_sweep,
    run_scoring_bench,
    run_throughput_sweep,
    run_timing_table,
    scaled_demand,
    strip_timing_columns,
    write_records_csv,
    write_records_json,
)
from hoplite.scoring import score_bruteforce, score_pattern


def mean_served(records, algorithm):
    values = [r.served_bits for r in records if r.algorithm == algorithm]
    return statistics.fmean(values)


def test_beams_default_quarter_rule():
    cfg = ExperimentConfig()
    assert {n: cfg.beams_for(n) for n in (37, 61, 91, 127)} == {
        37: 9,
        61: 15,
        91: 22,
        127: 31,
    }
    assert ExperimentConfig(beams=5).beams_for(127) == 5


def test_scaled_demand_totals_and_determinism():
    cfg = ExperimentConfig()
    system = build_system(cfg)
    grid, c0 = system.grid, system.c_max
    for level in (0.2, 1.0, 1.2):
        rates = scaled_demand(grid, level, 9, c0, cfg, seed=5)
        assert rates.sum() == pytest.approx(level * 9 * c0, rel=1e-9)
        assert (rates >= 0).all()
    one = scaled_demand(grid, 1.0, 9, c0, cfg, seed=5)
    two = scaled_demand(grid, 1.0, 9, c0, cfg, seed=5)
    other = scaled_demand(grid, 1.0, 9, c0, cfg, seed=6)
    assert np.array_equal(one, two)
    assert not np.array_equal(one, other)


def test_scaled_demand_unknown_profile():
    cfg = ExperimentConfig(demand_profile="tidal")
    with pytest.raises(ValueError):
        scaled_demand(build_system(cfg).grid, 1.0, 9, 1000.0, cfg, seed=0)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"rings": 4, "demand_levels": [0.5, 1.0], "seeds": [3, 4]})
    )
    cfg = load_config(path)
    assert cfg.rings == 4
    assert cfg.demand_levels == (0.5, 1.0)
    assert cfg.seeds == (3, 4)
    assert cfg.horizon_slots == ExperimentConfig().horizon_slots


def test_load_config_infinite_window_scores_all_pairs(tmp_path):
    # JSON's Infinity is an unbounded Ds: the full-pair scorer.
    path = tmp_path / "cfg.json"
    path.write_text('{"rings": 2, "ds_diameters": Infinity}')
    cfg = load_config(path)
    assert cfg.ds_diameters == math.inf
    system = build_system(cfg)
    n, beams = system.grid.n_cells, system.settings.beams
    rng = np.random.default_rng(61)
    ctx = system.score_context(rng.integers(0, 20000, n).astype(float))
    assert ctx.ds_km == math.inf
    assert [sorted(w) for w in ctx.window] == [
        [l for l in range(n) if l != c] for c in range(n)]
    assert ctx.batch_window.shape == (n, n - 1)
    for _ in range(20):
        pattern = tuple(rng.choice(n, size=beams, replace=False).tolist())
        assert score_pattern(pattern, ctx, beams) == score_bruteforce(pattern, ctx, beams)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ringz": 3}))
    with pytest.raises(ValueError, match="ringz"):
        load_config(path)


def test_convergence_iterations_oracle():
    assert convergence_iterations([0.5, 0.9, 0.98, 0.99, 1.0]) == 3
    assert convergence_iterations([1.0, 1.0, 1.0]) == 0
    assert convergence_iterations([0.2, 0.6, 1.0], fraction=0.5) == 1
    assert convergence_iterations([0.7]) == 0
    assert convergence_iterations([0.0, 0.0]) == 0  # all-zero trace


# -- throughput sweep --------------------------------------------------------------


def test_throughput_sweep_shape():
    cfg = ExperimentConfig(
        demand_levels=(0.5,),
        seeds=(0, 1),
        algorithms=("periodic", "greedy"),
        horizon_slots=8,
    )
    records = run_throughput_sweep(cfg)
    assert len(records) == 4
    for rec in records:
        assert rec.sweep == "throughput"
        assert rec.n_cells == 37
        assert rec.beams == 9
        assert rec.served_bits > 0
        assert rec.dropped_packets >= 0
        assert rec.mean_pattern_time_s > 0


def test_zero_demand_gives_zero_throughput():
    cfg = ExperimentConfig(
        demand_levels=(0.0,),
        seeds=(0,),
        algorithms=("periodic", "random", "greedy", "mcts"),
        horizon_slots=6,
        mcts_iterations=10,
    )
    for rec in run_throughput_sweep(cfg):
        assert rec.served_bits == 0.0
        assert rec.dropped_packets == 0
        assert rec.final_backlog == 0


def test_low_demand_algorithms_agree():
    # Demand-limited regime: any schedule that visits every cell within the
    # TTL serves essentially everything, so steady-state throughput matches.
    cfg = ExperimentConfig(
        demand_levels=(0.2,),
        seeds=(0, 1),
        algorithms=("periodic", "random", "greedy", "mcts"),
        horizon_slots=20,
        warmup_slots=10,
        mcts_iterations=40,
    )
    records = run_throughput_sweep(cfg)
    means = [mean_served(records, alg) for alg in cfg.algorithms]
    assert max(means) <= 1.05 * min(means)


def test_high_demand_search_beats_periodic():
    cfg = ExperimentConfig(
        demand_levels=(1.3,),
        seeds=(0, 1, 2),
        algorithms=("periodic", "greedy", "mcts"),
        horizon_slots=20,
        warmup_slots=8,
        hotspot_count=9,
        hotspot_multiplier=5.0,
        mcts_iterations=60,
        mcts_exploration=0.5,
        mcts_pruning=True,
        prune_width=12,
    )
    records = run_throughput_sweep(cfg)
    periodic = mean_served(records, "periodic")
    assert mean_served(records, "greedy") > periodic
    assert mean_served(records, "mcts") > periodic


def test_throughput_sweep_deterministic_up_to_timing():
    cfg = ExperimentConfig(
        demand_levels=(0.8,),
        seeds=(0, 1),
        algorithms=("random", "greedy", "mcts"),
        horizon_slots=6,
        mcts_iterations=15,
    )
    wipe = lambda recs: [replace(r, mean_pattern_time_s=0.0) for r in recs]
    assert wipe(run_throughput_sweep(cfg)) == wipe(run_throughput_sweep(cfg))


def test_unknown_algorithm_rejected():
    cfg = ExperimentConfig(algorithms=("fancy",), demand_levels=(0.5,), seeds=(0,))
    with pytest.raises(ValueError, match="fancy"):
        run_throughput_sweep(cfg)


# -- timing ------------------------------------------------------------------------


def test_timing_table_baselines_fast_searchers_slow():
    # The cheap schedulers are orders of magnitude faster than the search
    # algorithms; the periodic rotation does no work at all beyond slicing.
    # GA is budgeted more scorer calls than MCTS here, as in the evaluation
    # setups this mirrors, and lands slowest.
    cfg = ExperimentConfig(
        bench_rings=(3,),
        algorithms=("periodic", "random", "greedy", "mcts", "ga"),
        mcts_iterations=25,
        ga_population=60,
        ga_generations=10,
    )
    # The cheap ones differ by a few microseconds a call: enough repeats
    # that one host stall cannot reorder their means.
    rows = run_timing_table(cfg, repeats=50)
    times = {row["algorithm"]: row["mean_pattern_time_s"] for row in rows}
    assert set(times) == set(cfg.algorithms)
    assert times["periodic"] < times["random"]
    assert times["periodic"] < times["greedy"]
    assert times["mcts"] > 10 * max(times["random"], times["greedy"])
    assert times["ga"] > times["mcts"]
    for row in rows:
        assert row["repeats"] == 50
        assert row["stdev_pattern_time_s"] >= 0


def test_mcts_optimizations_reduce_pattern_time():
    # Windowed scoring plus candidate pruning vs full-pair scoring with an
    # unpruned tree, same iteration budget, largest grid.
    unopt = ExperimentConfig(
        bench_rings=(6,),
        algorithms=("mcts",),
        mcts_iterations=400,
        ds_diameters=math.inf,
        mcts_pruning=False,
    )
    opt = replace(unopt, ds_diameters=1.0, mcts_pruning=True, prune_width=40)
    # Single runs of the two configurations alternate and each keeps its
    # fastest, so a change in host speed lands on both alike.
    t_unopt = t_opt = math.inf
    for _ in range(2):
        t_unopt = min(t_unopt, run_timing_table(unopt, repeats=1)[0]["mean_pattern_time_s"])
        t_opt = min(t_opt, run_timing_table(opt, repeats=1)[0]["mean_pattern_time_s"])
    assert t_opt < t_unopt / 1.5


# -- scorer bench, convergence, sweeps ----------------------------------------------


def test_scoring_bench_rows_and_infinite_window_sanity():
    # With the window wider than the grid both scorers do the same pair
    # work, so neither should be far from the other.
    cfg = ExperimentConfig(bench_rings=(3,), ds_diameters=1e6)
    rows = run_scoring_bench(cfg, patterns_per_n=20, repeats=3)
    assert len(rows) == 1
    row = rows[0]
    assert row["n_cells"] == 37 and row["beams"] == 9
    assert row["bruteforce_per_score_s"] > 0
    assert row["sliding_per_score_s"] > 0
    assert 0.4 < row["speedup"] < 1.9


def test_convergence_trace_structure():
    cfg = ExperimentConfig(
        seeds=(0, 1), mcts_iterations=120, prune_width=12, mcts_exploration=0.5
    )
    out = run_convergence_trace(cfg)
    assert out["n_cells"] == 37 and out["beams"] == 9
    assert len(out["runs"]) == 2
    for run in out["runs"]:
        for label in ("unpruned", "pruned"):
            trace = run[label]
            best = trace["best_so_far"]
            assert len(best) == 120 * 9  # every stage's iterations, in order
            assert np.all(np.diff(best) >= 0)
            assert best[-1] == max(best)
            assert 0 < best[-1] <= 1.0
            assert trace["iterations_to_99pct"] == convergence_iterations(best)


def test_beta_sweep_rows():
    cfg = ExperimentConfig(
        seeds=(0,),
        beta_levels=(2, 10),
        horizon_slots=12,
        mcts_iterations=40,
        mcts_exploration=0.5,
        mcts_pruning=True,
        prune_width=12,
    )
    rows = run_beta_sweep(cfg)
    assert [row["beta"] for row in rows] == [None, 2, 10]
    assert all(row["seed"] == 0 for row in rows)
    assert all(row["served_bits"] > 0 for row in rows)


def test_beta_sweep_builds_one_link_budget(monkeypatch):
    # Every planner of the sweep plans for the sweep's own system, so the
    # N x N link budget is built once, not once per (seed, beta).
    import hoplite.orchestrator as orchestrator

    builds = []
    build = orchestrator.build_link_budget

    def counted(grid, params):
        builds.append(grid.n_cells)
        return build(grid, params)

    monkeypatch.setattr(orchestrator, "build_link_budget", counted)
    cfg = ExperimentConfig(rings=2, seeds=(0, 1, 2), beta_levels=(2, 4, 6, 8, 10),
                           horizon_slots=4, mcts_iterations=5)
    rows = run_beta_sweep(cfg)
    assert len(rows) == 3 * 6
    assert builds == [19]


def test_ds_sweep_score_time_increases_with_window():
    cfg = ExperimentConfig(
        rings=6,
        mcts_iterations=20,
        horizon_slots=6,
        ds_levels=(1.0, 2.0, 3.0, 4.0, 5.0),
    )
    rows = run_ds_sweep(cfg, patterns_per_ds=30)
    per_score = [row["per_score_time_s"] for row in rows]
    assert all(b > a for a, b in zip(per_score, per_score[1:]))
    assert all(row["served_bits"] > 0 for row in rows)


# -- metric files -------------------------------------------------------------------


def sample_records():
    return [
        MetricsRecord("throughput", "greedy", 37, 9, 1.0, 0, 1.5e9, 12, 340, 0.002),
        MetricsRecord("throughput", "mcts", 37, 9, 1.0, 0, 1.8e9, 3, 120, 0.030),
    ]


def test_write_records_csv_and_json(tmp_path):
    records = sample_records()
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_records_csv(records, csv_path)
    write_records_json(records, json_path)
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == [f.name for f in fields(MetricsRecord)]
    assert len(rows) == 3
    assert rows[1][1] == "greedy" and rows[2][1] == "mcts"
    assert json.loads(json_path.read_text()) == [asdict(r) for r in records]


def test_strip_timing_columns():
    text = "algorithm,mean_pattern_time_s,served_bits\ngreedy,0.002,1.5\n"
    assert strip_timing_columns(text) == "algorithm,served_bits\ngreedy,1.5\n"
    plain = "a,b\n1,2\n"
    assert strip_timing_columns(plain) == plain
    assert strip_timing_columns("") == ""


def test_run_all_writes_named_files(tmp_path):
    cfg = ExperimentConfig(
        demand_levels=(0.5,),
        seeds=(0,),
        algorithms=("periodic", "greedy"),
        horizon_slots=5,
        bench_rings=(3,),
        sweeps=("throughput", "scoring"),
        output_dir=str(tmp_path / "results"),
    )
    written = run_all(cfg)
    assert set(written) == {"throughput", "scoring"}
    for path in written.values():
        assert path.exists()
    with open(tmp_path / "results" / "throughput.csv") as fh:
        assert len(list(csv.reader(fh))) == 3  # header + 2 records
    with open(tmp_path / "results" / "scoring_bench.json") as fh:
        assert json.load(fh)[0]["n_cells"] == 37


def test_run_all_rejects_unknown_sweep(tmp_path):
    cfg = ExperimentConfig(sweeps=("voodoo",), output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="voodoo"):
        run_all(cfg)


# -- command line -------------------------------------------------------------------


def test_cli_dump_grid(capsys):
    assert cli.main(["dump-grid", "--rings", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["cells"]) == 37
    assert {"id", "x", "y", "ring"} <= set(blob["cells"][0])


def test_cli_bench_scoring(capsys, tmp_path):
    out_file = tmp_path / "bench.json"
    rc = cli.main(
        [
            "bench-scoring",
            "--rings",
            "3",
            "--patterns",
            "5",
            "--repeats",
            "2",
            "--output",
            str(out_file),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert json.load(open(out_file))[0]["beams"] == 9


def test_cli_run(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "demand_levels": [0.4],
                "seeds": [0],
                "algorithms": ["periodic", "greedy"],
                "horizon_slots": 5,
                "sweeps": ["throughput"],
                "output_dir": str(tmp_path / "results"),
            }
        )
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert (tmp_path / "results" / "throughput.csv").exists()


def test_cli_serve_trace(capsys, tmp_path):
    rng = np.random.default_rng(0)
    demands = [rng.uniform(0, 3000, 37).tolist() for _ in range(2)]
    demands.append(demands[0])  # repeat: should come back from the cache
    demands_path = tmp_path / "demands.json"
    demands_path.write_text(json.dumps(demands))
    log_path = tmp_path / "log.json"
    rc = cli.main(
        [
            "serve-trace",
            str(demands_path),
            "--mode",
            "sync",
            "--iterations",
            "10",
            "--horizon",
            "6",
            "--output",
            str(log_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "request 0: source=online_greedy" in out
    assert "request 2: source=cache" in out
    assert "planner stats:" in out
    log = json.load(open(log_path))
    assert [entry["source"] for entry in log] == [
        "online_greedy",
        "online_greedy",
        "cache",
    ]


def test_cli_errors_exit_nonzero(capsys, tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"ringz": 3}))
    assert cli.main(["run", "--config", str(bad_cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
