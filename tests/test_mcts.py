"""Tree search: selection oracle, backup accounting, end-to-end quality."""

import gc
import hashlib
import math

import numpy as np
import pytest

import hoplite.mcts as mcts
from hoplite.channel import build_link_budget
from hoplite.geometry import generate_grid
from hoplite.mcts import (
    MctsConfig,
    SearchNode,
    backup,
    compute_pattern_mcts,
    compute_pattern_mcts_traced,
    pruned_actions,
    run_single_stage,
    selection_values,
    simulate,
    uct_select,
)
from hoplite.scoring import score_sliding_window, with_queue_totals

from conftest import build_ctx


def selection_value(cell, selected, queue_totals, grid, d_max=None) -> float:
    """Scalar oracle of ``selection_values``: backlog share plus normalized
    spread from the chosen cells, one distance at a time."""
    selected = list(selected)
    if cell in selected:
        raise ValueError(f"cell {cell} already selected")
    totals = np.asarray(queue_totals, dtype=float)
    if d_max is None:
        d_max = float(totals.max()) if totals.size else 0.0
    demand_term = float(totals[cell]) / d_max if d_max > 0 else 0.0
    if not selected:
        return demand_term
    dist_max = grid.span() * len(selected)
    dist_sum = sum(grid.distance(cell, j) for j in selected)
    return demand_term + (dist_sum / dist_max if dist_max > 0 else 0.0)


@pytest.fixture
def rollouts(monkeypatch):
    """Per node id, the scores of the rollouts launched from that node."""
    launched = {}
    rollout = mcts.simulate

    def recorded(node, *args):
        score = rollout(node, *args)
        launched.setdefault(id(node), []).append(score)
        return score

    monkeypatch.setattr(mcts, "simulate", recorded)
    return launched

# -- selection ----------------------------------------------------------------


def make_parent(stats):
    """Parent node with children inserted in ascending action order."""
    root = SearchNode((), sorted(stats))
    root.expand(sorted(stats))
    for action in sorted(stats):
        child = root.add_child(action)
        child.visit_count, child.score_sum = stats[action]
        root.child_visits[child.slot], root.child_sums[child.slot] = stats[action]
    root.visit_count = max(1, sum(v for v, _ in stats.values()))
    return root


def oracle_uct(stats, parent_visits, c):
    unvisited = sorted(a for a, (v, _) in stats.items() if v == 0)
    if unvisited:
        return unvisited[0]
    log_n = math.log(parent_visits) if parent_visits > 1 else 0.0
    best_action, best_value = None, -math.inf
    for action in sorted(stats):
        visits, total = stats[action]
        value = total / visits + c * math.sqrt(log_n / visits)
        if value > best_value:
            best_action, best_value = action, value
    return best_action


def test_uct_matches_scalar_oracle_on_random_trees():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n_children = int(rng.integers(1, 11))
        actions = rng.choice(40, size=n_children, replace=False)
        stats = {
            int(a): (int(rng.integers(0, 30)), float(rng.uniform(0, 20)))
            for a in actions
        }
        c = float(rng.uniform(0, 3))
        parent = make_parent(stats)
        assert uct_select(parent, c) == oracle_uct(stats, parent.visit_count, c)


def test_uct_prefers_unvisited_lowest_id():
    stats = {4: (10, 9.0), 2: (0, 0.0), 7: (0, 0.0)}
    assert uct_select(make_parent(stats), 1.0) == 2


def test_uct_pure_exploitation():
    stats = {0: (10, 9.0), 1: (10, 1.0)}
    assert uct_select(make_parent(stats), 0.0) == 0


def test_uct_requires_children():
    with pytest.raises(ValueError):
        uct_select(SearchNode((), []), 1.0)


# -- backup -------------------------------------------------------------------


def test_backup_single_path():
    root = SearchNode((), [1, 2, 3])
    root.expand([1, 2, 3])
    mid = root.add_child(1)
    mid.expand([2, 3])
    leaf = mid.add_child(2)
    backup([root, mid, leaf], 0.5)
    for node in (root, mid, leaf):
        assert node.visit_count == 1
        assert node.score_sum == 0.5


def test_root_sum_is_sum_of_all_scores(grid8, budget8, params):
    ctx = build_ctx(grid8, budget8, params, np.arange(8, dtype=float) * 50, beams=3)
    rng = np.random.default_rng(0)
    scores = []
    _, root = run_single_stage(ctx, (), 3, MctsConfig(max_iterations=64), rng, scores)
    assert len(scores) == 64
    assert root.visit_count == 64
    assert root.score_sum == pytest.approx(sum(scores), rel=1e-12)


def walk(node):
    yield node
    for child in node.children.values():
        yield from walk(child)


def test_subtree_sums_recompute_exactly(grid8, budget8, params, rollouts):
    ctx = build_ctx(grid8, budget8, params, np.arange(8, dtype=float) * 80, beams=3)
    rng = np.random.default_rng(5)
    _, root = run_single_stage(ctx, (), 3, MctsConfig(max_iterations=200), rng)
    assert sum(len(scores) for scores in rollouts.values()) == 200
    for node in walk(root):
        own = rollouts.get(id(node), [])
        child_visits = sum(c.visit_count for c in node.children.values())
        child_sums = sum(c.score_sum for c in node.children.values())
        assert node.visit_count == len(own) + child_visits
        assert node.score_sum == pytest.approx(sum(own) + child_sums, rel=1e-9)
        # The parent's per-candidate arrays add the same scores in the same
        # order as each child's own sums, so they agree exactly.
        for action, child in node.children.items():
            assert node.candidates[child.slot] == action
            assert node.child_visits[child.slot] == child.visit_count
            assert node.child_sums[child.slot] == child.score_sum
        if node.child_visits is not None:
            assert not node.child_visits[len(node.children):].any()


def test_stage_tree_needs_no_cycle_collector(ctx37):
    # Nodes hold no parent pointer, so a finished stage's tree is freed by
    # reference counting alone and leaves the cycle collector nothing.
    gc.collect()
    gc.disable()
    try:
        rng = np.random.default_rng(3)
        _, root = run_single_stage(ctx37, (), 9, MctsConfig(max_iterations=100), rng)
        assert sum(1 for _ in walk(root)) > 50
        del root
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stage_creates_at_most_one_node_per_iteration(params):
    # Children are created on first descent, so a 127-cell stage holds the
    # root plus one node per rollout, not one node per candidate cell.
    grid = generate_grid(6)
    rng = np.random.default_rng(31)
    totals = rng.integers(0, 20000, size=grid.n_cells).astype(float)
    ctx = build_ctx(grid, build_link_budget(grid, params), params, totals, beams=31)
    _, root = run_single_stage(ctx, (), 31, MctsConfig(max_iterations=200), rng)
    assert root.visit_count == 200
    assert sum(1 for _ in walk(root)) <= 201


def test_root_visit_accounting(grid8, budget8, params, rollouts):
    ctx = build_ctx(grid8, budget8, params, np.full(8, 100.0), beams=3)
    rng = np.random.default_rng(9)
    _, root = run_single_stage(ctx, (), 3, MctsConfig(max_iterations=120), rng)
    assert id(root) not in rollouts  # every iteration descends into a child
    assert sum(c.visit_count for c in root.children.values()) == root.visit_count == 120


# -- rollouts -----------------------------------------------------------------


def test_terminal_rollout_is_deterministic(ctx37):
    node = SearchNode(tuple(range(9)), list(range(9, 37)))
    rng = np.random.default_rng(3)
    expect = score_sliding_window(tuple(range(9)), ctx37, 9)
    assert simulate(node, ctx37, 9, rng) == expect
    assert simulate(node, ctx37, 9, rng) == expect


def test_one_missing_cell_rollout_deterministic(grid8, budget8, params):
    ctx = build_ctx(grid8, budget8, params, np.full(8, 10.0), beams=8)
    node = SearchNode(tuple(range(7)), [7])
    rng = np.random.default_rng(4)
    assert simulate(node, ctx, 8, rng) == score_sliding_window(tuple(range(8)), ctx, 8)


def test_rollout_mean_matches_uniform_sampling(ctx37):
    # Rollouts from the empty root are uniform 9-subsets, so their mean must
    # agree with an independently drawn sample of uniform subsets.
    root = SearchNode((), list(range(37)))
    rng = np.random.default_rng(77)
    rollouts = np.array([simulate(root, ctx37, 9, rng) for _ in range(10_000)])
    oracle_rng = np.random.default_rng(1234)
    direct = np.array(
        [
            score_sliding_window(
                tuple(
                    int(c)
                    for c in oracle_rng.choice(ctx37.grid.n_cells, 9, replace=False)
                ),
                ctx37,
                9,
            )
            for _ in range(10_000)
        ]
    )
    se = math.sqrt(rollouts.var(ddof=1) / len(rollouts) + direct.var(ddof=1) / len(direct))
    assert abs(rollouts.mean() - direct.mean()) <= 3 * se


# -- pruning heuristic ----------------------------------------------------------


def test_selection_value_straight_line_oracle(grid37):
    rng = np.random.default_rng(11)
    totals = rng.uniform(0, 1000, 37)
    selected = [3, 17, 30]
    d_max = totals.max()
    span = grid37.span()
    for cell in range(37):
        if cell in selected:
            continue
        expect = totals[cell] / d_max + sum(
            grid37.distance(cell, j) for j in selected
        ) / (span * len(selected))
        assert selection_value(cell, selected, totals, grid37) == pytest.approx(
            expect, rel=1e-12
        )


def test_selection_value_boundary_cases(grid37):
    totals = np.zeros(37)
    totals[4] = 250.0
    assert selection_value(4, [], totals, grid37) == 1.0  # d == d_max, no distances
    assert selection_value(5, [], totals, grid37) == 0.0  # zero demand
    with pytest.raises(ValueError):
        selection_value(4, [4], totals, grid37)


def test_selection_values_vectorized_match(grid37):
    rng = np.random.default_rng(13)
    totals = rng.uniform(0, 500, 37)
    selected = [0, 9]
    candidates = [c for c in range(37) if c not in selected]
    vec = selection_values(candidates, selected, totals, grid37)
    for idx, cell in enumerate(candidates):
        assert vec[idx] == pytest.approx(
            selection_value(cell, selected, totals, grid37), rel=1e-12
        )


def test_pruned_actions_sort_oracle(grid37):
    rng = np.random.default_rng(17)
    for _ in range(30):
        totals = rng.uniform(0, 900, 37)
        selected = [int(c) for c in rng.choice(37, size=3, replace=False)]
        candidates = [c for c in range(37) if c not in selected]
        width = int(rng.integers(1, 20))
        got = pruned_actions(candidates, selected, totals, grid37, width)
        mu = {c: selection_value(c, selected, totals, grid37) for c in candidates}
        oracle = sorted(candidates, key=lambda c: (-mu[c], c))[:width]
        assert got == oracle


def test_pruned_actions_wide_keeps_all(grid37):
    totals = np.arange(37, dtype=float)
    got = pruned_actions(range(10), [], totals, grid37, prune_width=99)
    assert sorted(got) == list(range(10))
    top = pruned_actions(range(10), [], totals, grid37, prune_width=1)
    assert top == [9]  # largest backlog among candidates


def test_pruning_limits_root_branching(grid37, budget37, params, ctx37):
    cfg = MctsConfig(max_iterations=60, pruning_enabled=True, prune_width=5)
    rng = np.random.default_rng(19)
    _, root = run_single_stage(ctx37, (), 9, cfg, rng)
    assert len(root.children) == 5
    oracle = pruned_actions(range(37), (), ctx37.queue_totals, grid37, 5)
    assert sorted(root.children) == sorted(oracle)


# -- full pattern computation -----------------------------------------------------


def test_pattern_is_k_distinct_cells(ctx37):
    cfg = MctsConfig(max_iterations=30, rng_seed=5)
    pattern = compute_pattern_mcts(ctx37, ctx37.queue_totals, 9, cfg)
    assert len(pattern) == 9
    assert len(set(pattern)) == 9
    assert all(0 <= c < 37 for c in pattern)


def test_k_equals_n_returns_everything(grid8, budget8, params):
    ctx = build_ctx(grid8, budget8, params, np.full(8, 5.0), beams=8)
    pattern = compute_pattern_mcts(ctx, np.full(8, 5.0), 8, MctsConfig(max_iterations=1))
    assert tuple(sorted(pattern)) == tuple(range(8))


def test_k_exceeding_n_rejected(grid8, budget8, params):
    ctx = build_ctx(grid8, budget8, params, np.zeros(8), beams=8)
    with pytest.raises(ValueError):
        compute_pattern_mcts(ctx, np.zeros(8), 9, MctsConfig())


def test_concentrated_demand_selects_hot_cell(ctx37):
    totals = np.zeros(37)
    totals[21] = 5000.0
    cfg = MctsConfig(max_iterations=80, rng_seed=2)
    pattern = compute_pattern_mcts(ctx37, totals, 1, cfg)
    assert pattern == (21,)


def test_fixed_seed_reproducible(ctx37):
    cfg = MctsConfig(max_iterations=40, rng_seed=123)
    a = compute_pattern_mcts(ctx37, ctx37.queue_totals, 9, cfg)
    b = compute_pattern_mcts(ctx37, ctx37.queue_totals, 9, cfg)
    assert a == b


def test_commit_invariant_under_normalizer_scale(grid8, budget8, params):
    totals = np.array([10.0, 900.0, 40.0, 700.0, 5.0, 300.0, 80.0, 60.0])
    base = build_ctx(grid8, budget8, params, totals, beams=3)
    scaled = build_ctx(
        grid8, budget8, params, totals, beams=3, omega_max=5.0 * base.omega_max
    )
    # With exploration off, every selection and commit is an argmax of mean
    # scores, which positive scaling cannot reorder.
    cfg = MctsConfig(max_iterations=100, exploration_constant=0.0, rng_seed=7)
    assert compute_pattern_mcts(base, totals, 3, cfg) == compute_pattern_mcts(
        scaled, totals, 3, cfg
    )
    # With exploration on, scaling the bonus by the same factor keeps every
    # UCT comparison, hence the whole search trajectory, identical.
    cfg_on = MctsConfig(max_iterations=100, exploration_constant=0.8, rng_seed=7)
    cfg_scaled = MctsConfig(max_iterations=100, exploration_constant=4.0, rng_seed=7)
    assert compute_pattern_mcts(base, totals, 3, cfg_on) == compute_pattern_mcts(
        scaled, totals, 3, cfg_scaled
    )


def test_more_iterations_not_worse_on_average(grid37, budget37, params):
    rng = np.random.default_rng(23)
    lo, hi = [], []
    for seed in range(20):
        totals = rng.uniform(0, 4000, 37)
        ctx = build_ctx(grid37, budget37, params, totals, beams=9)
        for iters, out in ((10, lo), (200, hi)):
            cfg = MctsConfig(max_iterations=iters, rng_seed=seed)
            pattern = compute_pattern_mcts(ctx, totals, 9, cfg)
            out.append(score_sliding_window(pattern, ctx, 9))
    assert np.mean(hi) >= np.mean(lo)


@pytest.fixture(scope="module")
def ctx127(params):
    grid = generate_grid(6)
    rng = np.random.default_rng(1234)
    totals = rng.integers(0, 20000, size=grid.n_cells).astype(float)
    return build_ctx(grid, build_link_budget(grid, params), params, totals, beams=31)


@pytest.mark.parametrize(
    "ctx_name, beams, iterations, pruning, pattern, scores_sha256",
    [
        ("ctx37", 9, 60, False, (0, 16, 18, 30, 23, 14, 25, 27, 20),
         "2c55b1716a215250aa501cab71666b66753142ab542364838f7ecb95d23c5e93"),
        ("ctx37", 9, 20, False, (12, 5, 18, 20, 10, 24, 16, 17, 0),
         "bbb754de8e786ea6275d989fb85e19d8d01d5435b31bd93184062489c7957c63"),
        ("ctx37", 9, 60, True, (30, 1, 24, 33, 2, 27, 16, 12, 36),
         "9428e8d3f0302e4bb9c5ea47bb49e9bc03b5f2eb1b2971de6f36b29589b07ac0"),
        ("ctx127", 31, 40, False,
         (0, 4, 18, 19, 5, 2, 3, 45, 33, 48, 38, 20, 35, 14, 43, 36, 42, 39, 17, 28,
          23, 34, 55, 29, 21, 26, 16, 47, 51, 61, 65),
         "245ddb829d82d3e35f66eb15b8e0c5d28ee3fd556fa9e958930ed4357d5c4d1b"),
        ("ctx127", 31, 140, False,
         (0, 58, 123, 52, 23, 108, 103, 33, 70, 89, 38, 16, 53, 26, 115, 92, 90, 79,
          9, 74, 78, 101, 119, 14, 82, 20, 80, 43, 126, 86, 18),
         "079777c5d15e4c08855529c41ab32b77a40b1c76d7171bd699ff85709bcce4b9"),
        ("ctx127", 31, 40, True,
         (51, 17, 2, 86, 92, 70, 78, 87, 61, 30, 39, 76, 25, 82, 68, 103, 111, 89, 65,
          126, 5, 0, 16, 81, 1, 123, 34, 106, 94, 98, 36),
         "28761235e761ff5abc92b653df1300417159c1ac2f18dc3b048f165d078cd4c0"),
    ],
    ids=["plain60", "plain20", "pruned60", "rings6_plain40", "rings6_plain140",
         "rings6_pruned40"],
)
def test_pinned_search_trajectory(
    request, ctx_name, beams, iterations, pruning, pattern, scores_sha256
):
    # The 37-cell cases were recorded from the eager tree that built every
    # child on expansion, the 127-cell ones from the tree with parent
    # pointers and per-child visit counters: the tree layout may change, the
    # search decisions and rollouts may not. 20 and 40 iterations are below
    # the root candidate count (37, 127), 60 and 140 above; pruning keeps
    # 9 and 31 root candidates.
    ctx = request.getfixturevalue(ctx_name)
    cfg = MctsConfig(max_iterations=iterations, pruning_enabled=pruning, rng_seed=8)
    got, trace = compute_pattern_mcts_traced(ctx, ctx.queue_totals, beams, cfg)
    assert got == pattern
    wire = repr([s.hex() for s in trace.iteration_scores]).encode()
    assert hashlib.sha256(wire).hexdigest() == scores_sha256


def test_trace_structure(ctx37):
    cfg = MctsConfig(max_iterations=25, rng_seed=3)
    pattern, trace = compute_pattern_mcts_traced(ctx37, ctx37.queue_totals, 9, cfg)
    assert trace.committed == pattern
    assert len(trace.iteration_scores) == 9 * 25
    assert trace.stage_bounds == [(i * 25, (i + 1) * 25) for i in range(9)]
    best = trace.best_so_far()
    assert len(best) == len(trace.iteration_scores)
    assert all(a <= b for a, b in zip(best, best[1:]))
    assert best[-1] == max(trace.iteration_scores)


def test_mcts_config_validation():
    with pytest.raises(ValueError):
        MctsConfig(max_iterations=0)
    with pytest.raises(ValueError):
        MctsConfig(prune_width=0)
    with pytest.raises(ValueError):
        MctsConfig(exploration_constant=-0.1)
