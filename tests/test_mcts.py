"""Tree search: selection oracle, backup accounting, end-to-end quality."""

import copy
import functools
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
    backlog_shares,
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

SQRT2 = math.sqrt(2.0)


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


class Iterations:
    """Every iteration of the stages run while installed, as the search ran
    it, on either path.

    ``leaves`` holds each iteration's leaf prefix and rollout score, in
    order: a batch of the two-level path counts up to the run
    :func:`mcts._root_run` confirmed (the forced first visits all count),
    and the general path counts each scalar rollout. ``roots`` holds the
    root's statistics wherever the search holds them, keyed by the
    iterations done: before and after each confirmed run, at the hand-off
    and after each general-path iteration. ``handoff`` is the iteration
    count and a copy of the tree built at a hand-off, if there was one.
    """

    def __init__(self, monkeypatch):
        self.leaves, self.roots, self.handoff = [], {}, None
        self.pending = None  # the last scored batch, not yet counted
        self.uct_calls = self.scalar_calls = 0
        handlers = {"_rollout_scores": self.scored, "_root_run": self.confirmed,
                    "simulate": self.rolled_out, "backup": self.backed_up,
                    "uct_select": self.selected, "_two_level_tree": self.built}
        for name, handler in handlers.items():
            monkeypatch.setattr(mcts, name, functools.partial(handler, getattr(mcts, name)))

    def flush(self):
        if self.pending is not None:
            self.leaves += zip(*self.pending)
            self.pending = None

    def checkpoint(self, root):
        self.roots[len(self.leaves)] = root_stats(root)

    def scored(self, inner, ctx, prefix, tails, beams, keys):
        self.flush()
        scores = inner(ctx, prefix, tails, beams, keys)
        self.pending = ([prefix + tuple(tail) for tail in tails], list(scores))
        return scores

    def confirmed(self, inner, root, slots, scores, c):
        self.checkpoint(root)
        run = inner(root, slots, scores, c)
        leaves, batch = self.pending
        self.pending = (leaves[:run], batch[:run])
        self.flush()
        self.checkpoint(root)
        return run

    def rolled_out(self, inner, node, ctx, beams, keys):
        self.flush()
        self.scalar_calls += 1
        score = inner(node, ctx, beams, keys)
        self.leaves.append((node.prefix, score))
        return score

    def backed_up(self, inner, path, score):
        inner(path, score)
        self.checkpoint(path[0])

    def selected(self, inner, node, c):
        self.uct_calls += 1
        return inner(node, c)

    def built(self, inner, root, *args):
        self.flush()
        inner(root, *args)
        self.handoff = (len(self.leaves), copy.deepcopy(root))
        self.checkpoint(root)

    def by_leaf(self) -> dict:
        """Per leaf prefix, the scores of the rollouts launched from it."""
        self.flush()
        launched = {}
        for leaf, score in self.leaves:
            launched.setdefault(leaf, []).append(score)
        return launched


def root_stats(root):
    """What both search paths hold at the root."""
    return (root.prefix, list(root.remaining), list(root.candidates), root.visit_count,
            root.score_sum.hex(), root.child_visits.tolist(), root.child_sums.tolist())


@pytest.fixture
def rollouts(monkeypatch):
    """Records every iteration of the stages the test runs."""
    return Iterations(monkeypatch)

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
    # 8 cells and 200 iterations: the stage hands off, so the root is the
    # whole tree, and its first iterations ran on the two-level path.
    ctx = build_ctx(grid8, budget8, params, np.arange(8, dtype=float) * 80, beams=3)
    rng = np.random.default_rng(5)
    _, root = run_single_stage(ctx, (), 3, MctsConfig(max_iterations=200), rng)
    assert rollouts.handoff is not None
    launched = rollouts.by_leaf()
    assert sum(len(scores) for scores in launched.values()) == 200
    for node in walk(root):
        own = launched.get(node.prefix, [])
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
    # reference counting alone and leaves the cycle collector nothing. Five
    # candidates per node make the stage hand off and build a tree.
    gc.collect()
    gc.disable()
    try:
        rng = np.random.default_rng(3)
        cfg = MctsConfig(max_iterations=100, pruning_enabled=True, prune_width=5)
        _, root = run_single_stage(ctx37, (), 9, cfg, rng)
        assert sum(1 for _ in walk(root)) > 50
        del root
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stage_creates_at_most_one_node_per_iteration(params, monkeypatch):
    # A 127-cell stage stays on the two-level path and creates its root
    # alone; a stage that hands off (37 cells, 5 candidates per node) holds
    # the root plus at most one node per rollout, not one per candidate.
    created = []

    class Counted(SearchNode):
        __slots__ = ()

        def __init__(self, *args):
            created.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(mcts, "SearchNode", Counted)
    for rings, beams, handoff in ((6, 31, False), (3, 9, True)):
        created.clear()
        grid = generate_grid(rings)
        rng = np.random.default_rng(31)
        totals = rng.integers(0, 20000, size=grid.n_cells).astype(float)
        ctx = build_ctx(grid, build_link_budget(grid, params), params, totals, beams=beams)
        cfg = MctsConfig(max_iterations=200, pruning_enabled=handoff, prune_width=5)
        _, root = run_single_stage(ctx, (), beams, cfg, rng)
        assert root.visit_count == 200
        assert bool(root.children) == handoff
        if handoff:
            assert sum(1 for _ in walk(root)) <= 201
        else:
            assert created == [()]


def test_root_visit_accounting(grid8, budget8, params, rollouts):
    ctx = build_ctx(grid8, budget8, params, np.full(8, 100.0), beams=3)
    rng = np.random.default_rng(9)
    _, root = run_single_stage(ctx, (), 3, MctsConfig(max_iterations=120), rng)
    assert () not in rollouts.by_leaf()  # every iteration descends into a child
    assert root.child_visits.sum() == root.visit_count == 120


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
    # Completing the empty root by the 9 smallest of 37 uniform keys draws
    # uniform 9-subsets, so the mean score must agree with an independently
    # drawn sample of uniform subsets.
    root = SearchNode((), list(range(37)))
    keys = np.random.default_rng(77).random((10_000, 37))
    rollouts = np.array([simulate(root, ctx37, 9, row) for row in keys])
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


def test_rollout_takes_unchosen_cells_with_smallest_keys(ctx37):
    node = SearchNode((3, 30), [c for c in range(37) if c not in (3, 30)])
    keys = np.random.default_rng(41).random(37)
    keys[[3, 30]] = -1.0  # chosen cells' keys are never read
    extra = sorted(node.remaining, key=keys.__getitem__)[:7]
    expect = score_sliding_window((3, 30, *extra), ctx37, 9)
    assert simulate(node, ctx37, 9, keys) == expect


# -- batched stage ----------------------------------------------------------------


def expansion_oracle(node, ctx, cfg, beams):
    """The sorted candidates of ``node``, from :func:`pruned_actions` with
    its backlog term computed on every call."""
    if not cfg.pruning_enabled:
        return node.remaining
    width = cfg.prune_width if cfg.prune_width is not None else beams
    return sorted(pruned_actions(node.remaining, node.prefix, ctx.queue_totals, ctx.grid, width))


def stage_one_at_a_time(ctx, prefix, beams, cfg, rng, stop=None):
    """Reference stage: every iteration descends, rolls out with the scalar
    scorer and backs up on its own, key row t completing iteration t.

    Returns the commit, the tree after ``stop`` iterations (default: all),
    each iteration's leaf prefix and score, and the root's statistics after
    every iteration (index t: after t iterations).
    """
    prefix = tuple(prefix)
    n = ctx.grid.n_cells
    keys = rng.random((cfg.max_iterations, n))
    root = SearchNode(prefix, [cell for cell in range(n) if cell not in prefix])
    root.expand(expansion_oracle(root, ctx, cfg, beams))
    leaves, roots = [], [root_stats(root)]
    for t in range(cfg.max_iterations if stop is None else stop):
        node, path = root, [root]
        while not node.is_terminal(beams):
            if node.visit_count == 0 and node is not root:
                break
            if not node.candidates:
                node.expand(expansion_oracle(node, ctx, cfg, beams))
            action = uct_select(node, cfg.exploration_constant)
            node = node.children.get(action) or node.add_child(action)
            path.append(node)
        score = simulate(node, ctx, beams, keys[t])
        backup(path, score)
        leaves.append((node.prefix, score))
        roots.append(root_stats(root))
    mean = lambda child: child.score_sum / child.visit_count
    best = max(root.children.items(), key=lambda item: (mean(item[1]), -item[0]))
    return best[0], root, leaves, roots


def same_tree(a, b):
    assert (a.prefix, a.remaining, a.slot) == (b.prefix, b.remaining, b.slot)
    assert (a.visit_count, a.score_sum, a.candidates) == (b.visit_count, b.score_sum, b.candidates)
    if a.child_visits is None:
        assert b.child_visits is None
    else:
        assert a.child_visits.tolist() == b.child_visits.tolist()
        assert a.child_sums.tolist() == b.child_sums.tolist()
    assert list(a.children) == list(b.children)
    for action, child in a.children.items():
        same_tree(child, b.children[action])


def check_stage(monkeypatch, ctx, prefix, beams, cfg) -> Iterations:
    """Run one stage and the reference on the same key rows, and check what
    both hold: the commit, every rollout score bit for bit, the ordered
    leaf sequence, the root's statistics wherever the search holds them,
    and the tree wherever it builds one (at a hand-off and at the end)."""
    rng = lambda: np.random.default_rng(61)
    ref_action, ref_root, ref_leaves, ref_roots = stage_one_at_a_time(
        ctx, prefix, beams, cfg, rng())
    record, scores = Iterations(monkeypatch), []
    action, root = run_single_stage(ctx, prefix, beams, cfg, rng(), scores)
    record.flush()
    assert action == ref_action
    assert [s.hex() for s in scores] == [s.hex() for _, s in ref_leaves]
    assert record.leaves == ref_leaves
    for t, stats in record.roots.items():
        assert stats == ref_roots[t], t
    assert root_stats(root) == ref_roots[-1]
    if root.children:
        same_tree(root, ref_root)
    if record.handoff is not None:
        t, tree = record.handoff
        same_tree(tree, stage_one_at_a_time(ctx, prefix, beams, cfg, rng(), stop=t)[1])
    return record


@pytest.mark.parametrize(
    "ctx_name, beams, prefix, iterations, pruning, width, c",
    [("ctx37", 9, (), 20, False, None, SQRT2), ("ctx37", 9, (), 60, False, None, SQRT2),
     ("ctx37", 9, (4, 11), 15, False, None, SQRT2),
     ("ctx37", 9, (4, 11), 90, False, None, SQRT2),
     ("ctx37", 9, (), 3, True, None, SQRT2), ("ctx37", 9, (), 40, True, None, SQRT2),
     ("ctx37", 9, (7,), 40, True, None, SQRT2),
     ("ctx37", 9, tuple(range(0, 32, 4)), 50, False, None, SQRT2),
     ("ctx37", 9, tuple(range(0, 32, 4)), 10, True, None, SQRT2),
     ("ctx127", 31, (), 200, False, None, SQRT2),
     ("ctx127", 31, (5, 60, 99), 200, False, None, SQRT2),
     ("ctx37", 9, (), 400, True, 18, 0.5), ("ctx37", 9, (3, 30), 400, True, 18, 0.5),
     ("ctx37", 9, (), 200, False, None, 0.0),
     ("ctx37", 9, tuple(range(0, 32, 4)), 120, False, None, SQRT2),
     ("ctx37", 9, tuple(range(0, 32, 4)), 120, True, 18, 0.5),
     ("ctx37", 9, (), 37, False, None, SQRT2), ("ctx37", 9, (), 18, True, 18, 0.5),
     ("ctx331", 82, tuple(range(0, 300, 5)), 300, False, None, SQRT2)],
    ids=["plain_below", "plain_above", "prefix_below", "prefix_above", "pruned_below",
         "pruned_above", "pruned_prefix", "last_stage", "last_stage_pruned",
         "rings6_uct", "rings6_uct_prefix", "gates_uct", "gates_uct_prefix", "c0_uct",
         "last_stage_uct", "last_stage_pruned_uct", "sweep_only", "sweep_only_pruned",
         "rings10_uct_prefix"],
)
def test_batched_sweep_matches_one_iteration_at_a_time(
    request, monkeypatch, ctx_name, beams, prefix, iterations, pruning, width, c
):
    # Below the root candidate count (the unchosen cells plain, the width
    # pruned) the whole stage is the sweep; above it the UCT phase follows,
    # whose predicted leaves are scored in batches and confirmed on true
    # scores: a prediction that misses (c = 0 forces many; deep pruned
    # trees at c = 0.5 too) may cost time only. A prefix of beams - 1 cells
    # makes the stage the last one, whose root children are terminal.
    ctx = request.getfixturevalue(ctx_name)
    cfg = MctsConfig(max_iterations=iterations, exploration_constant=c,
                     pruning_enabled=pruning, prune_width=width)
    record = check_stage(monkeypatch, ctx, prefix, beams, cfg)
    if ctx_name == "ctx127":
        # A 127-cell stage never runs out of untried grandchildren: it stays
        # on the two-level path, with no scalar rollout and no uct_select.
        assert record.scalar_calls == record.uct_calls == 0


@pytest.mark.parametrize(
    "prefix, iterations, pruning, width, c, handoff",
    [((5, 20), 200, False, None, 0.0, True), ((), 400, True, 18, 0.5, True),
     ((3, 30), 400, True, 18, 0.5, True),
     (tuple(range(0, 32, 4)), 200, False, None, SQRT2, False)],
    ids=["plain200", "gates", "gates_prefix", "last_stage"],
)
def test_hand_off_builds_the_one_at_a_time_tree(
    ctx37, monkeypatch, prefix, iterations, pruning, width, c, handoff
):
    # The first time UCT chooses a root child with no untried candidate
    # left, the tree built from the iterations so far is the reference's
    # tree at that iteration (checked by check_stage), and the general path
    # runs the rest of the stage. Plain 37-cell stages of 200 iterations
    # hand off only with little exploration (c = 0 here), pruned ones at
    # the gates' settings do. Terminal root children never run out, so a
    # last stage stays on the two-level path.
    cfg = MctsConfig(max_iterations=iterations, exploration_constant=c,
                     pruning_enabled=pruning, prune_width=width)
    record = check_stage(monkeypatch, ctx37, prefix, 9, cfg)
    assert (record.handoff is not None) == handoff
    if handoff:
        assert record.scalar_calls == iterations - record.handoff[0] > 0
    else:
        assert record.scalar_calls == record.uct_calls == 0


# -- root check -------------------------------------------------------------------


def first_root_miss(root, slots, scores, c):
    """Reference for ``_root_run``: one :func:`uct_select` and one
    :func:`backup` per iteration, until a choice is not the given slot."""
    for i, (slot, score) in enumerate(zip(slots, scores)):
        if uct_select(root, c) != root.candidates[slot]:
            return i
        backup([root, root.children[root.candidates[slot]]], score)
    return len(slots)


def root_copy(root):
    twin = make_parent({a: (int(v), s) for a, v, s in zip(
        root.candidates, root.child_visits.tolist(), root.child_sums.tolist())})
    twin.visit_count = root.visit_count
    return twin


def check_root_run(root, slots, scores, c):
    """``_root_run`` on a copy of ``root`` confirms as many iterations as
    :func:`first_root_miss` on another, and leaves the same statistics."""
    got, ref = root_copy(root), root_copy(root)
    assert mcts._root_run(got, slots, scores, c) == first_root_miss(ref, slots, scores, c)
    assert root_stats(got) == root_stats(ref)


def checked_runs(root, rng, c, rows, score_of):
    """(slots, scores) runs to check at ``root``: its true UCT choices, in
    most runs with one of them replaced."""
    for _ in range(4):
        slots, scores = [], []
        replay = root_copy(root)
        for _ in range(rows):
            slot = replay.children[uct_select(replay, c)].slot
            slots.append(slot)
            scores.append(score_of(slot))
            backup([replay, replay.children[replay.candidates[slot]]], scores[-1])
        if len(root.candidates) > 1 and rng.random() < 0.75:
            i = int(rng.integers(rows))
            slots[i] = (slots[i] + int(rng.integers(1, len(root.candidates)))) % len(
                root.candidates)
        yield slots, scores


@pytest.mark.parametrize("c", [0.0, 0.5, SQRT2], ids=["c0", "c0.5", "sqrt2"])
def test_root_run_matches_uct_one_iteration_at_a_time(c):
    rng = np.random.default_rng(int(10 * c) + 7)
    for trial in range(150):
        width = int(rng.integers(1, 40))
        # Dyadic sums and scores from a few values make exact ties common.
        visits = rng.integers(1, 6, width)
        stats = {a: (int(v), float(rng.integers(0, 4 * v)) / 4) for a, v in enumerate(visits)}
        if trial % 3 == 0:
            stats = {a: (2, 1.0) for a in range(width)}  # every value tied
        root = make_parent(stats)
        if trial % 5 == 0:
            root.visit_count = 1  # log term 0 on the first row
        rows = int(rng.integers(1, 90))
        for slots, scores in checked_runs(
                root, rng, c, rows, lambda _: float(rng.integers(0, 4)) / 4):
            check_root_run(root, slots, scores, c)


def test_root_run_on_terminal_children(ctx37):
    # In the last stage every root child is a full pattern, whose rollouts
    # all score the same.
    prefix = tuple(range(0, 32, 4))
    for c in (0.0, 0.5, SQRT2):
        cfg = MctsConfig(max_iterations=29, exploration_constant=c)
        _, root = run_single_stage(ctx37, prefix, 9, cfg, np.random.default_rng(3))
        assert not root.children  # the two-level path ran the whole stage
        means = (root.child_sums / root.child_visits).tolist()
        rng = np.random.default_rng(5)
        for slots, scores in checked_runs(root, rng, c, 80, means.__getitem__):
            check_root_run(root, slots, scores, c)


def test_root_run_breaks_exact_ties_as_uct():
    # Two children whose UCT values tie exactly: the first argmax wins. The
    # log of the root's visits decides such a tie, so it is also checked at
    # visit counts where numpy's array log and ``math.log`` round apart.
    counts = np.arange(2.0, 40_000.0)
    apart = counts[np.log(counts) != np.array([math.log(n) for n in counts.tolist()])]
    tied = 0
    for n in [*apart[:6].tolist(), 50.0, 999.0]:
        log_n = math.log(n)
        for c in (0.5, SQRT2):
            for va, vb in ((1, 4), (4, 1), (2, 8), (8, 2), (1, 16), (16, 1)):
                value = 0.25 + c * math.sqrt(log_n / va)
                explore = c * math.sqrt(log_n / vb)
                mean_b = value - explore
                for _ in range(8):  # nudge until the two values tie exactly
                    if mean_b + explore == value:
                        break
                    mean_b = float(np.nextafter(mean_b, 1.0 if mean_b + explore < value else 0.0))
                root = make_parent({0: (va, 0.25 * va), 1: (vb, mean_b * vb)})
                if root.child_sums[1] / vb + explore != value:
                    continue
                root.visit_count = int(n)
                tied += 1
                for slots in ([0] * 3, [1] * 3):
                    check_root_run(root, slots, [0.25] * 3, c)
    assert tied > 20


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
    # A search computes the backlog term once per stage: the same floats.
    assert backlog_shares(totals).tolist() == [x / totals.max() for x in totals.tolist()]
    for queue in (totals, np.zeros(37)):
        shared = selection_values(candidates, selected, queue, grid37, backlog_shares(queue))
        assert shared.tolist() == selection_values(candidates, selected, queue, grid37).tolist()


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
    oracle = pruned_actions(range(37), (), ctx37.queue_totals, grid37, 5)
    assert root.candidates == sorted(oracle)
    assert root.child_visits.all()


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
def ctx331(params):
    grid = generate_grid(10)
    rng = np.random.default_rng(331)
    totals = rng.integers(0, 20000, size=grid.n_cells).astype(float)
    return build_ctx(grid, build_link_budget(grid, params), params, totals, beams=82)


@pytest.fixture(scope="module")
def ctx127(params):
    grid = generate_grid(6)
    rng = np.random.default_rng(1234)
    totals = rng.integers(0, 20000, size=grid.n_cells).astype(float)
    return build_ctx(grid, build_link_budget(grid, params), params, totals, beams=31)


@pytest.mark.parametrize(
    "ctx_name, beams, iterations, pruning, pattern, scores_sha256",
    [
        ("ctx37", 9, 60, False, (21, 31, 10, 25, 17, 27, 29, 5, 1),
         "35f883f7891cf70e8d12de6fdd133cc251f353d13cd5f01419932305fb5f8823"),
        ("ctx37", 9, 20, False, (13, 10, 2, 5, 23, 18, 16, 20, 25),
         "2fdeded8abb1b1f7c8bb1cfa1bda02e6cbdce84bd29b164e4d5919765ed63c0c"),
        ("ctx37", 9, 60, True, (1, 30, 27, 24, 33, 36, 14, 12, 5),
         "d9945e9c9c9db644fb358f35b32d954d6d9e4d02d95ad4e668d170e35d17325f"),
        ("ctx127", 31, 40, False,
         (10, 7, 35, 2, 23, 5, 34, 38, 27, 19, 20, 0, 12, 31, 25, 43, 54, 13, 14, 15,
          21, 16, 18, 60, 47, 56, 61, 17, 45, 67, 51),
         "b7ea390e49ef99d13c040481a38491d0faa9120d4b66dd0d498436ecac7d6ae1"),
        ("ctx127", 31, 140, False,
         (65, 78, 55, 48, 75, 125, 105, 88, 87, 5, 101, 0, 94, 120, 84, 95, 74, 34,
          58, 26, 115, 91, 76, 100, 40, 39, 92, 67, 81, 10, 18),
         "79e2bf3f16a4b7675b25c496f6076c4c8cc2b67ac7b459a09bec6957250784e9"),
        ("ctx127", 31, 40, True,
         (109, 39, 89, 82, 98, 76, 61, 100, 123, 103, 17, 116, 68, 5, 117, 119, 78, 25,
          71, 94, 87, 65, 27, 84, 2, 126, 86, 36, 38, 30, 74),
         "dc317164790ac1f4a60ecdbc23d9ba2f07a6adb6754e521a242eb0d0e7cc6252"),
    ],
    ids=["plain60", "plain20", "pruned60", "rings6_plain40", "rings6_plain140",
         "rings6_pruned40"],
)
def test_pinned_search_trajectory(
    request, ctx_name, beams, iterations, pruning, pattern, scores_sha256
):
    # Recorded when rollouts began to draw from one key block per stage and
    # the root sweep was scored in one batch: the tree layout and the
    # batching may change, the search decisions and rollouts may not (a new
    # completion rule is a recorded re-pin). 20 and 40 iterations are below
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
