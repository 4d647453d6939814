"""Monte Carlo tree search over illumination patterns.

A pattern of K cells is built one cell at a time: K sequential searches,
each fixing one more cell. A search-tree node is a partial pattern; rollouts
complete the prefix uniformly at random and score the resulting pattern, and
scores are backed up the path. After a fixed iteration budget the root child
with the best mean score is committed (ties to the lower cell id) and the
next stage begins. Expanding a node records its candidate cells; a child
node is created on the first descent into it, so a stage of I iterations
holds at most I + 1 nodes.

Optional expansion pruning keeps only the most promising candidate cells at
each node, ranked by a selection value that rewards large backlogs and
distance from already-chosen cells (less mutual interference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellGrid
from .scoring import ScoreContext, score_pattern, with_queue_totals

@dataclass(frozen=True)
class MctsConfig:
    max_iterations: int = 200
    exploration_constant: float = math.sqrt(2.0)
    pruning_enabled: bool = False
    # Candidate cells kept per expansion; None means "use the beam count".
    prune_width: int | None = None
    # Any entropy acceptable to numpy's SeedSequence (int or tuple of ints).
    rng_seed: int | tuple = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.prune_width is not None and self.prune_width < 1:
            raise ValueError("prune_width must be >= 1")
        if self.exploration_constant < 0:
            raise ValueError("exploration_constant must be >= 0")


class SearchNode:
    """One node of a single-stage search tree (a partial pattern)."""

    __slots__ = (
        "prefix",
        "action",
        "parent",
        "children",
        "candidates",
        "visit_count",
        "score_sum",
        "own_visits",
        "own_score_sum",
    )

    def __init__(self, prefix: tuple, action: int | None, parent):
        self.prefix = prefix
        self.action = action
        self.parent = parent
        self.children: dict[int, SearchNode] = {}
        # Sorted actions to try from here, set on expansion; children are
        # created in this order, one per first descent.
        self.candidates: list[int] = []
        self.visit_count = 0
        self.score_sum = 0.0
        # Rollouts launched from this exact node (leaf bookkeeping), kept
        # separate so subtree sums can be audited after the fact.
        self.own_visits = 0
        self.own_score_sum = 0.0

    def mean_score(self) -> float:
        return self.score_sum / self.visit_count if self.visit_count else 0.0

    def is_terminal(self, beams: int) -> bool:
        return len(self.prefix) >= beams


@dataclass
class MctsTrace:
    """Per-iteration rollout scores over a whole K-stage computation."""

    iteration_scores: list[float] = field(default_factory=list)
    stage_bounds: list[tuple[int, int]] = field(default_factory=list)
    committed: tuple = ()

    def best_so_far(self) -> list[float]:
        out, best = [], -math.inf
        for s in self.iteration_scores:
            if s > best:
                best = s
            out.append(best)
        return out


def selection_value(
    cell: int, selected, queue_totals, grid: CellGrid, d_max: float | None = None
) -> float:
    """Pruning heuristic: backlog share plus normalized spread from chosen cells.

    Both terms are scaled into [0, 1]: backlog by the current maximum queue
    total, the distance sum by (grid span x number chosen).
    """
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


def selection_values(
    candidates, selected, queue_totals, grid: CellGrid
) -> np.ndarray:
    """Vectorized selection_value over many candidate cells."""
    cand = np.asarray(list(candidates), dtype=int)
    totals = np.asarray(queue_totals, dtype=float)
    d_max = float(totals.max()) if totals.size else 0.0
    mu = totals[cand] / d_max if d_max > 0 else np.zeros(len(cand))
    selected = list(selected)
    if selected:
        dm = grid.distance_matrix()
        dist_max = grid.span() * len(selected)
        if dist_max > 0:
            mu = mu + dm[np.ix_(cand, selected)].sum(axis=1) / dist_max
    return mu


def pruned_actions(
    candidates, selected, queue_totals, grid: CellGrid, prune_width: int
) -> list[int]:
    """Top-prune_width candidates by selection value, ties to lower cell id.

    Returned in descending value order; with enough width this is just all
    candidates reordered.
    """
    cand = sorted(candidates)
    mu = selection_values(cand, selected, queue_totals, grid)
    order = sorted(range(len(cand)), key=lambda i: (-mu[i], cand[i]))
    return [cand[i] for i in order[:prune_width]]


def uct_select(node: SearchNode, c: float) -> int:
    """Child action maximizing mean + c*sqrt(ln(parent visits)/child visits).

    Unvisited children take infinite priority; all ties go to the lower cell
    id (children iterate in ascending action order). A candidate with no
    child yet is unvisited, and candidates are visited in ascending order, so
    the next one is tried before any UCT comparison.
    """
    children = node.children
    if len(children) < len(node.candidates):
        return node.candidates[len(children)]
    if not children:
        raise ValueError("uct_select on a node with no children")
    log_n = math.log(node.visit_count) if node.visit_count > 1 else 0.0
    best_action, best_value = -1, -math.inf
    for action, child in children.items():
        if child.visit_count == 0:
            return action
        value = child.score_sum / child.visit_count + c * math.sqrt(
            log_n / child.visit_count
        )
        if value > best_value:
            best_action, best_value = action, value
    return best_action


def simulate(node: SearchNode, ctx: ScoreContext, beams: int, rng) -> float:
    """Score of the node's prefix completed uniformly at random to K cells."""
    prefix = node.prefix
    need = beams - len(prefix)
    if need == 0:
        return score_pattern(prefix, ctx, beams)
    chosen = set(prefix)
    remaining = [c for c in range(ctx.grid.n_cells) if c not in chosen]
    if need == len(remaining):
        extra = remaining
    else:
        extra = rng.choice(len(remaining), size=need, replace=False)
        extra = [remaining[i] for i in extra]
    return score_pattern(prefix + tuple(extra), ctx, beams)


def backup(leaf: SearchNode, score: float):
    """Add one rollout's score along the root-to-leaf path."""
    leaf.own_visits += 1
    leaf.own_score_sum += score
    node = leaf
    while node is not None:
        node.visit_count += 1
        node.score_sum += score
        node = node.parent


def _expand(node: SearchNode, ctx: ScoreContext, cfg: MctsConfig, beams: int):
    chosen = set(node.prefix)
    candidates = [c for c in range(ctx.grid.n_cells) if c not in chosen]
    if cfg.pruning_enabled:
        width = cfg.prune_width if cfg.prune_width is not None else beams
        candidates = pruned_actions(
            candidates, node.prefix, ctx.queue_totals, ctx.grid, width
        )
    node.candidates = sorted(candidates)


def run_single_stage(
    ctx: ScoreContext,
    prefix: tuple,
    beams: int,
    cfg: MctsConfig,
    rng,
    trace_scores: list | None = None,
) -> tuple[int, SearchNode]:
    """One search stage: fix the next cell given an already-committed prefix.

    Returns (committed action, root) — the root is handed back so callers
    can audit visit counts and subtree score sums.
    """
    root = SearchNode(tuple(prefix), None, None)
    c = cfg.exploration_constant
    for _ in range(cfg.max_iterations):
        node = root
        while not node.is_terminal(beams):
            if node.visit_count == 0 and node.parent is not None:
                break  # fresh leaf: roll out before growing below it
            if not node.candidates:
                _expand(node, ctx, cfg, beams)
            action = uct_select(node, c)
            child = node.children.get(action)
            if child is None:
                child = SearchNode(node.prefix + (action,), action, node)
                node.children[action] = child
            node = child
        score = simulate(node, ctx, beams, rng)
        backup(node, score)
        if trace_scores is not None:
            trace_scores.append(score)
    return _commit(root), root


def _commit(root: SearchNode) -> int:
    # Only visited candidates have children. An unvisited one (mean 0) never
    # wins: scores are >= 0 and the lowest candidate id is visited first.
    if not root.children:
        raise ValueError("nothing to commit: root was never expanded")
    key = lambda item: (item[1].mean_score(), -item[0])
    return max(root.children.items(), key=key)[0]


def compute_pattern_mcts(
    ctx: ScoreContext, queue_totals, beams: int, cfg: MctsConfig
) -> tuple:
    """Full K-stage pattern computation. Deterministic under cfg.rng_seed."""
    return compute_pattern_mcts_traced(ctx, queue_totals, beams, cfg)[0]


def compute_pattern_mcts_traced(
    ctx: ScoreContext, queue_totals, beams: int, cfg: MctsConfig
) -> tuple[tuple, MctsTrace]:
    """The K-stage pattern and the rollout scores of every stage."""
    n = ctx.grid.n_cells
    if beams > n:
        raise ValueError(f"cannot place {beams} beams on {n} cells")
    ctx = with_queue_totals(ctx, queue_totals)
    if beams == n:
        pattern = tuple(range(n))
        return pattern, MctsTrace(committed=pattern)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(beams)
    out = MctsTrace()
    scores = out.iteration_scores
    prefix: tuple = ()
    for stage in range(beams):
        rng = np.random.default_rng(seeds[stage])
        start = len(scores)
        action, _ = run_single_stage(ctx, prefix, beams, cfg, rng, scores)
        out.stage_bounds.append((start, len(scores)))
        prefix = prefix + (action,)
    out.committed = prefix
    return prefix, out
