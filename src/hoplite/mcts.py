"""Monte Carlo tree search over illumination patterns.

A pattern of K cells is built one cell at a time: K sequential searches,
each fixing one more cell. A search-tree node is a partial pattern; rollouts
complete the prefix uniformly at random and score the resulting pattern, and
scores are backed up the path. After a fixed iteration budget the root child
with the best mean score is committed (ties to the lower cell id) and the
next stage begins. Expanding a node records its candidate cells; a child
node is created on the first descent into it, so a stage of I iterations
holds at most I + 1 nodes.

A stage draws all its randomness at once: one uniform key per iteration and
grid cell. Iteration t completes its leaf's prefix with the unchosen cells
of smallest key in row t. The first iterations of a stage visit each root
candidate once, in ascending order, whatever the scores; this sweep is
drawn with one ``argpartition`` over its key rows, scored with one
``score_batch`` call and backed up in iteration order, which is exactly the
one-at-a-time search (leaf parallelization of the forced first visits, as in
Cazenave & Jouandeau, "On the Parallelization of UCT", 2007). The UCT
iterations after it run one at a time on the scalar scorer.

Each node keeps its unchosen cells, derived from its parent's, and the visit
counts and score sums of its children in arrays indexed like its candidate
list, so UCT over a fully expanded node is a handful of array operations.
Nodes point to their children only: the descent records its path and the
backup walks it, so a stage's tree holds no reference cycle and is freed as
soon as the stage returns.

Optional expansion pruning keeps only the most promising candidate cells at
each node, ranked by a selection value that rewards large backlogs and
distance from already-chosen cells (less mutual interference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellGrid
from .scoring import ScoreContext, score_batch, score_pattern, with_queue_totals

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
        "remaining",
        "slot",
        "children",
        "candidates",
        "child_visits",
        "child_sums",
        "visit_count",
        "score_sum",
    )

    def __init__(self, prefix: tuple, remaining: list[int], slot: int = -1):
        self.prefix = prefix
        # Cells not in the prefix, ascending; never mutated once set.
        self.remaining = remaining
        # This node's index in its parent's candidates (-1 at the root).
        self.slot = slot
        self.children: dict[int, SearchNode] = {}
        # Sorted actions to try from here, set on expansion; children are
        # created in this order, one per first descent.
        self.candidates: list[int] = []
        # Per candidate: visits and score sum of its child (0 until created).
        self.child_visits = self.child_sums = None
        self.visit_count = 0
        self.score_sum = 0.0

    def expand(self, candidates: list[int]):
        """Record the sorted candidate actions and zero their child stats."""
        self.candidates = candidates
        self.child_visits = np.zeros(len(candidates))
        self.child_sums = np.zeros(len(candidates))

    def add_child(self, action: int) -> "SearchNode":
        """Create the child for the next candidate not yet tried, ``action``."""
        remaining = self.remaining.copy()
        remaining.remove(action)
        child = SearchNode(self.prefix + (action,), remaining, len(self.children))
        self.children[action] = child
        return child

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


def selection_values(
    candidates, selected, queue_totals, grid: CellGrid
) -> np.ndarray:
    """Pruning heuristic per candidate cell: backlog share plus normalized
    spread from the chosen cells.

    Both terms are scaled into [0, 1]: backlog by the current maximum queue
    total, the distance sum by (grid span x number chosen).
    """
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
    cand = np.asarray(list(candidates), dtype=int)
    mu = selection_values(cand, selected, queue_totals, grid)
    return cand[np.lexsort((cand, -mu))[:prune_width]].tolist()


def uct_select(node: SearchNode, c: float) -> int:
    """Child action maximizing mean + c*sqrt(ln(parent visits)/child visits).

    Unvisited children take infinite priority; all ties go to the lower cell
    id (the arrays follow the ascending candidate order and argmax takes the
    first maximum). A candidate with no child yet is unvisited, and
    candidates are visited in ascending order, so the next one is tried
    before any UCT comparison.
    """
    children = node.children
    if len(children) < len(node.candidates):
        return node.candidates[len(children)]
    if not children:
        raise ValueError("uct_select on a node with no children")
    visits = node.child_visits
    if not visits.all():
        return node.candidates[int(visits.argmin())]
    log_n = math.log(node.visit_count) if node.visit_count > 1 else 0.0
    values = node.child_sums / visits + c * np.sqrt(log_n / visits)
    return node.candidates[int(values.argmax())]


def simulate(node: SearchNode, ctx: ScoreContext, beams: int, keys) -> float:
    """Score of the node's prefix completed to K cells by ``keys``, one
    uniform key per grid cell: the unchosen cells with the smallest keys."""
    prefix = node.prefix
    need = beams - len(prefix)
    if need == 0:
        return score_pattern(prefix, ctx, beams)
    if need == len(node.remaining):
        return score_pattern(prefix + tuple(node.remaining), ctx, beams)
    keys = keys.copy()
    keys[list(prefix)] = np.inf
    return score_pattern(prefix + tuple(_smallest(keys, need).tolist()), ctx, beams)


def _smallest(keys: np.ndarray, need: int) -> np.ndarray:
    """Per row of ``keys``, the positions of its ``need`` smallest entries.

    The one completion rule of both search phases: with the chosen cells'
    keys set to infinity, a uniform key row picks a uniform ``need``-subset
    of the unchosen cells.
    """
    return np.argpartition(keys, need - 1, axis=-1)[..., :need]


def backup(path: list[SearchNode], score: float):
    """Add one rollout's score along the root-to-leaf ``path``."""
    parent = None
    for node in path:
        node.visit_count += 1
        node.score_sum += score
        if parent is not None:
            parent.child_visits[node.slot] += 1.0
            parent.child_sums[node.slot] += score
        parent = node


def _expand(node: SearchNode, ctx: ScoreContext, cfg: MctsConfig, beams: int):
    candidates = node.remaining
    if cfg.pruning_enabled:
        width = cfg.prune_width if cfg.prune_width is not None else beams
        candidates = sorted(pruned_actions(
            candidates, node.prefix, ctx.queue_totals, ctx.grid, width
        ))
    node.expand(candidates)


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
    prefix = tuple(prefix)
    chosen = set(prefix)
    n = ctx.grid.n_cells
    remaining = [cell for cell in range(n) if cell not in chosen]
    keys = rng.random((cfg.max_iterations, n))
    root = SearchNode(prefix, remaining)
    _expand(root, ctx, cfg, beams)
    swept = min(len(root.candidates), cfg.max_iterations)
    for child, score in zip(
        [root.add_child(a) for a in root.candidates[:swept]],
        _sweep_scores(ctx, prefix, root.candidates[:swept], beams, keys[:swept]),
    ):
        backup([root, child], score)
        if trace_scores is not None:
            trace_scores.append(score)
    c = cfg.exploration_constant
    for t in range(swept, cfg.max_iterations):
        node = root
        path = [root]
        while not node.is_terminal(beams):
            if node.visit_count == 0:
                break  # fresh leaf: roll out before growing below it
            if not node.candidates:
                _expand(node, ctx, cfg, beams)
            action = uct_select(node, c)
            child = node.children.get(action)
            if child is None:
                child = node.add_child(action)
            node = child
            path.append(node)
        score = simulate(node, ctx, beams, keys[t])
        backup(path, score)
        if trace_scores is not None:
            trace_scores.append(score)
    return _commit(root), root


def _sweep_scores(ctx: ScoreContext, prefix: tuple, actions: list, beams: int, keys):
    """Rollout scores of the root's first visits, one per action, in one batch.

    Row t completes ``prefix + (actions[t],)`` by key row t, the rule of
    :func:`simulate`, and all rows are scored by one :func:`score_batch`.
    """
    head = np.empty((len(actions), len(prefix) + 1), dtype=np.int64)
    head[:, :-1] = prefix
    head[:, -1] = actions
    need = beams - head.shape[1]
    if need:
        keys = keys.copy()
        keys[:, list(prefix)] = np.inf
        keys[np.arange(len(actions)), actions] = np.inf
        head = np.concatenate([head, _smallest(keys, need)], axis=1)
    return score_batch(head, ctx).tolist()


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
