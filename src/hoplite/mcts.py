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
iterations after it are scored in batches too, without changing any of
them: a look-ahead predicts the leaves of the next iterations from the
current tree (each predicted rollout standing in at its root child's mean),
one ``score_batch`` call scores those leaves on their key rows, and the
iterations then run one at a time on true scores, each taking the batched
score if its real leaf is the predicted one. Once a prediction is scored,
every input of the root's next UCT choices is known, so one array pass
finds how many of them are the predicted ones (:func:`_root_run`); those
iterations take their root child from the prediction instead of calling
``uct_select``, and descend, roll out and back up below it as before. A
miss drops the rest of the prediction; where predictions keep missing (deep
trees, little exploration), they are only checked, not scored, and made
ever more rarely, so those stages run on the scalar scorer as before.

Each node keeps the visit counts and score sums of its children in arrays
indexed like its candidate list, so UCT over a fully expanded node is a
handful of array operations, and derives its unchosen cells from its
parent's on first use.
Nodes point to their children only: the descent records its path and the
backup walks it, so a stage's tree holds no reference cycle and is freed as
soon as the stage returns.

Optional expansion pruning keeps only the most promising candidate cells at
each node, ranked by a selection value that rewards large backlogs and
distance from already-chosen cells (less mutual interference).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellGrid
from .scoring import ScoreContext, score_batch, score_pattern, with_queue_totals

@dataclass(frozen=True)
class MctsConfig:
    """Search settings of every stage.

    A stage's first ``min(max_iterations, root candidates)`` iterations
    visit the root candidates once each, in ascending cell id, whatever
    the scores. So with ``max_iterations`` at or below a stage's root
    candidate count (unpruned: the unchosen cells), that stage only sweeps
    the lowest ids and commits one of them: at 331 cells, 82 beams and 200
    iterations no cell above id 280 is ever chosen, whatever the demand.
    """

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
        "_remaining",
        "_parent_remaining",
        "slot",
        "children",
        "candidates",
        "child_visits",
        "child_sums",
        "visit_count",
        "score_sum",
    )

    def __init__(self, prefix: tuple, remaining: list[int] | None, slot: int = -1):
        self.prefix = prefix
        # Cells not in the prefix, ascending; see :attr:`remaining`.
        self._remaining = remaining
        self._parent_remaining = None
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

    @property
    def remaining(self) -> list[int]:
        """Cells not in the prefix, ascending; never mutated once set.

        A child derives it from its parent's list on first use, so the many
        nodes that are never expanded never copy it.
        """
        remaining = self._remaining
        if remaining is None:
            remaining = self._remaining = self._parent_remaining.copy()
            del remaining[bisect_left(remaining, self.prefix[-1])]
            self._parent_remaining = None
        return remaining

    def expand(self, candidates: list[int]):
        """Record the sorted candidate actions and zero their child stats."""
        self.candidates = candidates
        self.child_visits = np.zeros(len(candidates))
        self.child_sums = np.zeros(len(candidates))

    def add_child(self, action: int) -> "SearchNode":
        """Create the child for the next candidate not yet tried, ``action``."""
        child = SearchNode(self.prefix + (action,), None, len(self.children))
        child._parent_remaining = self.remaining
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
    if need == ctx.grid.n_cells - len(prefix):
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


def _candidates(node: SearchNode, ctx: ScoreContext, cfg: MctsConfig, beams: int) -> list:
    """The sorted actions an expansion of ``node`` records."""
    if not cfg.pruning_enabled:
        return node.remaining
    width = cfg.prune_width if cfg.prune_width is not None else beams
    return sorted(pruned_actions(
        node.remaining, node.prefix, ctx.queue_totals, ctx.grid, width
    ))


def _expand(node: SearchNode, ctx: ScoreContext, cfg: MctsConfig, beams: int):
    node.expand(_candidates(node, ctx, cfg, beams))


# UCT-phase look-ahead: the first request, the largest request, and the
# shortest prediction worth making; predictions are scored in a batch only
# while recent runs of hits average at least AHEAD_MIN.
AHEAD_FIRST = 32
AHEAD_MAX = 128
AHEAD_MIN = 16


class Pace:
    """How far the UCT phase looks ahead and whether it scores its
    predictions, learned from how long they held; carried from one stage of
    a pattern to the next."""

    __slots__ = ("run", "size", "wait", "max_wait")

    def __init__(self, max_wait: int):
        self.run = float(AHEAD_MIN)  # running mean of hits per prediction
        self.size = AHEAD_FIRST  # iterations the next prediction covers
        self.wait = 0  # iterations between an untrusted prediction and the next
        self.max_wait = max_wait

    @property
    def trusted(self) -> bool:
        return self.run >= AHEAD_MIN

    def held(self, hits: int, whole: bool) -> int:
        """Record a prediction that held for ``hits`` iterations (``whole``:
        all of it); returns the iterations to wait before the next one,
        twice as many after each untrusted prediction."""
        self.run = (self.run + hits) / 2
        grown = 2 * self.size if whole else max(AHEAD_MIN, hits + AHEAD_MIN // 2)
        self.size = min(AHEAD_MAX, grown)
        self.wait = 0 if self.trusted else min(max(1, 2 * self.wait), self.max_wait)
        return self.wait


def run_single_stage(
    ctx: ScoreContext,
    prefix: tuple,
    beams: int,
    cfg: MctsConfig,
    rng,
    trace_scores: list | None = None,
    pace: Pace | None = None,
) -> tuple[int, SearchNode]:
    """One search stage: fix the next cell given an already-committed prefix.

    Returns (committed action, root) — the root is handed back so callers
    can audit visit counts and subtree score sums.

    The UCT iterations run one at a time on true scores, so every choice is
    the one-at-a-time search's; only where their rollouts are scored
    changes. :func:`_look_ahead` predicts the leaves of the next
    iterations from the current tree and, while ``pace`` trusts its
    predictions, one :func:`score_batch` call scores them on their key
    rows, and :func:`_root_run` finds how many of them UCT at the root
    chooses too; those take their root child from the prediction. An
    iteration whose real leaf is the predicted one takes the batched
    score; any other is scored alone and drops the rest of the
    prediction. An untrusted prediction (a probe) is only checked against
    the search, and the next one waits twice as long.
    """
    pace = pace or Pace(cfg.max_iterations)
    prefix = tuple(prefix)
    chosen = set(prefix)
    n = ctx.grid.n_cells
    remaining = [cell for cell in range(n) if cell not in chosen]
    keys = rng.random((cfg.max_iterations, n))
    root = SearchNode(prefix, remaining)
    _expand(root, ctx, cfg, beams)
    swept = min(len(root.candidates), cfg.max_iterations)
    children = [root.add_child(a) for a in root.candidates[:swept]]
    for child, score in zip(
        children, _rollout_scores(ctx, [c.prefix for c in children], beams, keys[:swept])
    ):
        backup([root, child], score)
        if trace_scores is not None:
            trace_scores.append(score)
    c = cfg.exploration_constant
    # Expansions made by a prediction, kept off their nodes until the
    # search reaches them.
    planned: dict[SearchNode, list] = {}

    def candidates_of(node):
        cands = planned.get(node)
        if cands is None:
            cands = planned[node] = _candidates(node, ctx, cfg, beams)
        return cands

    ahead: list[tuple] = []  # predicted leaves of iterations start, start + 1, ...
    ahead_scores = None  # their batched rollout scores; None for a probe
    hits = 0
    checked = 0  # leading predictions whose root choice is the true one
    depth = len(prefix)
    retry_at = swept + pace.wait
    for t in range(swept, cfg.max_iterations):
        if hits == len(ahead) and t >= retry_at:
            ahead, hits, checked = [], 0, 0
            want = min(pace.size, cfg.max_iterations - t)
            if want < AHEAD_MIN:  # too few iterations left to batch
                retry_at = cfg.max_iterations
            elif len(ahead := _look_ahead(root, want, c, beams, candidates_of)) < AHEAD_MIN:
                retry_at = t + pace.held(len(ahead), False)
                ahead = []
            elif pace.trusted:
                ahead_scores = _rollout_scores(ctx, ahead, beams, keys[t : t + len(ahead)])
                checked = _root_run(
                    root, [root.children[leaf[depth]].slot for leaf in ahead], ahead_scores, c
                )
            else:
                ahead_scores = None
        # Past the sweep every root child exists and has been visited.
        action = ahead[hits][depth] if hits < checked else uct_select(root, c)
        node = root.children[action]
        path = [root, node]
        while not node.is_terminal(beams):
            if node.visit_count == 0:
                break  # fresh leaf: roll out before growing below it
            if not node.candidates:
                cands = planned.pop(node, None)
                if cands is None:
                    _expand(node, ctx, cfg, beams)
                else:
                    node.expand(cands)
            action = uct_select(node, c)
            child = node.children.get(action)
            if child is None:
                child = node.add_child(action)
            node = child
            path.append(node)
        if hits < len(ahead) and ahead[hits] == node.prefix:
            if ahead_scores is None:
                score = simulate(node, ctx, beams, keys[t])
            else:
                score = ahead_scores[hits]
            hits += 1
            if hits == len(ahead):
                retry_at = t + 1 + pace.held(hits, True)
        else:
            if ahead:
                retry_at = t + 1 + pace.held(hits, False)
                ahead, hits, checked = [], 0, 0
            score = simulate(node, ctx, beams, keys[t])
        backup(path, score)
        if trace_scores is not None:
            trace_scores.append(score)
    return _commit(root), root


def _look_ahead(root: SearchNode, visits: int, c: float, beams: int, candidates_of) -> list:
    """Predicted leaf prefixes of the next ``visits`` UCT iterations.

    Each predicted rollout is taken to score its root child's current mean,
    so a child's mean stays fixed and its UCT value falls with its visits
    alone. With the log of the root's visit count also held at its current
    value, UCT at the fully swept root is a merge of the children's falling
    value sequences: one sort of a children x visits table, ties to the
    lower slot as in :func:`uct_select`, so the first choice is the real
    one. Below the root a prediction follows only the untried candidates
    of each child (or stays at a terminal child), and stops short where a
    child would need UCT of its own. No real node is changed;
    ``candidates_of`` supplies (and keeps) expansions.
    """
    child_visits = root.child_visits
    log_n = math.log(root.visit_count) if root.visit_count > 1 else 0.0
    values = (root.child_sums / child_visits)[:, None] + c * np.sqrt(
        log_n / (child_visits[:, None] + np.arange(visits))
    )
    flat = -values.ravel()
    top = np.flatnonzero(flat <= np.partition(flat, visits - 1)[visits - 1])
    order = (top[np.lexsort((top, flat[top]))][:visits] // visits).tolist()
    below = {
        slot: iter(_fresh_leaves(root.children[root.candidates[slot]], k, beams, candidates_of))
        for slot, k in Counter(order).items()
    }
    out = []
    for slot in order:
        leaf = next(below[slot], None)
        if leaf is None:
            break
        out.append(leaf)
    return out


def _root_run(root: SearchNode, slots: list, scores: list, c: float) -> int:
    """How many of the next iterations choose root child ``slots[i]`` by
    :func:`uct_select`, each backing up ``scores[i]`` below that child.

    Row i holds the root's child statistics before iteration i: the visits
    and score sums accumulated over rows 0..i-1 in order, which is what
    :func:`backup`'s ``+=`` gives bit for bit (adding 0.0 is exact). Each
    row's UCT values use the same operations as :func:`uct_select`, and the
    first argmax is its choice; the run ends at the first row whose choice
    is not ``slots[i]``. Needs a fully swept root.
    """
    rows = len(slots)
    visits = np.zeros((rows, len(root.candidates)))
    sums = np.zeros_like(visits)
    visits[0], sums[0] = root.child_visits, root.child_sums
    visits[np.arange(1, rows), slots[:-1]] = 1.0
    sums[np.arange(1, rows), slots[:-1]] = scores[:-1]
    np.add.accumulate(visits, axis=0, out=visits)
    np.add.accumulate(sums, axis=0, out=sums)
    n = root.visit_count
    log_n = np.array([math.log(n + i) if n + i > 1 else 0.0 for i in range(rows)])
    values = sums / visits + c * np.sqrt(log_n[:, None] / visits)
    misses = np.flatnonzero(values.argmax(axis=1) != slots)
    return int(misses[0]) if misses.size else rows


def _fresh_leaves(node: SearchNode, visits: int, beams: int, candidates_of) -> list:
    """Leaf prefixes of the next ``visits`` descents into a visited ``node``
    while it has untried candidates: one new child each, in candidate
    order, or the node itself if it is terminal."""
    if len(node.prefix) >= beams:
        return [node.prefix] * visits
    cands = node.candidates or candidates_of(node)
    tried = len(node.children)
    return [node.prefix + (a,) for a in cands[tried : tried + visits]]


def _rollout_scores(ctx: ScoreContext, leaves: list, beams: int, keys) -> list[float]:
    """Rollout scores of the leaf prefixes ``leaves``, in one batch.

    Row t completes ``leaves[t]`` by key row t, the rule of
    :func:`simulate`; leaves of one depth are completed together and all
    rows are scored by one :func:`score_batch` call.
    """
    patterns = np.empty((len(leaves), beams), dtype=np.int64)
    by_depth: dict[int, list[int]] = {}
    for row, leaf in enumerate(leaves):
        by_depth.setdefault(len(leaf), []).append(row)
    for depth, rows in by_depth.items():
        head = np.array([leaves[r] for r in rows], dtype=np.int64)
        patterns[rows, :depth] = head
        if depth < beams:
            block = keys[rows]
            block[np.arange(len(rows))[:, None], head] = np.inf
            patterns[rows, depth:] = _smallest(block, beams - depth)
    return score_batch(patterns, ctx).tolist()


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
    pace = Pace(cfg.max_iterations)
    for stage in range(beams):
        rng = np.random.default_rng(seeds[stage])
        start = len(scores)
        action, _ = run_single_stage(ctx, prefix, beams, cfg, rng, scores, pace)
        out.stage_bounds.append((start, len(scores)))
        prefix = prefix + (action,)
    out.committed = prefix
    return prefix, out
