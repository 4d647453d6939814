"""Monte Carlo tree search over illumination patterns.

A pattern of K cells is built one cell at a time: K sequential searches,
each fixing one more cell. A search-tree node is a partial pattern; rollouts
complete the prefix uniformly at random and score the resulting pattern, and
scores are backed up the path. After a fixed iteration budget the root child
with the best mean score is committed (ties to the lower cell id) and the
next stage begins. Expanding a node records its candidate cells; a child
node is created on the first descent into it.

A stage draws all its randomness at once: one uniform key per iteration and
grid cell. Iteration t completes its leaf's prefix with the unchosen cells
of smallest key in row t. Every stage is the one-at-a-time UCT search, with
the same choices and the same floats, run on one of two paths:

- **Two-level path.** UCT visits the root's candidates once each, in
  ascending order, then chooses among them; the k-th visit (k >= 2) to root
  child a descends to a's (k-1)-th candidate, a fresh leaf that is rolled
  out and never visited again (a itself when a completes the pattern). So
  while every chosen child has an untried candidate left, a stage is a
  bandit over the root's children, and this path keeps only the root's
  arrays and a candidate list per root child: no node below the root. The
  first visits are scored with one ``score_batch`` call. After them, UCT
  runs in batches (leaf parallelization, as in Cazenave & Jouandeau, "On
  the Parallelization of UCT", 2007, with every choice kept): the root's
  next choices are predicted with each rollout standing in at its child's
  mean, their leaves are scored with one ``score_batch`` call, and one
  array pass (:func:`_root_run`) finds how many of them UCT makes on the
  true scores and applies those. The first predicted choice is always
  UCT's, so every batch advances.
- **General path.** The first time UCT chooses a root child with no untried
  candidate left, the stage hands off: the tree the iterations so far built
  (the root, its children with their expansions, one node per tried
  grandchild) is made from their record, and the stage goes on one
  iteration at a time: UCT descent, node creation, a scalar rollout and a
  backup along the path. No iteration runs twice.

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


def backlog_shares(queue_totals) -> np.ndarray:
    """Per cell, its queue total over the largest one (all 0 if none is
    positive): the backlog term of :func:`selection_values`."""
    totals = np.asarray(queue_totals, dtype=float)
    d_max = float(totals.max()) if totals.size else 0.0
    return totals / d_max if d_max > 0 else np.zeros(totals.shape)


def selection_values(
    candidates, selected, queue_totals, grid: CellGrid, backlog=None
) -> np.ndarray:
    """Pruning heuristic per candidate cell: backlog share plus normalized
    spread from the chosen cells.

    Both terms are scaled into [0, 1]: backlog by the current maximum queue
    total, the distance sum by (grid span x number chosen). ``backlog``, if
    given, is :func:`backlog_shares` of ``queue_totals``, computed once for
    many calls (each entry is the same division either way).
    """
    cand = np.asarray(list(candidates), dtype=int)
    if backlog is None:
        backlog = backlog_shares(queue_totals)
    mu = backlog[cand]
    selected = list(selected)
    if selected:
        dm = grid.distance_matrix()
        dist_max = grid.span() * len(selected)
        if dist_max > 0:
            mu = mu + dm[np.ix_(cand, selected)].sum(axis=1) / dist_max
    return mu


def pruned_actions(
    candidates, selected, queue_totals, grid: CellGrid, prune_width: int, backlog=None
) -> list[int]:
    """Top-prune_width candidates by selection value, ties to lower cell id.

    Returned in descending value order; with enough width this is just all
    candidates reordered. ``backlog`` as in :func:`selection_values`.
    """
    cand = np.asarray(list(candidates), dtype=int)
    mu = selection_values(cand, selected, queue_totals, grid, backlog)
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

    The one completion rule of both search paths: with the chosen cells'
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


def _expansion(ctx: ScoreContext, cfg: MctsConfig, beams: int):
    """The sorted actions an expansion records, as a function of a node's
    prefix and unchosen cells; the backlog shares are computed once."""
    if not cfg.pruning_enabled:
        return lambda prefix, remaining: remaining
    width = cfg.prune_width if cfg.prune_width is not None else beams
    backlog = backlog_shares(ctx.queue_totals)
    return lambda prefix, remaining: sorted(pruned_actions(
        remaining, prefix, ctx.queue_totals, ctx.grid, width, backlog
    ))


# UCT iterations the two-level path predicts and scores in a stage's first
# batch; each later batch covers twice the iterations the last one kept.
AHEAD = 32


def run_single_stage(
    ctx: ScoreContext,
    prefix: tuple,
    beams: int,
    cfg: MctsConfig,
    rng,
    trace_scores: list | None = None,
) -> tuple[int, SearchNode]:
    """One search stage: fix the next cell given an already-committed prefix.

    Returns (committed action, root). On the two-level path (see the module
    docstring) the root holds its candidates, child visit and score-sum
    arrays and its own counts, but no child nodes. If the stage hands off to
    the general path, the root is the whole search tree, whose nodes hold
    what the one-at-a-time search's would.

    Hand-off rule: the two-level path runs while UCT's next choice at the
    root is a child that still has an untried candidate (or completes the
    pattern); the first choice of a child with none left builds the tree
    and runs that iteration and the rest of the stage one at a time.
    """
    prefix = tuple(prefix)
    chosen = set(prefix)
    n = ctx.grid.n_cells
    remaining = [cell for cell in range(n) if cell not in chosen]
    keys = rng.random((cfg.max_iterations, n))
    keys[:, list(prefix)] = np.inf  # no rollout draws a chosen cell
    expansion = _expansion(ctx, cfg, beams)
    root = SearchNode(prefix, remaining)
    root.expand(expansion(prefix, remaining))
    cands = root.candidates
    swept = min(len(cands), cfg.max_iterations)
    slots = list(range(swept))  # the root child of every iteration so far
    scores = _rollout_scores(ctx, prefix, [(a,) for a in cands[:swept]], beams, keys)
    root.child_visits[:swept] += 1.0
    root.child_sums[:swept] += scores
    root.visit_count = swept
    for score in scores:
        root.score_sum += score
    last = len(prefix) + 1 >= beams  # root children complete the pattern
    below = [None] * len(cands)  # pruned: each root child's candidates

    def tail(slot: int, tried: int):
        """The cells below the root of the leaf of the next visit to root
        child ``slot``, which has tried ``tried`` candidates; None if it
        has no untried one left."""
        cell = cands[slot]
        if last:
            return (cell,)
        if not cfg.pruning_enabled:
            # The child's candidates are the root's without its own cell.
            if tried < len(remaining) - 1:
                return cell, remaining[tried + (tried >= slot)]
            return None
        if below[slot] is None:
            i = bisect_left(remaining, cell)
            below[slot] = expansion(prefix + (cell,), remaining[:i] + remaining[i + 1:])
        return (cell, below[slot][tried]) if tried < len(below[slot]) else None

    c = cfg.exploration_constant
    t, ahead = swept, AHEAD
    while t < cfg.max_iterations:
        order = _predict(root, min(ahead, cfg.max_iterations - t), c)
        visits = root.child_visits.tolist()
        tails = []
        for slot in order:
            cells = tail(slot, int(visits[slot]) - 1)
            if cells is None:
                break
            visits[slot] += 1
            tails.append(cells)
        if not tails:
            break  # UCT's choice has no untried candidate: hand off
        batch = _rollout_scores(ctx, prefix, tails, beams, keys[t:])
        run = _root_run(root, order[: len(tails)], batch, c)
        slots += order[:run]
        scores += batch[:run]
        t += run
        ahead = 2 * run
    if t < cfg.max_iterations:
        _two_level_tree(root, slots, scores, below)
        for t in range(t, cfg.max_iterations):
            node, path = root, [root]
            while node.visit_count and not node.is_terminal(beams):
                if not node.candidates:
                    node.expand(expansion(node.prefix, node.remaining))
                action = uct_select(node, c)
                node = node.children.get(action) or node.add_child(action)
                path.append(node)
            score = simulate(node, ctx, beams, keys[t])
            backup(path, score)
            scores.append(score)
    if trace_scores is not None:
        trace_scores.extend(scores)
    return _commit(root), root


def _predict(root: SearchNode, visits: int, c: float) -> list:
    """Predicted root choices (candidate slots) of the next ``visits`` UCT
    iterations at a fully swept root.

    Each predicted rollout is taken to score its root child's current mean,
    so a child's mean stays fixed and its UCT value falls with its visits
    alone. With the log of the root's visit count also held at its current
    value, UCT is a merge of the children's falling value sequences: one
    sort of a children x visits table, ties to the lower slot as in
    :func:`uct_select`, so the first choice is the real one.
    """
    child_visits = root.child_visits
    log_n = math.log(root.visit_count) if root.visit_count > 1 else 0.0
    values = (root.child_sums / child_visits)[:, None] + c * np.sqrt(
        log_n / (child_visits[:, None] + np.arange(visits))
    )
    flat = -values.ravel()
    top = np.flatnonzero(flat <= np.partition(flat, visits - 1)[visits - 1])
    return (top[np.lexsort((top, flat[top]))][:visits] // visits).tolist()


def _root_run(root: SearchNode, slots: list, scores: list, c: float) -> int:
    """How many of the next iterations choose root child ``slots[i]`` by
    :func:`uct_select`, each backing up ``scores[i]`` below that child;
    those iterations are applied to the root's arrays and counts.

    Row i holds the root's child statistics before iteration i: the visits
    and score sums accumulated over rows 0..i-1 in order, which is what
    :func:`backup`'s ``+=`` gives bit for bit (adding 0.0 is exact). Each
    row's UCT values use the same operations as :func:`uct_select`, and the
    first argmax is its choice; the run ends at the first row whose choice
    is not ``slots[i]``, and the row after its last iteration becomes the
    root's. Needs a fully swept root.
    """
    rows = len(slots)
    stats = np.zeros((2, rows + 1, len(root.candidates)))  # visits, sums
    stats[:, 0] = root.child_visits, root.child_sums
    steps = np.arange(1, rows + 1)
    stats[0, steps, slots] = 1.0
    stats[1, steps, slots] = scores
    np.add.accumulate(stats, axis=1, out=stats)
    visits, sums = stats[:, :rows]
    n = root.visit_count
    log_n = np.array([math.log(n + i) if n + i > 1 else 0.0 for i in range(rows)])
    values = sums / visits + c * np.sqrt(log_n[:, None] / visits)
    misses = np.flatnonzero(values.argmax(axis=1) != slots)
    run = int(misses[0]) if misses.size else rows
    root.child_visits, root.child_sums = stats[:, run].copy()
    root.visit_count = n + run
    for score in scores[:run]:
        root.score_sum += score
    return run


def _two_level_tree(root: SearchNode, slots: list, scores: list, below: list):
    """Give a two-level root the nodes that one-at-a-time search would
    have built over iterations that visited root children ``slots`` with
    ``scores``.

    Each root child holds the visits and score sum of the root's arrays,
    and is expanded once visited twice (``below`` holds pruned candidate
    lists; unpruned, a child's candidates are its unchosen cells); its
    j-th visit after the first created and rolled out its j-th candidate,
    a grandchild visited once. Only a stage whose root children are not
    terminal hands off.
    """
    got = [[] for _ in root.candidates]
    for slot, score in zip(slots, scores):
        got[slot].append(score)
    for slot, action in enumerate(root.candidates):
        child = root.add_child(action)
        child.visit_count = int(root.child_visits[slot])
        child.score_sum = float(root.child_sums[slot])
        if len(got[slot]) > 1:
            child.expand(below[slot] or child.remaining)
            tried = got[slot][1:]
            child.child_visits[: len(tried)] += 1.0
            child.child_sums[: len(tried)] += tried
            for cell, score in zip(child.candidates, tried):
                grandchild = child.add_child(cell)
                grandchild.visit_count, grandchild.score_sum = 1, 0.0 + score


def _rollout_scores(ctx: ScoreContext, prefix: tuple, tails: list, beams: int, keys) -> list:
    """Rollout scores of the leaves ``prefix + tails[i]``, in one batch.

    Row i completes its leaf by key row i, whose prefix cells already hold
    infinity: the rule of :func:`simulate`. All rows are scored by one
    :func:`score_batch` call.
    """
    tails = np.array(tails, dtype=np.int64)
    rows, depth = len(tails), len(prefix) + tails.shape[1]
    patterns = np.empty((rows, beams), dtype=np.int64)
    patterns[:, : len(prefix)] = prefix
    patterns[:, len(prefix) : depth] = tails
    if depth < beams:
        block = keys[:rows].copy()
        np.put_along_axis(block, tails, np.inf, axis=1)
        patterns[:, depth:] = _smallest(block, beams - depth)
    return score_batch(patterns, ctx).tolist()


def _commit(root: SearchNode) -> int:
    """The candidate of best mean score, ties to the lower cell id.

    An unvisited candidate reads mean 0 and never wins alone: scores are
    >= 0 and the lowest candidate is visited first.
    """
    visits = root.child_visits
    if visits is None:
        raise ValueError("nothing to commit: root was never expanded")
    means = np.divide(root.child_sums, visits, out=np.zeros_like(visits), where=visits > 0)
    return root.candidates[int(means.argmax())]


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
