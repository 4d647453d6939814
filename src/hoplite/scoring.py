"""Illumination-pattern scoring on the sliding interference window.

A pattern's score is the normalized one-slot throughput it would deliver
against the current queue backlog. Each served cell is charged only with
the co-served cells inside the square window of half-width Ds (the
interference distance threshold on both axes), so pair terms drop from
O(K^2) to O(K * window). The window depends on the grid and Ds alone, so
the paper's three-pointer scan runs once per context, over the whole
x-sorted grid, and each score only filters the stored window of each served
cell by pattern membership. An unbounded Ds (``math.inf``) puts every other
cell in each window: the full-pair model, which :func:`score_bruteforce`
also computes directly over the pattern's pairs as the reference and the
paper's timing baseline. Both end in the same SINR -> Shannon ->
backlog-cap tail.

The scalar kernels deliberately run on plain Python floats: per-call array
overhead would otherwise dwarf the per-interferer work the window saves,
making the asymptotic win invisible at desk scale. :func:`score_batch`
scores many patterns at once on a padded per-cell window table built with
the context, and equals :func:`score_pattern` on every row bit for bit.
Where every window holds at most ``TABLE_WINDOW_MAX`` cells (6 at the
default Ds of one cell diameter, none at Ds = 0), it looks each served
cell's deliverable bits up in a per-cell subset table instead: one entry
per cell and subset of its window, each summed in window order and passed
through ``math.log2`` like the scalar scorers do. The table is built on the
first batch and shared by every context :func:`with_queue_totals` derives.
Wider windows (Ds of 1.5 diameters and up, or the whole grid at an
unbounded Ds) sum each served cell's co-served window gains instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .channel import LinkBudget, LinkParams, boresight_snr
from .geometry import CellGrid

# Widest window :func:`score_batch` scores from the per-cell subset table
# (2**width entries per cell); wider windows sum their gains per row.
TABLE_WINDOW_MAX = 8


@dataclass(frozen=True)
class ScoreContext:
    """Everything a scorer needs for one queue snapshot.

    Immutable; use :func:`with_queue_totals` to rebind the snapshot between
    slots without recomputing the cached link-budget columns. The window
    table is built for ``ds_km``: a new threshold needs a new context from
    :func:`make_score_context`.
    """

    grid: CellGrid
    budget: LinkBudget
    params: LinkParams
    queue_totals: np.ndarray = field(repr=False)
    slot_s: float = 0.1
    packet_bits: float = 1500 * 8.0
    ds_km: float = 942.0
    omega_max: float = 1.0
    # Python-native caches for the scoring hot path.
    gain_cols: list = field(repr=False, default_factory=list)
    # window[c] = the cells within ds_km of cell c on both axes, ascending
    # in x-rank: the grid-wide three-pointer scan, done once per context.
    # At ds_km = inf it holds every other cell.
    window: list = field(repr=False, default_factory=list)
    # rank_list[c] = position of cell c in grid.sorted_by_x; sorting a
    # pattern by rank gives its cells in ascending x in O(K log K).
    rank_list: list = field(repr=False, default_factory=list)
    # The valid cell ids, for the scalar scorers' range check.
    cell_ids: frozenset = field(repr=False, default=frozenset())
    queue_bits: list = field(repr=False, default_factory=list)
    # Padded n x W window table for :func:`score_batch`: batch_window[c] is
    # window[c] filled up with the never-served index n, batch_gain[c] the
    # matching gains into c (0.0 at the pads).
    batch_window: np.ndarray = field(repr=False, default=None)
    batch_gain: np.ndarray = field(repr=False, default=None)
    # Tables built on first use, shared by every context derived from this
    # one: "subset_bits", the n x 2**W table of :func:`_subset_bits`.
    lazy: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.ds_km < 0:
            raise ValueError("interference distance threshold must be >= 0")


def make_score_context(
    grid: CellGrid,
    budget: LinkBudget,
    params: LinkParams,
    queue_totals,
    *,
    slot_s: float = 0.1,
    packet_bits: float = 1500 * 8.0,
    ds_km: float | None = None,
    omega_max: float | None = None,
    backend: str = "sliding",
) -> ScoreContext:
    """Build a scoring context, deriving the normalizer if not given.

    The default normalizer is the best-case pattern throughput: every beam
    boresighted, interference-free, backlog unbounded — so scores land in
    [0, 1] once divided by it (the beam count is folded in by the caller via
    ``omega_max_for``; here the per-slot best case uses the grid-independent
    boresight SNR).

    ``backend="bruteforce"`` names the full-pair model, which is the window
    of an unbounded Ds: it sets ``ds_km`` to infinity. ``"sliding"`` keeps
    ``ds_km``; any other name is rejected.
    """
    if backend == "bruteforce":
        ds_km = math.inf
    elif backend != "sliding":
        raise ValueError(f"unknown scorer backend {backend!r}")
    totals = np.asarray(queue_totals, dtype=float)
    if totals.shape != (grid.n_cells,):
        raise ValueError("queue_totals must be a per-cell vector")
    if ds_km is None:
        ds_km = grid.cell_diameter
    if omega_max is None:
        raise ValueError("omega_max is required; use omega_max_for(...)")
    ranks = np.empty(grid.n_cells, dtype=np.int64)
    ranks[grid.sorted_by_x] = np.arange(grid.n_cells)
    order = grid.sorted_by_x.tolist()
    window = interference_cells_sliding_window(order, grid, float(ds_km))
    window = [window[c] for c in range(grid.n_cells)]
    batch_window, batch_gain = _batch_tables(budget.gain2, window)
    return ScoreContext(
        grid=grid,
        budget=budget,
        params=params,
        queue_totals=totals,
        slot_s=slot_s,
        packet_bits=packet_bits,
        ds_km=float(ds_km),
        omega_max=float(omega_max),
        gain_cols=budget.gain2.T.tolist(),
        window=window,
        rank_list=ranks.tolist(),
        cell_ids=frozenset(range(grid.n_cells)),
        queue_bits=(totals * packet_bits).tolist(),
        batch_window=batch_window,
        batch_gain=batch_gain,
    )


def _batch_tables(gain2: np.ndarray, windows: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell windows padded to one width with index n, and their gains."""
    n = len(windows)
    table = np.full((n, max(map(len, windows), default=0)), n, dtype=np.int64)
    for c, cells in enumerate(windows):
        table[c, : len(cells)] = cells
    gains = np.zeros(table.shape)
    real = table < n
    gains[real] = gain2[table[real], np.nonzero(real)[0]]
    return table, gains


def omega_max_for(
    budget: LinkBudget, params: LinkParams, beams: int, slot_s: float
) -> float:
    """Best-case one-slot pattern throughput: K noise-limited boresight beams."""
    snr0 = boresight_snr(budget, params)
    return beams * params.bandwidth_hz * math.log2(1.0 + snr0) * slot_s


def with_queue_totals(ctx: ScoreContext, queue_totals) -> ScoreContext:
    """Same context bound to a new backlog snapshot; caches are reused."""
    totals = np.asarray(queue_totals, dtype=float)
    return replace(
        ctx,
        queue_totals=totals,
        queue_bits=(totals * ctx.packet_bits).tolist(),
    )


def interference_cells_sliding_window(
    ordered: list[int],
    grid: CellGrid,
    ds_km: float,
    stats: dict | None = None,
) -> dict[int, list[int]]:
    """Per served cell, the co-served cells within ds on both axes.

    ``ordered`` must be ascending in x. Three pointers: the slow pointer
    fixes the cell under consideration, the fast pointer grows the window of
    cells whose x offset fits, and a temp pointer sweeps the window checking
    y offsets. Pairs are recorded symmetrically, so each cell's list is in
    the order of ``ordered``. The fast pointer never moves backward, so
    x-distance checks total O(n); only the in-window y sweeps revisit
    elements. :func:`make_score_context` runs it once over the whole grid.
    """
    xs = grid.xs.tolist()
    ys = grid.ys.tolist()
    xs_l = [xs[c] for c in ordered]
    ys_l = [ys[c] for c in ordered]
    if __debug__:
        for a, b in zip(xs_l, xs_l[1:]):
            assert a <= b, "sliding window input must be x-sorted"
    result: dict[int, list[int]] = {c: [] for c in ordered}
    length = len(ordered)
    fast_steps = window_visits = 0
    f = 0
    for s in range(length):
        x_s = xs_l[s]
        f0 = f
        while f < length and xs_l[f] - x_s <= ds_km:
            f += 1
        fast_steps += f - f0
        t0 = s + 1
        if f > t0:
            window_visits += f - t0
            cs = ordered[s]
            y_s = ys_l[s]
            for t in range(t0, f):
                dy = ys_l[t] - y_s
                if -ds_km <= dy <= ds_km:
                    result[cs].append(ordered[t])
                    result[ordered[t]].append(cs)
        elif f < t0:  # window start may never pass its end
            f = t0
    if stats is not None:
        stats.update(
            slow_steps=length, fast_steps=fast_steps, window_visits=window_visits
        )
    return result


def _served_bits(served, accs, ctx: ScoreContext) -> float:
    """Shared tail: one-slot deliverable bits given each cell's interference.

    ``accs[i]`` is the summed interferer gain at ``served[i]``; each cell
    delivers its Shannon bits for the slot, capped by its backlog.
    """
    gain_cols = ctx.gain_cols
    power = ctx.params.beam_power_w
    noise = ctx.budget.noise_power_w
    bandwidth = ctx.params.bandwidth_hz
    slot = ctx.slot_s
    queue_bits = ctx.queue_bits
    log2 = math.log2
    total = 0.0
    for n, acc in zip(served, accs):
        ratio = power * gain_cols[n][n] / (noise + power * acc)
        deliverable = bandwidth * log2(1.0 + ratio) * slot
        backlog_bits = queue_bits[n]
        total += deliverable if deliverable < backlog_bits else backlog_bits
    return total


def _check_cardinality(pattern, ctx: ScoreContext, expected: int | None) -> set:
    """The pattern's cells as a set, after checking count, range and duplicates."""
    if expected is not None and len(pattern) != expected:
        raise ValueError(f"pattern has {len(pattern)} cells, expected {expected}")
    served = set(pattern)
    if len(served) != len(pattern):
        raise ValueError("pattern has duplicate cells")
    if not served <= ctx.cell_ids:
        raise ValueError("pattern cell out of range")
    return served


def score_bruteforce(
    pattern, ctx: ScoreContext, expected_beams: int | None = None
) -> float:
    """Normalized score with interference from all other served cells.

    The full-pair reference: each served cell sums the gains of every other
    served cell in ascending x-rank, the order in which
    :func:`score_sliding_window` walks a window, so the two agree bit for
    bit on a window covering the whole grid (Ds = inf).
    """
    _check_cardinality(pattern, ctx, expected_beams)
    served = sorted(pattern, key=ctx.rank_list.__getitem__)
    gain_cols = ctx.gain_cols
    accs = []
    for c in served:
        col = gain_cols[c]
        acc = 0.0
        for l in served:
            if l != c:
                acc += col[l]
        accs.append(acc)
    return _served_bits(served, accs, ctx) / ctx.omega_max


def score_sliding_window(
    pattern, ctx: ScoreContext, expected_beams: int | None = None
) -> float:
    """Normalized score with interference limited to the ds window.

    Each served cell sums the gain of the co-served cells in its stored
    window. Windows are in ascending x-rank, the order a per-pattern
    three-pointer scan adds them in, so the pair set and the summation order
    match that scan exactly; with the window covering the whole grid
    (Ds = inf) this equals :func:`score_bruteforce` bit for bit.
    """
    served = _check_cardinality(pattern, ctx, expected_beams)
    ordered = sorted(pattern, key=ctx.rank_list.__getitem__)
    window = ctx.window
    gain_cols = ctx.gain_cols
    accs = []
    for c in ordered:
        col = gain_cols[c]
        acc = 0.0
        for l in window[c]:
            if l in served:
                acc += col[l]
        accs.append(acc)
    return _served_bits(ordered, accs, ctx) / ctx.omega_max


def score_batch(patterns, ctx: ScoreContext) -> np.ndarray:
    """:func:`score_pattern` of every row of a B x K array of cells, bit for bit.

    Each row is taken in x-rank order, and each served cell reads which
    cells of its padded window are co-served. With at most
    ``TABLE_WINDOW_MAX`` window cells, those flags form the cell's subset
    mask, and its deliverable bits are the subset table's entry. Otherwise
    the cell adds its window's gains in window order, 0.0 for a cell not
    co-served (adding 0.0 is exact), which is the scalar scorers' pair set
    and summation order, and :func:`_shannon_bits` turns the sum into bits.
    Either way the backlog cap follows, and each row's cells are summed
    term by term in x-rank order.
    """
    patterns = np.asarray(patterns, dtype=np.int64)
    if patterns.ndim != 2:
        raise ValueError("patterns must be a B x K array")
    # Rows are independent: score them in chunks of about 2**20 window
    # entries, so a grid-wide window on a large grid stays a few tens of MB.
    width = ctx.batch_window.shape[1]
    step = max(1, (1 << 20) // max(1, patterns.shape[1] * width))
    if len(patterns) > step:
        return np.concatenate(
            [score_batch(patterns[i : i + step], ctx) for i in range(0, len(patterns), step)]
        )
    n = ctx.grid.n_cells
    if patterns.size and (patterns.min() < 0 or patterns.max() >= n):
        raise ValueError("pattern cell out of range")
    ranks = np.sort(np.asarray(ctx.rank_list)[patterns], axis=1)
    if (ranks[:, 1:] == ranks[:, :-1]).any():
        raise ValueError("pattern has duplicate cells")
    cells = ctx.grid.sorted_by_x[ranks]
    # One row of n + 1 served flags per pattern, flattened; the window
    # pads point at the never-served flag n.
    offsets = np.arange(0, len(cells) * (n + 1), n + 1)[:, None]
    served = np.zeros(len(cells) * (n + 1), dtype=np.uint8)
    served[offsets + cells] = 1
    windows = ctx.batch_window.take(cells, axis=0)
    member = served.take(windows + offsets[:, :, None])
    if width <= TABLE_WINDOW_MAX:
        table = ctx.lazy.get("subset_bits")
        if table is None:
            table = ctx.lazy["subset_bits"] = _subset_bits(ctx)
        # 0/1 flags times distinct powers of two: at most 255, no overflow.
        masks = member @ (1 << np.arange(width)).astype(np.uint8)
        deliverable = table[cells, masks]
    else:
        gains = member * ctx.batch_gain.take(cells, axis=0)
        # ``accumulate`` adds term by term in order (no pairwise summation),
        # so its last column is the scalar left-to-right sum; every term is
        # >= 0, so starting from the first term equals starting from 0.0.
        acc = np.add.accumulate(gains, axis=2)[:, :, -1]
        deliverable = _shannon_bits(ctx, cells, acc)
    backlog_bits = ctx.queue_totals[cells] * ctx.packet_bits
    bits = np.where(deliverable < backlog_bits, deliverable, backlog_bits)
    total = np.zeros(len(cells))
    if bits.shape[1]:
        total = np.add.accumulate(bits, axis=1)[:, -1]
    return total / ctx.omega_max


def _shannon_bits(ctx: ScoreContext, cells, acc) -> np.ndarray:
    """One slot's deliverable bits of ``cells`` under summed interferer
    gains ``acc`` (broadcast together), operation for operation as
    :func:`_served_bits`, with ``math.log2`` per element (``np.log2`` may
    differ in the last bit)."""
    power = ctx.params.beam_power_w
    ratio = power * ctx.budget.gain2.diagonal()[cells] / (ctx.budget.noise_power_w + power * acc)
    terms = (1.0 + ratio).ravel().tolist()
    lg = np.fromiter(map(math.log2, terms), float, len(terms)).reshape(ratio.shape)
    return ctx.params.bandwidth_hz * lg * ctx.slot_s


def _subset_bits(ctx: ScoreContext) -> np.ndarray:
    """Per cell c and subset mask m of its window (bit j: window entry j is
    served), the deliverable bits of c for one slot.

    The summed gain of mask m is that of m without its highest bit plus
    that bit's gain, so every subset sums in window order from 0.0 like the
    scalar scorers. Masks touching a pad are never looked up.
    """
    gains = ctx.batch_gain
    n, width = gains.shape
    acc = np.zeros((n, 1 << width))
    for j in range(width):
        acc[:, 1 << j : 2 << j] = acc[:, : 1 << j] + gains[:, j : j + 1]
    return _shannon_bits(ctx, np.arange(n)[:, None], acc)


# The search's scorer. Every context scores through its window; the
# full-pair model is the window of an unbounded Ds.
score_pattern = score_sliding_window
