"""Pattern scoring: window extraction vs pair oracles, full-window equivalence."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hoplite.scoring as scoring
from hoplite.channel import build_link_budget
from hoplite.geometry import generate_grid, grid_from_points
from hoplite.scoring import (
    TABLE_WINDOW_MAX,
    interference_cells_sliding_window,
    make_score_context,
    omega_max_for,
    score_batch,
    score_bruteforce,
    score_pattern,
    score_sliding_window,
    with_queue_totals,
)

from conftest import build_ctx

# -- oracles --------------------------------------------------------------------


def oracle_axis_pairs(cells, grid, ds_km):
    """All unordered pairs within ds on both axes, by direct double loop."""
    pairs = set()
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if (
                abs(grid.xs[a] - grid.xs[b]) <= ds_km
                and abs(grid.ys[a] - grid.ys[b]) <= ds_km
            ):
                pairs.add((min(a, b), max(a, b)))
    return pairs


def map_to_pairs(interference_map):
    pairs = set()
    for cell, neighbors in interference_map.items():
        for other in neighbors:
            pairs.add((min(cell, other), max(cell, other)))
    return pairs


def oracle_score(pattern, ctx, interferers_of):
    """Straight-line recomputation of the normalized score."""
    p = ctx.params.beam_power_w
    noise = ctx.budget.noise_power_w
    total = 0.0
    for n in pattern:
        acc = sum(ctx.budget.gain2[l, n] for l in interferers_of(n))
        s = p * ctx.budget.gain2[n, n] / (noise + p * acc)
        deliverable = ctx.params.bandwidth_hz * math.log2(1.0 + s) * ctx.slot_s
        total += min(deliverable, ctx.queue_totals[n] * ctx.packet_bits)
    return total / ctx.omega_max


def x_ordered(pattern, grid):
    return sorted(pattern, key=lambda c: (grid.xs[c], c))


def random_pattern(rng, n, k):
    return tuple(sorted(int(c) for c in rng.choice(n, size=k, replace=False)))


# -- window extraction ------------------------------------------------------------


def test_window_matches_pair_oracle_random(grid37):
    rng = np.random.default_rng(5)
    for _ in range(200):
        pattern = random_pattern(rng, grid37.n_cells, 9)
        ordered = x_ordered(pattern, grid37)
        ds = float(rng.uniform(0, 4) * grid37.cell_diameter)
        got = interference_cells_sliding_window(ordered, grid37, ds)
        assert map_to_pairs(got) == oracle_axis_pairs(ordered, grid37, ds)


@pytest.mark.parametrize("rings,beams", [(4, 15), (5, 22), (6, 31)])
def test_window_matches_pair_oracle_larger_grids(rings, beams):
    grid = generate_grid(rings)
    rng = np.random.default_rng(rings)
    for _ in range(25):
        ordered = x_ordered(random_pattern(rng, grid.n_cells, beams), grid)
        got = interference_cells_sliding_window(ordered, grid, grid.cell_diameter)
        assert map_to_pairs(got) == oracle_axis_pairs(ordered, grid, grid.cell_diameter)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 20),
    ds_diameters=st.floats(0.0, 8.0, allow_nan=False),
)
def test_window_pair_oracle_property(seed, k, ds_diameters):
    grid = generate_grid(3)
    rng = np.random.default_rng(seed)
    ordered = x_ordered(random_pattern(rng, grid.n_cells, k), grid)
    ds = ds_diameters * grid.cell_diameter
    got = interference_cells_sliding_window(ordered, grid, ds)
    assert map_to_pairs(got) == oracle_axis_pairs(ordered, grid, ds)


def test_window_symmetric_no_self(grid37):
    rng = np.random.default_rng(17)
    ordered = x_ordered(random_pattern(rng, 37, 12), grid37)
    result = interference_cells_sliding_window(
        ordered, grid37, 2 * grid37.cell_diameter
    )
    for cell, neighbors in result.items():
        assert cell not in neighbors
        assert len(set(neighbors)) == len(neighbors)
        for other in neighbors:
            assert cell in result[other]


def test_window_ds_zero_empty(grid37):
    ordered = x_ordered(range(10), grid37)
    result = interference_cells_sliding_window(ordered, grid37, 0.0)
    assert all(not v for v in result.values())


def test_window_covers_all_when_ds_exceeds_span(grid37):
    rng = np.random.default_rng(23)
    ordered = x_ordered(random_pattern(rng, 37, 9), grid37)
    result = interference_cells_sliding_window(ordered, grid37, grid37.span() + 1.0)
    for cell, neighbors in result.items():
        assert sorted(neighbors) == sorted(c for c in ordered if c != cell)


def test_window_collinear_exact_spacing():
    # Three cells on the x axis exactly ds apart: mutual adjacent pairs only.
    ds = 500.0
    grid = grid_from_points([0.0, ds, 2 * ds], [0.0, 0.0, 0.0], cell_diameter=ds)
    result = interference_cells_sliding_window([0, 1, 2], grid, ds)
    assert sorted(result[0]) == [1]
    assert sorted(result[1]) == [0, 2]
    assert sorted(result[2]) == [1]


def test_window_rejects_unsorted_input(grid37):
    ordered = x_ordered(range(6), grid37)
    backwards = list(reversed(ordered))
    with pytest.raises(AssertionError):
        interference_cells_sliding_window(backwards, grid37, grid37.cell_diameter)


def test_window_pointer_step_bounds(grid37):
    rng = np.random.default_rng(29)
    for _ in range(50):
        k = int(rng.integers(2, 20))
        ordered = x_ordered(random_pattern(rng, 37, k), grid37)
        stats = {}
        interference_cells_sliding_window(
            ordered, grid37, grid37.cell_diameter, stats=stats
        )
        # Slow pointer passes each element once; the fast pointer advances at
        # most once per element in total. Only in-window sweeps revisit.
        assert stats["slow_steps"] == k
        assert stats["fast_steps"] <= k
        assert stats["slow_steps"] + stats["fast_steps"] <= 2 * k
        assert stats["window_visits"] <= k * (k - 1) // 2


@pytest.mark.parametrize("rings", [3, 6])
def test_context_window_table_matches_brute_force(rings, params):
    grid = generate_grid(rings)
    n = grid.n_cells
    budget = build_link_budget(grid, params)
    xs, ys = grid.xs.tolist(), grid.ys.tolist()
    order = x_ordered(range(n), grid)
    rank = {c: i for i, c in enumerate(order)}
    d = grid.cell_diameter
    for ds in (0.0, d, 3 * d, grid.span() + 1.0):
        ctx = build_ctx(grid, budget, params, np.zeros(n), beams=1, ds_km=ds)
        assert len(ctx.window) == n
        for c in range(n):
            expect = []
            for other in order:
                if other == c:
                    continue
                # Offsets run from the earlier-ranked cell to the later one.
                a, b = sorted((c, other), key=rank.__getitem__)
                if -ds <= xs[b] - xs[a] <= ds and -ds <= ys[b] - ys[a] <= ds:
                    expect.append(other)
            assert ctx.window[c] == expect
        if ds == 0.0:
            assert not any(ctx.window)
        if ds > grid.span():
            assert all(len(w) == n - 1 for w in ctx.window)


# -- served-cell extraction --------------------------------------------------------


def test_rank_sort_equals_mark_and_extract(ctx37, grid37):
    def by_rank(pattern):
        return sorted(pattern, key=ctx37.rank_list.__getitem__)

    rng = np.random.default_rng(31)
    for _ in range(50):
        pattern = random_pattern(rng, 37, int(rng.integers(1, 20)))
        assert by_rank(pattern) == x_ordered(pattern, grid37)
    full = tuple(range(37))
    assert by_rank(full) == x_ordered(full, grid37) == list(grid37.sorted_by_x)
    assert by_rank((5,)) == [5]


# -- scores -------------------------------------------------------------------------


def test_bruteforce_matches_straight_line_oracle(ctx37):
    rng = np.random.default_rng(41)
    for _ in range(50):
        pattern = random_pattern(rng, 37, 9)
        got = score_bruteforce(pattern, ctx37, 9)
        expect = oracle_score(
            pattern, ctx37, lambda n: [c for c in pattern if c != n]
        )
        assert got == pytest.approx(expect, rel=1e-12)


def test_sliding_matches_windowed_oracle(ctx37, grid37):
    rng = np.random.default_rng(43)
    for _ in range(50):
        pattern = random_pattern(rng, 37, 9)
        ordered = x_ordered(pattern, grid37)
        window = interference_cells_sliding_window(
            ordered, grid37, ctx37.ds_km
        )
        got = score_sliding_window(pattern, ctx37, 9)
        expect = oracle_score(pattern, ctx37, lambda n: window[n])
        assert got == pytest.approx(expect, rel=1e-12)


def test_backends_identical_with_full_window(grid37, budget37, params):
    rng = np.random.default_rng(47)
    totals = rng.integers(0, 20000, 37).astype(float)
    ctx = build_ctx(grid37, budget37, params, totals, beams=9, ds_km=math.inf)
    for _ in range(100):
        pattern = random_pattern(rng, 37, 9)
        assert score_sliding_window(pattern, ctx, 9) == score_bruteforce(
            pattern, ctx, 9
        )


def test_sliding_never_below_bruteforce(ctx37):
    # Dropping far interference can only raise SINR, hence the score.
    rng = np.random.default_rng(53)
    for _ in range(100):
        pattern = random_pattern(rng, 37, 9)
        assert score_sliding_window(pattern, ctx37, 9) >= score_bruteforce(
            pattern, ctx37, 9
        )


def test_single_beam_noise_limited_formula(grid37, budget37, params):
    totals = np.zeros(37)
    totals[0] = 1e9  # effectively unbounded backlog
    ctx = build_ctx(
        grid37,
        budget37,
        params,
        totals,
        beams=1,
        omega_max=omega_max_for(budget37, params, 1, 0.1),
    )
    p = params.beam_power_w
    snr = p * budget37.gain2[0, 0] / budget37.noise_power_w
    expect = params.bandwidth_hz * math.log2(1.0 + snr) * 0.1 / ctx.omega_max
    assert score_bruteforce((0,), ctx, 1) == pytest.approx(expect, rel=1e-12)
    assert score_sliding_window((0,), ctx, 1) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.0, rel=1e-12)  # best case saturates at 1


def test_zero_demand_scores_zero(grid37, budget37, params):
    ctx = build_ctx(grid37, budget37, params, np.zeros(37), beams=9)
    rng = np.random.default_rng(59)
    for _ in range(10):
        pattern = random_pattern(rng, 37, 9)
        assert score_bruteforce(pattern, ctx, 9) == 0.0
        assert score_sliding_window(pattern, ctx, 9) == 0.0


def test_isolated_pattern_is_noise_limited(grid37, budget37, params):
    # Corner cells farther than one diameter apart on both axes: the window
    # finds nothing, so each beam scores as if alone.
    pattern = []
    for cell in grid37.sorted_by_x:
        c = int(cell)
        if all(
            abs(grid37.xs[c] - grid37.xs[o]) > grid37.cell_diameter
            or abs(grid37.ys[c] - grid37.ys[o]) > grid37.cell_diameter
            for o in pattern
        ):
            pattern.append(c)
    assert len(pattern) >= 4
    totals = np.full(37, 1e9)
    ctx = build_ctx(grid37, budget37, params, totals, beams=len(pattern))
    p = ctx.params.beam_power_w
    expect = sum(
        ctx.params.bandwidth_hz
        * math.log2(1.0 + p * budget37.gain2[n, n] / budget37.noise_power_w)
        * ctx.slot_s
        for n in pattern
    ) / ctx.omega_max
    got = score_sliding_window(tuple(pattern), ctx, len(pattern))
    assert got == pytest.approx(expect, rel=1e-12)


def test_scores_lie_in_unit_interval(ctx37):
    rng = np.random.default_rng(61)
    for _ in range(50):
        pattern = random_pattern(rng, 37, 9)
        for backend in (score_bruteforce, score_sliding_window):
            s = backend(pattern, ctx37, 9)
            assert 0.0 <= s <= 1.0


def test_score_ranking_invariant_under_normalizer(grid37, budget37, params):
    rng = np.random.default_rng(67)
    totals = rng.integers(0, 20000, 37).astype(float)
    base = build_ctx(grid37, budget37, params, totals, beams=9)
    scaled = build_ctx(
        grid37, budget37, params, totals, beams=9, omega_max=7.0 * base.omega_max
    )
    patterns = [random_pattern(rng, 37, 9) for _ in range(20)]
    order_a = sorted(range(20), key=lambda i: score_bruteforce(patterns[i], base, 9))
    order_b = sorted(range(20), key=lambda i: score_bruteforce(patterns[i], scaled, 9))
    assert order_a == order_b


# -- context plumbing -----------------------------------------------------------------


def test_with_queue_totals_rebinds_snapshot(ctx37):
    new_totals = np.zeros(37)
    ctx = with_queue_totals(ctx37, new_totals)
    assert score_bruteforce((0, 5, 9), ctx) == 0.0
    assert ctx.queue_bits == [0.0] * 37
    assert ctx.gain_cols is ctx37.gain_cols  # caches shared, not rebuilt
    assert ctx.window is ctx37.window


def test_score_pattern_dispatches_backend(grid37, budget37, params):
    rng = np.random.default_rng(73)
    totals = rng.integers(0, 20000, 37).astype(float)
    pattern = random_pattern(rng, 37, 9)
    brute = build_ctx(grid37, budget37, params, totals, beams=9, backend="bruteforce")
    slide = build_ctx(grid37, budget37, params, totals, beams=9, backend="sliding")
    assert score_pattern(pattern, brute, 9) == score_bruteforce(pattern, brute, 9)
    assert score_pattern(pattern, slide, 9) == score_sliding_window(pattern, slide, 9)


@pytest.mark.parametrize("rings", [3, 6])
def test_bruteforce_keyword_is_the_unbounded_window(rings, params):
    grid = generate_grid(rings)
    n, beams = grid.n_cells, grid.n_cells // 4
    budget = build_link_budget(grid, params)
    rng = np.random.default_rng((rings, 29))
    totals = rng.integers(0, 20000, n).astype(float)
    brute = build_ctx(grid, budget, params, totals, beams=beams, backend="bruteforce")
    unbounded = build_ctx(grid, budget, params, totals, beams=beams, ds_km=math.inf)
    assert brute.ds_km == unbounded.ds_km == math.inf
    assert brute.window == unbounded.window
    assert np.array_equal(brute.batch_window, unbounded.batch_window)
    assert np.array_equal(brute.batch_gain, unbounded.batch_gain)
    rows = np.array([rng.choice(n, size=beams, replace=False) for _ in range(50)])
    patterns = list(map(tuple, rows.tolist()))
    expect = [score_bruteforce(p, brute, beams).hex() for p in patterns]
    for ctx in (brute, unbounded):
        assert [score_pattern(p, ctx, beams).hex() for p in patterns] == expect
        assert [s.hex() for s in score_batch(rows, ctx).tolist()] == expect


@pytest.mark.parametrize(
    "scorer", [score_bruteforce, score_sliding_window, score_pattern],
    ids=["bruteforce", "sliding", "score_pattern"],
)
def test_scalar_scorers_reject_out_of_range_cells(ctx37, scorer):
    # -37 would otherwise index cell 0 from the end: a hidden duplicate.
    for bad in (-1, -37, 37):
        with pytest.raises(ValueError, match="out of range"):
            scorer((bad, 0, 1), ctx37)


def test_cardinality_and_duplicate_checks(ctx37):
    with pytest.raises(ValueError):
        score_bruteforce((0, 1, 2), ctx37, expected_beams=9)
    with pytest.raises(ValueError):
        score_sliding_window((0, 0, 1), ctx37)


def test_make_score_context_validation(grid37, budget37, params):
    with pytest.raises(ValueError):
        make_score_context(grid37, budget37, params, np.zeros(5), omega_max=1.0)
    with pytest.raises(ValueError):
        make_score_context(grid37, budget37, params, np.zeros(37), omega_max=None)
    with pytest.raises(ValueError):
        build_ctx(grid37, budget37, params, np.zeros(37), beams=9, backend="magic")
    with pytest.raises(ValueError):
        build_ctx(grid37, budget37, params, np.zeros(37), beams=9, ds_km=-1.0)
    with pytest.raises(ValueError):
        build_ctx(grid37, budget37, params, np.zeros(37), beams=9, omega_max=0.0)


def test_omega_max_scales_with_beams_and_slot(budget37, params):
    one = omega_max_for(budget37, params, 1, 0.1)
    assert omega_max_for(budget37, params, 9, 0.1) == pytest.approx(9 * one, rel=1e-12)
    assert omega_max_for(budget37, params, 1, 0.2) == pytest.approx(2 * one, rel=1e-12)


# -- batch kernel ------------------------------------------------------------------


@pytest.fixture(scope="module", params=[3, 6, 10], ids=["37", "127", "331"])
def batch_system(request, params):
    grid = generate_grid(request.param)
    rng = np.random.default_rng(request.param)
    totals = rng.integers(0, 20000, grid.n_cells).astype(float)
    totals[::7] = 0.0  # some cells deliver nothing, most are capped by either side
    return grid, build_link_budget(grid, params), totals


@pytest.mark.parametrize("ds_diameters", [0.0, 1.0, 3.0, 1e3], ids=["ds0", "ds1", "ds3", "wide"])
def test_score_batch_equals_scalar_scorers_row_for_row(batch_system, params, ds_diameters):
    grid, budget, totals = batch_system
    n = grid.n_cells
    slide, brute = (
        build_ctx(grid, budget, params, totals, beams=n // 4,
                  ds_km=ds_diameters * grid.cell_diameter, backend=backend)
        for backend in ("sliding", "bruteforce")
    )
    rng = np.random.default_rng((n, int(ds_diameters)))
    for k in sorted({1, 2, n // 4, int(rng.integers(3, n)), n}):
        rows = np.array([rng.choice(n, size=k, replace=False) for _ in range(4)])
        patterns = [tuple(row) for row in rows.tolist()]
        assert score_batch(rows, slide).tolist() == [
            score_sliding_window(p, slide, k) for p in patterns]
        assert score_batch(rows, brute).tolist() == [
            score_bruteforce(p, brute, k) for p in patterns]


def test_score_batch_in_row_chunks_equals_scalar(grid37, budget37, params):
    # 37 cells on a grid-wide window are 37 * 36 window entries per row, so
    # 1000 rows are scored in two chunks.
    rng = np.random.default_rng(83)
    brute = build_ctx(grid37, budget37, params, rng.integers(0, 20000, 37).astype(float),
                      beams=9, backend="bruteforce")
    rows = np.array([rng.permutation(37) for _ in range(1000)])
    assert score_batch(rows, brute).tolist() == [
        score_bruteforce(tuple(row), brute, 37) for row in rows.tolist()]


def test_score_batch_reuses_tables_on_new_backlog(ctx37):
    rng = np.random.default_rng(79)
    ctx = with_queue_totals(ctx37, rng.integers(0, 9000, 37).astype(float))
    assert ctx.batch_window is ctx37.batch_window
    assert ctx.batch_gain is ctx37.batch_gain
    rows = np.array([rng.choice(37, size=9, replace=False) for _ in range(20)])
    assert score_batch(rows, ctx).tolist() == [
        score_sliding_window(tuple(row), ctx, 9) for row in rows.tolist()]


def test_score_batch_rejects_bad_rows(ctx37):
    with pytest.raises(ValueError):
        score_batch(np.array([[1, 2, 3], [4, 4, 5]]), ctx37)
    with pytest.raises(ValueError):
        score_batch(np.array([[1, 2, 37]]), ctx37)
    with pytest.raises(ValueError):
        score_batch(np.array([[-1, 2, 3]]), ctx37)
    with pytest.raises(ValueError):
        score_batch(np.array([1, 2, 3]), ctx37)


# -- subset table -------------------------------------------------------------------


def served_masks(row, ctx):
    """Per cell of ``row``, the bits of its window entries that ``row`` serves."""
    served = set(row)
    return {c: sum(1 << j for j, l in enumerate(ctx.window[c]) if l in served) for c in row}


@pytest.mark.parametrize("ds_diameters", [0.0, 1.0], ids=["ds0", "ds1"])
def test_subset_table_equals_scalar_scorers_on_random_rows(
    batch_system, params, monkeypatch, ds_diameters
):
    # Every seventh cell has no backlog (see ``batch_system``).
    grid, budget, totals = batch_system
    n = grid.n_cells
    beams = n // 4
    ctx = build_ctx(grid, budget, params, totals, beams=beams,
                    ds_km=ds_diameters * grid.cell_diameter)
    rng = np.random.default_rng((n, 11, int(ds_diameters)))
    rows = np.array([rng.choice(n, size=beams, replace=False) for _ in range(1000)])
    got = score_batch(rows, ctx).tolist()
    assert "subset_bits" in ctx.lazy
    assert got == [score_sliding_window(p, ctx, beams) for p in map(tuple, rows.tolist())]
    if ctx.batch_window.shape[1]:  # the same rows through the summed path
        monkeypatch.setattr(scoring, "TABLE_WINDOW_MAX", 0)
        assert score_batch(rows, ctx).tolist() == got


@pytest.mark.parametrize("rings", [3, 6, 10])
def test_subset_table_entries_equal_scalar_scorer(params, rings):
    # Every entry of the table, one cell and one subset of its window at a
    # time: only that cell has a backlog, so a row scores its deliverable
    # bits. A jittered grid gives the entries distinct gains, and a weak
    # link puts 1 + SINR near 1, where log2 implementations round apart most.
    base = generate_grid(rings)
    n, d = base.n_cells, base.cell_diameter
    rng = np.random.default_rng(rings)
    grid = grid_from_points(base.xs + rng.uniform(-0.2, 0.2, n) * d,
                            base.ys + rng.uniform(-0.2, 0.2, n) * d, cell_diameter=d)
    weak = replace(params, beam_power_dbw=10.0)
    ctx = build_ctx(grid, build_link_budget(grid, weak), weak, np.zeros(n), beams=1,
                    ds_km=0.9 * d, omega_max=1.0)
    assert ctx.batch_window.shape[1] <= TABLE_WINDOW_MAX
    for c in range(n):
        window = ctx.window[c]
        totals = np.zeros(n)
        totals[c] = 1e12
        alone = with_queue_totals(ctx, totals)
        by_size = {}
        for mask in range(1 << len(window)):
            row = (c, *(l for j, l in enumerate(window) if mask >> j & 1))
            by_size.setdefault(len(row), []).append(row)
        for rows in by_size.values():
            assert score_batch(np.array(rows), alone).tolist() == [
                score_sliding_window(row, alone) for row in rows]


def test_subset_table_equals_bruteforce_on_small_grids(grid8, budget8, params):
    # Up to nine cells, the unbounded (grid-wide) window fits the table.
    for grid, budget in ((grid8, budget8), (generate_grid(1), None)):
        budget = budget or build_link_budget(grid, params)
        n = grid.n_cells
        rng = np.random.default_rng(n)
        totals = rng.integers(0, 20000, n).astype(float)
        totals[::3] = 0.0
        ctx = build_ctx(grid, budget, params, totals, beams=3, backend="bruteforce")
        for k in range(n + 1):
            rows = np.array([rng.permutation(n)[:k] for _ in range(1000 // n)])
            assert score_batch(rows, ctx).tolist() == [
                score_bruteforce(p, ctx, k) for p in map(tuple, rows.tolist())]
        assert "subset_bits" in ctx.lazy


def test_subset_table_edge_rows(batch_system, params):
    grid, budget, totals = batch_system
    n = grid.n_cells
    ctx = build_ctx(grid, budget, params, totals, beams=n // 4)
    rng = np.random.default_rng((n, 13))
    rows = np.array([rng.permutation(n) for _ in range(3)])  # K = n
    assert score_batch(rows, ctx).tolist() == [
        score_sliding_window(p, ctx, n) for p in map(tuple, rows.tolist())]
    assert score_batch(np.zeros((4, 0), dtype=int), ctx).tolist() == [0.0] * 4  # K = 0
    assert score_sliding_window((), ctx) == 0.0
    assert score_batch(np.zeros((0, 5), dtype=int), ctx).shape == (0,)  # no rows


def test_subset_table_backlog_equal_to_entry(batch_system, params):
    # One packet bit per packet makes a backlog equal to a table entry
    # exactly, so ``deliverable < backlog`` ties for every cell of the row.
    grid, budget, _ = batch_system
    n = grid.n_cells
    ctx = build_ctx(grid, budget, params, np.zeros(n), beams=n // 4, packet_bits=1.0)
    rng = np.random.default_rng((n, 17))
    table = scoring._subset_bits(ctx)
    for _ in range(20):
        row = tuple(rng.choice(n, size=n // 4, replace=False).tolist())
        totals = np.zeros(n)
        for c, mask in served_masks(row, ctx).items():
            totals[c] = table[c, mask]
        tied = with_queue_totals(ctx, totals)
        assert tied.queue_bits[row[0]] == table[row[0], served_masks(row, ctx)[row[0]]]
        assert score_batch(np.array([row]), tied).tolist() == [
            score_sliding_window(row, tied, len(row))]


@pytest.mark.parametrize(
    "ds_diameters, table",
    [(0.0, True), (1.0, True), (1.5, False), (3.0, False), (1e3, False)],
    ids=["ds0", "ds1", "ds1.5", "ds3", "wide"],
)
def test_score_batch_takes_table_only_for_narrow_windows(
    batch_system, params, ds_diameters, table
):
    grid, budget, totals = batch_system
    n = grid.n_cells
    ctx = build_ctx(grid, budget, params, totals, beams=n // 4,
                    ds_km=ds_diameters * grid.cell_diameter)
    assert (ctx.batch_window.shape[1] <= TABLE_WINDOW_MAX) == table
    if ds_diameters == 1.0:
        assert ctx.batch_window.shape[1] == 6
    brute = build_ctx(grid, budget, params, totals, beams=n // 4, backend="bruteforce")
    rows = np.array([np.random.default_rng(n).permutation(n)[: n // 4]])
    for c, expect in ((ctx, table), (brute, False)):
        score_batch(rows, c)
        assert ("subset_bits" in c.lazy) == expect


def test_subset_table_built_once_and_shared(grid37, budget37, params, monkeypatch):
    builds = []
    build = scoring._subset_bits
    monkeypatch.setattr(scoring, "_subset_bits", lambda ctx: builds.append(1) or build(ctx))
    rng = np.random.default_rng(89)
    ctx = build_ctx(grid37, budget37, params, rng.integers(0, 20000, 37).astype(float), beams=9)
    assert not ctx.lazy  # not built with the context
    rows = np.array([rng.choice(37, size=9, replace=False) for _ in range(30)])
    score_batch(rows, ctx)
    other = with_queue_totals(ctx, rng.integers(0, 9000, 37).astype(float))
    assert other.lazy is ctx.lazy
    assert score_batch(rows, other).tolist() == [
        score_sliding_window(p, other, 9) for p in map(tuple, rows.tolist())]
    score_batch(rows, ctx)
    assert len(builds) == 1
