"""Demand discretization, key hashing, verification, LRU and persistence."""

import hashlib
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hoplite.cache import (
    MAGIC,
    BhtpCache,
    DemandClass,
    demand_key,
    discretize,
    entry_size_bytes,
)


def plan_for(tag: int, slots: int = 3, beams: int = 2):
    return tuple(tuple((tag + s + b) % 97 for b in range(beams)) for s in range(slots))


# -- discretization -----------------------------------------------------------


def test_grid_points_beta4():
    values = np.array([0.0, 12.4, 12.5, 55.0, 87.5, 99.0, 150.0, -3.0])
    got = discretize(values, c_max=100.0, beta=4)
    assert got.tolist() == [0.0, 0.0, 25.0, 50.0, 100.0, 100.0, 100.0, 0.0]


def test_value_55_maps_down_to_50():
    assert discretize([55.0], 100.0, 4)[0] == 50.0


def test_ties_round_up():
    assert discretize([37.5], 100.0, 4)[0] == 50.0
    assert discretize([62.5], 100.0, 4)[0] == 75.0


def test_beta_one_two_point_grid():
    got = discretize([0.0, 49.9, 50.0, 100.0], 100.0, 1)
    assert got.tolist() == [0.0, 0.0, 100.0, 100.0]


def test_discretize_idempotent():
    rng = np.random.default_rng(0)
    for beta in (1, 2, 4, 7, 10):
        v = rng.uniform(-10, 110, size=64)
        once = discretize(v, 100.0, beta)
        assert np.array_equal(discretize(once, 100.0, beta), once)


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize([1.0], 100.0, 0)
    with pytest.raises(ValueError):
        discretize([1.0], 100.0, 2.5)
    with pytest.raises(ValueError):
        discretize([1.0], 0.0, 4)
    with pytest.raises(ValueError):
        discretize([1.0, np.nan], 100.0, 4)


# -- keys --------------------------------------------------------------------


def test_key_is_truncated_sha256_of_float32_wire():
    vec = discretize([55.0, 80.0, 0.0], 100.0, 4)
    wire = vec.astype("<f4").tobytes()
    assert demand_key(vec) == hashlib.sha256(wire).digest()[:4]
    assert demand_key(vec, key_bytes=8) == hashlib.sha256(wire).digest()[:8]


def test_key_deterministic_across_dtypes():
    a = np.array([25.0, 50.0], dtype=np.float64)
    b = np.array([25.0, 50.0], dtype=np.float32)
    assert demand_key(a) == demand_key(b)


def test_key_bytes_range():
    with pytest.raises(ValueError):
        demand_key(np.zeros(2), key_bytes=0)
    with pytest.raises(ValueError):
        demand_key(np.zeros(2), key_bytes=33)


# -- one-pass classification ------------------------------------------------------

def vectorized_discretize(vector, c_max, beta):
    """The snapping rule as whole-array numpy operations, for reference."""
    step = c_max / beta
    k = np.floor(np.clip(np.asarray(vector, dtype=float), 0.0, c_max) / step + 0.5)
    return np.minimum(k, beta) * step


GRIDS = [(100.0, 4), (10.0, 3), (1234.567, 7), (5e-324 * 2**40, 2)]


@st.composite
def demand_on_grid(draw):
    """A grid and a vector with ties, their neighbours, edges and extremes."""
    c_max, beta = draw(st.sampled_from(GRIDS))
    step = c_max / beta
    tie = st.integers(0, beta + 2).map(lambda k: (k + 0.5) * step)
    special = st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, c_max, 1e300, step / 2])
    entry = st.one_of(
        tie,
        tie.map(lambda t: math.nextafter(t, 0.0)),
        tie.map(lambda t: math.nextafter(t, math.inf)),
        special,
        st.floats(0.0, 2 * c_max),
        st.floats(0.0, 1e300),
    )
    return c_max, beta, draw(st.lists(entry, max_size=40))


@settings(deadline=None, max_examples=300)
@given(demand_on_grid(), st.sampled_from([1, 4, 32]))
@example((100.0, 4, [12.5, 37.5, 62.5, 87.5, 100.0, 150.0, 0.0, -0.0, 5e-324, 1e300]), 4)
def test_classify_matches_discretize_and_demand_key(case, key_bytes):
    c_max, beta, vector = case
    cache = BhtpCache(c_max=c_max, beta=beta, key_bytes=key_bytes)
    got = cache.classify(np.array(vector, dtype=float))
    disc = discretize(vector, c_max, beta)
    assert disc.tobytes() == vectorized_discretize(vector, c_max, beta).tobytes()
    assert np.array(got.values, dtype=float).tobytes() == disc.tobytes()
    assert got.wire == disc.astype("<f4").tobytes()
    assert got.key == demand_key(disc, key_bytes) == cache.key_for(vector)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_bad_demand_raises_before_any_count(bad, position):
    cache = BhtpCache(c_max=100.0, beta=4)
    good = np.array([10.0, 60.0, 90.0, 0.0, 30.0])
    cache.store(good, plan_for(1))
    cache.lookup(good)
    before = cache.stats()
    vector = good.copy()
    vector[position] = bad
    for call in (cache.classify, cache.key_for, cache.lookup,
                 lambda v: cache.store(v, plan_for(2))):
        with pytest.raises(ValueError):
            call(vector)
    assert cache.stats() == before
    assert cache.lookup(good) == plan_for(1)


# -- entry size accounting ------------------------------------------------------


def test_entry_size_examples():
    assert entry_size_bytes(127, 31.75, 30) == 4330
    assert entry_size_bytes(37, 9, 30) == 1240
    assert entry_size_bytes(0, 0, 0) == 12
    with pytest.raises(ValueError):
        entry_size_bytes(-1, 9, 30)


# -- store / lookup ---------------------------------------------------------------


def test_round_trip_and_miss():
    cache = BhtpCache(c_max=100.0, beta=4)
    vec = np.array([10.0, 60.0, 90.0])
    assert cache.lookup(vec) is None
    cache.store(vec, plan_for(1))
    assert cache.lookup(vec) == plan_for(1)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1


def test_same_demand_class_same_entry():
    cache = BhtpCache(c_max=100.0, beta=4)
    cache.store(np.array([55.0, 70.0]), plan_for(5))
    # A vector in the same discretization cell of every component hits.
    assert cache.lookup(np.array([51.0, 72.0])) == plan_for(5)
    # A vector in a different cell misses.
    assert cache.lookup(np.array([90.0, 72.0])) is None


def test_overwrite_replaces_plan():
    cache = BhtpCache(c_max=100.0, beta=4)
    vec = np.array([30.0, 30.0])
    k1 = cache.store(vec, plan_for(1))
    k2 = cache.store(vec, plan_for(2))
    assert k1 == k2
    assert cache.lookup(vec) == plan_for(2)
    assert len(cache) == 1


def test_non_float32_grid_values_still_hit():
    # step = 10/3 produces grid points with no exact float32 representation;
    # lookup must compare in the same wire format it hashed.
    cache = BhtpCache(c_max=10.0, beta=3)
    vec = np.array([3.4, 6.7, 9.9])
    cache.store(vec, plan_for(3))
    assert cache.lookup(vec) == plan_for(3)


def test_adversarial_truncated_key_collisions():
    # One-byte keys give only 256 buckets; hundreds of distinct demand
    # classes force collisions, none of which may leak a wrong plan.
    cache = BhtpCache(c_max=1000.0, beta=10, key_bytes=1, max_entries=10_000)
    rng = np.random.default_rng(42)
    vectors = {}
    for i in range(600):
        vec = cache.discretize(rng.uniform(0, 1000, size=4))
        key = tuple(vec.tolist())
        vectors[key] = (vec, i)
    for vec, i in vectors.values():
        cache.store(vec, plan_for(i))
    wrong = 0
    for vec, i in vectors.values():
        got = cache.lookup(vec)
        if got is not None and got != plan_for(i):
            wrong += 1
    assert wrong == 0
    assert cache.stats()["collisions"] > 0  # the adversarial setup actually bit


def test_lru_eviction_order():
    cache = BhtpCache(c_max=100.0, beta=10, max_entries=3)
    vecs = [np.array([10.0 * i, 0.0]) for i in range(1, 5)]
    for i, vec in enumerate(vecs[:3]):
        cache.store(vec, plan_for(i))
    assert cache.lookup(vecs[0]) == plan_for(0)  # refresh entry 0
    cache.store(vecs[3], plan_for(3))  # evicts entry 1, the stalest
    assert cache.lookup(vecs[1]) is None
    assert cache.lookup(vecs[0]) == plan_for(0)
    assert cache.stats()["evictions"] == 1


def test_store_rejects_flat_plans():
    cache = BhtpCache(c_max=100.0, beta=4)
    with pytest.raises(ValueError):
        cache.store(np.array([1.0]), [1, 2, 3])
    for empty in ([()], [], np.zeros((0, 5), dtype=int)):
        with pytest.raises(ValueError):
            cache.store(np.array([1.0]), empty)
    assert len(cache) == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        BhtpCache(c_max=0.0, beta=4)
    with pytest.raises(ValueError):
        BhtpCache(c_max=10.0, beta=0)
    with pytest.raises(ValueError):
        BhtpCache(c_max=10.0, beta=4, max_entries=0)


# -- persistence --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cache = BhtpCache(c_max=100.0, beta=10)
    rng = np.random.default_rng(7)
    vecs = [rng.uniform(0, 100, size=5) for _ in range(50)]
    for i, vec in enumerate(vecs):
        cache.store(vec, plan_for(i, slots=4, beams=3))
    path = tmp_path / "plans.bin"
    cache.save(path)

    fresh = BhtpCache(c_max=100.0, beta=10)
    fresh.load(path)
    assert len(fresh) == len(cache)
    for i, vec in enumerate(vecs):
        assert fresh.lookup(vec) == plan_for(i, slots=4, beams=3)


def test_save_is_byte_stable(tmp_path):
    cache = BhtpCache(c_max=100.0, beta=4)
    for i in range(10):
        cache.store(np.array([i * 10.0, 50.0]), plan_for(i))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    cache.save(a)
    cache.save(b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_garbage(tmp_path):
    cache = BhtpCache(c_max=100.0, beta=4)
    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        cache.load(bad_magic)

    ok = tmp_path / "ok.bin"
    cache.store(np.array([25.0]), plan_for(1))
    cache.save(ok)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(ok.read_bytes()[:-5])
    with pytest.raises(ValueError):
        cache.load(truncated)

    other_width = BhtpCache(c_max=100.0, beta=4, key_bytes=8)
    with pytest.raises(ValueError):
        other_width.load(ok)


def test_load_rejects_every_strict_prefix(tmp_path):
    cache = BhtpCache(c_max=100.0, beta=4)
    for i in range(3):
        cache.store(np.array([i * 25.0, 50.0]), plan_for(i))
    full = tmp_path / "full.bin"
    cache.save(full)
    data = full.read_bytes()
    fresh = BhtpCache(c_max=100.0, beta=4)
    fresh.store(np.array([75.0, 75.0]), plan_for(9))
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError):
            fresh.load(cut)
        assert len(fresh) == 1  # a failed load keeps the old contents
    fresh.load(full)
    assert fresh.lookup(np.array([50.0, 50.0])) == plan_for(2)


def test_load_rejects_empty_plans(tmp_path):
    cache = BhtpCache(c_max=100.0, beta=4)
    cache.store(np.array([25.0]), plan_for(1))
    wire = np.array([25.0], dtype="<f4").tobytes()
    path = tmp_path / "empty.bin"
    for beams, slots in ((0, 7), (3, 0), (0, 2**32 - 1)):
        # One record: a key, one demand entry and no plan cells.
        record = b"abcd" + struct.pack("<III", 1, beams, slots) + wire
        path.write_bytes(MAGIC + struct.pack("<IIII", 1, 4, 1, len(record)) + record)
        with pytest.raises(ValueError):
            cache.load(path)
        assert cache.lookup(np.array([25.0])) == plan_for(1)


def _valid_snapshot() -> bytes:
    cache = BhtpCache(c_max=100.0, beta=4)
    for i in range(3):
        cache.store(np.array([i * 25.0, 50.0, 75.0]), plan_for(i, slots=2 + i, beams=1 + i))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.bin"
        cache.save(path)
        return path.read_bytes()


VALID_SNAPSHOT = _valid_snapshot()


@st.composite
def damaged_snapshot(draw):
    """The valid snapshot truncated, with bytes flipped, or spliced with itself."""
    data = bytearray(VALID_SNAPSHOT)
    size = len(data)
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return bytes(data[: draw(st.integers(0, size - 1))])
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, size - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    a, b, at = (draw(st.integers(0, size)) for _ in range(3))
    return bytes(data[:at] + data[min(a, b):max(a, b)] + data[at:])


@settings(deadline=None, max_examples=300)
@given(damaged_snapshot())
def test_load_damaged_snapshot_keeps_contents_or_loads_plans(data):
    cache = BhtpCache(c_max=100.0, beta=4)
    cache.store(np.array([75.0, 75.0]), plan_for(9))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.bin"
        path.write_bytes(data)
        try:
            cache.load(path)
        except ValueError:
            assert len(cache) == 1 and cache.lookup(np.array([75.0, 75.0])) == plan_for(9)
            return
    for entry in list(cache._entries.values()):
        plan = cache.lookup(DemandClass([], entry.wire, entry.key))
        assert len(plan) >= 1 and all(len(row) >= 1 for row in plan)


def test_lookup_returns_python_int_tuples():
    cache = BhtpCache(c_max=100.0, beta=4)
    cache.store(np.array([25.0]), np.array([[3, 1], [2, 0]], dtype=np.int64))
    plan = cache.lookup(np.array([25.0]))
    assert plan == ((3, 1), (2, 0))
    assert all(type(row) is tuple and all(type(c) is int for c in row) for row in plan)
