"""Plan cache keyed by discretized demand vectors.

Demand vectors are snapped to the nearest point of an evenly spaced grid
(resolution C_max/beta per component), hashed, and the transmission plan
for that demand class is stored under the first bytes of the digest.
``BhtpCache.classify`` does this in one pass over the vector: each entry is
checked (finite, nonnegative), snapped and packed into the float32 wire,
and the wire is hashed once. Truncated keys can collide, so every hit
compares the stored wire bytes with the probe's before returning a plan; a
mismatch counts as a miss. Eviction is least-recently-used. Entries can be
saved to and reloaded from a compact binary snapshot.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

MAGIC = b"BHC1"


def _snap(x: float, c_max: float, beta: int, step: float) -> float:
    """The grid point for one component: clamped to [0, c_max], ties upward."""
    # Conditional expressions take a third of the time of min() and max().
    k = math.floor((0.0 if x < 0.0 else c_max if x > c_max else x) / step + 0.5)
    return (k if k < beta else beta) * step


def discretize(vector, c_max: float, beta: int) -> np.ndarray:
    """Snap each component to the nearest point of {k * c_max/beta : k = 0..beta}.

    Values are clamped to [0, c_max] first; ties round upward; NaN raises ValueError.
    """
    if int(beta) != beta or beta < 1:
        raise ValueError("beta must be a positive integer")
    if c_max <= 0:
        raise ValueError("c_max must be positive")
    v, step = np.asarray(vector, dtype=float), c_max / beta
    snapped = [_snap(x, c_max, beta, step) for x in v.ravel().tolist()]
    return np.array(snapped, dtype=float).reshape(v.shape)


def demand_key(discretized, key_bytes: int = 4) -> bytes:
    """Truncated digest of the discretized vector's float32 wire form."""
    if not 1 <= key_bytes <= 32:
        raise ValueError("key_bytes must be in 1..32")
    wire = np.asarray(discretized, dtype="<f4").tobytes()
    return hashlib.sha256(wire).digest()[:key_bytes]


def entry_size_bytes(n_cells, beams, horizon) -> int:
    """Accounting model for one stored entry: key + plan ids + vector + sizes.

    Accepts fractional beam counts so average-beams-per-slot budgets can be
    expressed directly.
    """
    if n_cells < 0 or beams < 0 or horizon < 0:
        raise ValueError("sizes must be nonnegative")
    return int(4 + 4 * horizon * beams + 4 * n_cells + 8)


class DemandClass(NamedTuple):
    """A demand vector's discretized values, float32 wire and key, computed once."""

    values: list  # the floats discretize() gives
    wire: bytes
    key: bytes


class _Entry:
    __slots__ = ("key", "wire", "bhtp")

    def __init__(self, key: bytes, wire: bytes, bhtp: np.ndarray):
        self.key = key
        self.wire = wire
        self.bhtp = bhtp


def _as_plan_array(bhtp) -> np.ndarray:
    plan = np.asarray(bhtp, dtype=np.int32)
    if plan.ndim != 2 or 0 in plan.shape:
        raise ValueError("a plan must be a nonempty (slots x beams) table of cell ids")
    return plan


class BhtpCache:
    """LRU map from discretized demand vectors to transmission plans.

    Thread-safe; every public operation holds the lock for one entry's worth
    of work, so background writers never stall readers for long.
    """

    def __init__(
        self,
        c_max: float,
        beta: int,
        max_entries: int = 200_000,
        key_bytes: int = 4,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.c_max = float(c_max)
        self.beta = int(beta)
        self.max_entries = int(max_entries)
        self.key_bytes = int(key_bytes)
        discretize(np.zeros(1), self.c_max, self.beta)  # validate args
        demand_key(np.zeros(1), self.key_bytes)
        self._entries: OrderedDict[bytes, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.collisions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def discretize(self, vector) -> np.ndarray:
        return discretize(vector, self.c_max, self.beta)

    def key_for(self, vector) -> bytes:
        return self.classify(vector).key

    def classify(self, vector) -> DemandClass:
        """The demand's class in one pass; ValueError for a NaN, infinite or negative entry."""
        c_max, beta, step = self.c_max, self.beta, self.c_max / self.beta
        values = []
        for x in np.asarray(vector, dtype=float).tolist():
            if not 0.0 <= x < math.inf:
                raise ValueError("demand entries must be finite and nonnegative")
            values.append(_snap(x, c_max, beta, step))
        wire = struct.pack(f"<{len(values)}f", *values)
        return DemandClass(values, wire, hashlib.sha256(wire).digest()[: self.key_bytes])

    def lookup(self, vector) -> tuple | None:
        """Stored plan for this demand class, or None.

        ``vector`` is a demand vector or the DemandClass that classify()
        returned for it. A key hit whose stored wire bytes differ from the
        probe's is a collision: counted and treated as a miss.
        """
        demand = vector if isinstance(vector, DemandClass) else self.classify(vector)
        key = demand.key
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.wire != demand.wire:
                self.collisions += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return tuple(map(tuple, entry.bhtp.tolist()))

    def store(self, vector, bhtp) -> bytes:
        """Insert or overwrite the plan for this demand class; returns the key.

        ``vector`` is a demand vector or the DemandClass that classify()
        returned for it.
        """
        demand = vector if isinstance(vector, DemandClass) else self.classify(vector)
        key = demand.key
        plan = _as_plan_array(bhtp)
        with self._lock:
            self._entries[key] = _Entry(key, demand.wire, plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return key

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "collisions": self.collisions,
                "evictions": self.evictions,
            }

    # -- persistence ------------------------------------------------------

    def save(self, path):
        """Write all entries (in recency order) as length-prefixed records."""
        with self._lock:
            entries = list(self._entries.values())
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<III", 1, self.key_bytes, len(entries)))
            for entry in entries:
                slots, beams = entry.bhtp.shape
                payload = (
                    entry.key
                    + struct.pack("<III", len(entry.wire) // 4, beams, slots)
                    + entry.wire
                    + entry.bhtp.astype("<i4").tobytes()
                )
                fh.write(struct.pack("<I", len(payload)))
                fh.write(payload)

    def load(self, path):
        """Replace current contents with a snapshot written by save().

        A snapshot that is cut short, whose record sizes disagree or that
        holds a plan with no rows or no beams raises ValueError and leaves
        the current contents as they were.
        """

        def read(fh, size: int) -> bytes:
            if size > end - fh.tell():  # a corrupt size must not allocate it
                raise ValueError(f"{path}: truncated snapshot")
            return fh.read(size)

        with open(path, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            if fh.read(4) != MAGIC:
                raise ValueError(f"{path}: not a plan-cache snapshot")
            version, key_bytes, count = struct.unpack("<III", read(fh, 12))
            if version != 1:
                raise ValueError(f"{path}: unsupported snapshot version {version}")
            if key_bytes != self.key_bytes:
                raise ValueError(
                    f"{path}: snapshot key width {key_bytes} != cache {self.key_bytes}"
                )
            entries: OrderedDict[bytes, _Entry] = OrderedDict()
            for _ in range(count):
                (length,) = struct.unpack("<I", read(fh, 4))
                payload = read(fh, length)
                if length < key_bytes + 12:
                    raise ValueError(f"{path}: record shorter than its header")
                key = payload[:key_bytes]
                n, beams, slots = struct.unpack_from("<III", payload, key_bytes)
                if length != key_bytes + 12 + 4 * n + 4 * slots * beams:
                    raise ValueError(f"{path}: record sizes do not match its length")
                if slots == 0 or beams == 0:
                    raise ValueError(f"{path}: record holds an empty plan")
                off = key_bytes + 12 + 4 * n
                plan = np.frombuffer(
                    payload, dtype="<i4", count=slots * beams, offset=off
                ).reshape(slots, beams)
                entries[key] = _Entry(key, payload[key_bytes + 12:off], plan.copy())
        with self._lock:
            self._entries = entries
