"""Per-cell packet queues with aging, TTL expiry and slot-by-slot service.

Each cell holds integer packet counts bucketed by waiting age (1..TTL slots).
A slot serves whole packets oldest-first up to the offered capacity, ages the
remainder, drops what would exceed the TTL, then injects new arrivals at age
one. The resulting per-cell identity

    arrivals - served - dropped == delta(queue total)

holds exactly, extending the plain inflow/outflow balance with an explicit
drop term so TTL expiries are never silently folded into service.

``advance_slot`` is the validated one-slot step; ``replay`` is the fused
closed-loop kernel that plans, plan replays and throughput sweeps run on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .channel import LinkBudget, LinkParams, checked_cells, served_capacities

DEFAULT_PACKET_BITS = 1500 * 8.0
DEFAULT_TTL_SLOTS = 20


@dataclass(frozen=True)
class QueueState:
    """Immutable queue snapshot.

    ``age_buckets[n, l-1]`` counts packets in cell n that have waited l slots;
    column TTL-1 holds packets on their last serviceable slot.
    """

    age_buckets: np.ndarray = field(repr=False)
    arrival_rate: np.ndarray = field(repr=False)
    packet_bits: float = DEFAULT_PACKET_BITS

    def __post_init__(self):
        if self.age_buckets.ndim != 2:
            raise ValueError("age_buckets must be (n_cells, ttl)")
        if np.any(self.age_buckets < 0):
            raise ValueError("packet counts must be nonnegative")
        if self.arrival_rate.shape != (self.age_buckets.shape[0],):
            raise ValueError("arrival_rate length must match cell count")
        if np.any(self.arrival_rate < 0):
            raise ValueError("arrival rates must be nonnegative")
        if self.packet_bits <= 0:
            raise ValueError("packet_bits must be positive")

    @property
    def n_cells(self) -> int:
        return self.age_buckets.shape[0]

    @property
    def ttl(self) -> int:
        return self.age_buckets.shape[1]

    def totals(self) -> np.ndarray:
        """Queue total per cell: sum over age buckets."""
        return self.age_buckets.sum(axis=1)


def make_queue_state(
    n_cells: int,
    arrival_rate,
    ttl: int = DEFAULT_TTL_SLOTS,
    packet_bits: float = DEFAULT_PACKET_BITS,
    initial_packets=None,
) -> QueueState:
    """Fresh queue state; optional initial packets enter at age one."""
    rates = np.asarray(arrival_rate, dtype=float)
    if rates.shape == ():
        rates = np.full(n_cells, float(rates))
    buckets = np.zeros((n_cells, ttl), dtype=np.int64)
    if initial_packets is not None:
        buckets[:, 0] = np.asarray(initial_packets, dtype=np.int64)
    return QueueState(age_buckets=buckets, arrival_rate=rates, packet_bits=packet_bits)


@dataclass(frozen=True)
class SlotOutcome:
    """Accounting for one serviced slot."""

    served_bits: np.ndarray = field(repr=False)
    served_packets: np.ndarray = field(repr=False)
    dropped_packets: np.ndarray = field(repr=False)
    arrivals: np.ndarray = field(repr=False)
    queue_after: QueueState = field(repr=False)


def throughput_for_cell(
    capacity_bps: float, queue_packets: float, slot_s: float, packet_bits: float
) -> float:
    """Deliverable bits in one slot: min(capacity * slot, backlog * packet size)."""
    if min(capacity_bps, queue_packets, slot_s, packet_bits) < 0:
        raise ValueError("throughput inputs must be nonnegative")
    return min(capacity_bps * slot_s, queue_packets * packet_bits)


def advance_slot(
    state: QueueState,
    pattern,
    capacities,
    slot_s: float,
    rng: np.random.Generator | None = None,
    expected_beams: int | None = None,
) -> SlotOutcome:
    """Serve one slot and return the next queue state plus accounting.

    Service is whole packets, oldest first: floor(capacity * slot / packet
    bits) per served cell. Afterwards every remaining packet ages one slot,
    packets already at the TTL are dropped, and arrivals enter at age one —
    Poisson draws when an rng is given, otherwise the rounded rates.
    """
    pattern = checked_cells(pattern, state.n_cells, expected_beams)
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (state.n_cells,):
        raise ValueError("capacities must be a per-cell vector")
    served_mask = np.zeros(state.n_cells, dtype=bool)
    served_mask[pattern] = True
    if np.any(capacities[~served_mask] != 0):
        raise ValueError("capacities must be zero for unserved cells")

    totals = state.totals()
    max_packets = np.floor(capacities * slot_s / state.packet_bits).astype(np.int64)
    served = np.minimum(max_packets, totals)

    # Oldest-age-first removal, vectorized over cells: with buckets reversed
    # to oldest-first, what survives service in bucket j is
    # min(bucket_j, max(0, cumsum_j - served)).
    oldest_first = state.age_buckets[:, ::-1]
    csum = np.cumsum(oldest_first, axis=1)
    remaining = np.minimum(oldest_first, np.maximum(0, csum - served[:, None]))

    # Aging: survivors at the TTL age out; everything else shifts one slot.
    dropped = remaining[:, 0].copy()
    next_oldest_first = np.zeros_like(remaining)
    next_oldest_first[:, :-1] = remaining[:, 1:]

    if rng is not None:
        arrivals = rng.poisson(state.arrival_rate).astype(np.int64)
    else:
        arrivals = np.rint(state.arrival_rate).astype(np.int64)
    next_buckets = next_oldest_first[:, ::-1].copy()
    next_buckets[:, 0] = arrivals

    new_state = replace(state, age_buckets=next_buckets)
    return SlotOutcome(
        served_bits=served.astype(float) * state.packet_bits,
        served_packets=served,
        dropped_packets=dropped,
        arrivals=arrivals,
        queue_after=new_state,
    )


class Replay(NamedTuple):
    """A closed-loop replay, slot by slot."""

    plan: tuple  # each slot's pattern, as the chooser returned it
    served_bits: list  # float bits served per slot
    dropped_packets: list  # packets dropped per slot
    choose_s: list  # seconds spent choosing each slot's pattern
    final_backlog: int

    def served_total(self, start: int = 0) -> float:
        """Bits served from slot ``start`` on, added in slot order."""
        total = 0.0
        for bits in self.served_bits[start:]:
            total += bits
        return total


def replay(
    state: QueueState, choose, slots: int, budget: LinkBudget, params: LinkParams,
    slot_s: float, rng: np.random.Generator | None = None, expected_beams: int | None = None,
) -> Replay:
    """Run ``slots`` slots closed-loop from ``state``: ``choose(totals, slot)``
    picks each slot's pattern against the per-cell backlog left so far.

    Each slot equals :func:`hoplite.channel.pattern_capacities` then
    :func:`advance_slot` bit for bit, arrivals included (the same rng call
    when an rng is given), on one age-bucket array updated in place.
    Patterns are checked as :func:`checked_cells` does.
    """
    n, buckets, rates = state.n_cells, state.age_buckets.copy(), state.arrival_rate
    packet_bits = state.packet_bits
    fixed_arrivals = np.rint(rates).astype(np.int64) if rng is None else None
    bits = np.zeros(n)
    plan, served_bits, dropped_packets, choose_s = [], [], [], []
    for slot in range(slots):
        totals = buckets.sum(axis=1)
        t0 = time.perf_counter()
        pattern = choose(totals, slot)
        choose_s.append(time.perf_counter() - t0)
        served = checked_cells(pattern, n, expected_beams)
        plan.append(tuple(pattern))
        oldest_first = buckets[served, ::-1]
        csum = np.cumsum(oldest_first, axis=1)  # its last column is the served backlog
        caps = served_capacities(served, budget, params)
        take = np.minimum(np.floor(caps * slot_s / packet_bits).astype(np.int64), csum[:, -1])
        buckets[served] = np.minimum(oldest_first, np.maximum(0, csum - take[:, None]))[:, ::-1]
        bits[:] = 0.0
        bits[served] = take.astype(float) * packet_bits
        served_bits.append(float(bits.sum()))
        dropped_packets.append(int(buckets[:, -1].sum()))
        buckets[:, 1:] = buckets[:, :-1]
        buckets[:, 0] = fixed_arrivals if rng is None else rng.poisson(rates)
    return Replay(tuple(plan), served_bits, dropped_packets, choose_s, int(buckets.sum()))


def generate_demand(
    grid,
    mean_rate: float,
    hotspot_count: int,
    hotspot_multiplier: float,
    seed: int,
) -> np.ndarray:
    """Per-cell arrival rates (packets/slot) with randomly placed hotspots.

    Non-hot cells draw uniformly from [0.5, 1.5] * mean_rate; hotspot cells
    get mean_rate * hotspot_multiplier. Deterministic for a given seed.
    """
    n = grid.n_cells
    if hotspot_count > n:
        raise ValueError("hotspot_count cannot exceed the cell count")
    if hotspot_count < 0 or mean_rate < 0:
        raise ValueError("hotspot_count and mean_rate must be nonnegative")
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.5, 1.5, n) * mean_rate
    hot = rng.choice(n, size=hotspot_count, replace=False)
    rates[hot] = mean_rate * hotspot_multiplier
    return rates


def generate_clustered_demand(
    grid,
    mean_rate: float,
    hotspot_count: int,
    hotspot_multiplier: float,
    seed: int,
) -> np.ndarray:
    """Like generate_demand, but the hotspots form one contiguous region.

    A random center cell is drawn and the hotspot_count cells nearest to it
    (ties by lower id) become the hot region — a busy metropolitan area
    rather than scattered points.
    """
    n = grid.n_cells
    if hotspot_count > n:
        raise ValueError("hotspot_count cannot exceed the cell count")
    if hotspot_count < 0 or mean_rate < 0:
        raise ValueError("hotspot_count and mean_rate must be nonnegative")
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.5, 1.5, n) * mean_rate
    if hotspot_count:
        center = int(rng.integers(n))
        by_distance = sorted(
            range(n), key=lambda c: (grid.distance(center, c), c)
        )
        rates[by_distance[:hotspot_count]] = mean_rate * hotspot_multiplier
    return rates
