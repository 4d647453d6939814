"""Seeded demand vectors for the benchmark workloads.

Demand comes from the program's own clustered profile, the one its
experiments use (``ExperimentConfig``: 12 hotspots at 6x), rescaled by
``harness.scaled_demand`` to a total set per workload. A demand class is a
demand vector after the cache's discretization; the serve workloads need to
know which requests share a class, so classes are compared on the bytes of
the discretized vector.
"""

from __future__ import annotations

import numpy as np
from hoplite.harness import ExperimentConfig, scaled_demand

PROFILE = ExperimentConfig()


def clustered_demand(rng, grid, level: float, beams: int, c0: float) -> np.ndarray:
    """Per-cell packets per slot summing to ``level x beams x c0``.

    ``rng`` only picks the generator's seed, so one stream of draws gives
    one sequence of vectors.
    """
    return scaled_demand(grid, level, beams, c0, PROFILE, seed=int(rng.integers(2**63)))


class ClassRegistry:
    """Remembers which demand classes are taken; redraws duplicates."""

    def __init__(self, discretize, max_tries: int = 1000):
        self._discretize = discretize
        self._taken: set[bytes] = set()
        self._max_tries = max_tries

    def class_of(self, demand) -> bytes:
        return np.asarray(self._discretize(demand), dtype="<f8").tobytes()

    def fresh(self, draw) -> np.ndarray:
        """A vector from ``draw()`` whose class no earlier vector had."""
        for _ in range(self._max_tries):
            demand = draw()
            key = self.class_of(demand)
            if key not in self._taken:
                self._taken.add(key)
                return demand
        raise RuntimeError("could not draw a demand class distinct from the others")


def same_class_variant(rng, registry: ClassRegistry, demand, c_max: float, beta: int):
    """A new vector in the same discretization class as ``demand``.

    Each component is redrawn uniformly inside its rounding interval
    [(k - 1/2) step, (k + 1/2) step), kept nonnegative and off the edges.
    """
    step = c_max / beta
    key = registry.class_of(demand)
    level = np.minimum(np.floor(np.clip(demand, 0.0, c_max) / step + 0.5), beta)
    lo = np.maximum(0.0, (level - 0.5) * step) + 0.01 * step
    hi = (level + 0.5) * step - 0.01 * step
    for _ in range(100):
        variant = rng.uniform(lo, hi)
        if registry.class_of(variant) == key:
            return variant
    raise RuntimeError("could not draw a vector inside the demand class")
