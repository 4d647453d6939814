"""Link budget: antenna pattern, channel coefficients, SINR and capacity.

The transmit pattern is a circular-aperture (Bessel) main lobe scaled so the
half-power point lands at half the 3-dB beamwidth, with a configurable
relative sidelobe floor so distant co-channel beams never contribute exactly
zero interference. Geometry is nadir-pointing GEO: off-axis angles come from
the planar offset between the beam's boresight cell and the user cell seen
from the satellite altitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import j1

from .geometry import CellGrid

BOLTZMANN_J_PER_K = 1.380649e-23
SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True)
class LinkParams:
    """Forward-link parameters; defaults model a Ka-band GEO spot-beam system."""

    altitude_km: float = 36_000.0
    carrier_ghz: float = 20.0
    beam_power_dbw: float = 27.0
    max_tx_gain_dbi: float = 40.3
    rx_gain_dbi: float = 31.6
    beamwidth_3db_deg: float = 1.5
    bandwidth_hz: float = 500e6
    rx_noise_temp_k: float = 290.0
    boltzmann: float = BOLTZMANN_J_PER_K
    # Relative floor under the Bessel pattern, in dB below peak gain.
    sidelobe_floor_db: float = -30.0

    def __post_init__(self):
        positive = {
            "altitude_km": self.altitude_km,
            "carrier_ghz": self.carrier_ghz,
            "beam_power_dbw": self.beam_power_dbw,
            "max_tx_gain_dbi": self.max_tx_gain_dbi,
            "rx_gain_dbi": self.rx_gain_dbi,
            "beamwidth_3db_deg": self.beamwidth_3db_deg,
            "bandwidth_hz": self.bandwidth_hz,
            "rx_noise_temp_k": self.rx_noise_temp_k,
            "boltzmann": self.boltzmann,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.sidelobe_floor_db >= 0:
            raise ValueError("sidelobe_floor_db must be negative (relative floor)")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / (self.carrier_ghz * 1e9)

    @property
    def beam_power_w(self) -> float:
        return 10.0 ** (self.beam_power_dbw / 10.0)

    @property
    def max_tx_gain_lin(self) -> float:
        return 10.0 ** (self.max_tx_gain_dbi / 10.0)

    @property
    def rx_gain_lin(self) -> float:
        return 10.0 ** (self.rx_gain_dbi / 10.0)

    @property
    def noise_power_w(self) -> float:
        return self.boltzmann * self.rx_noise_temp_k * self.bandwidth_hz


@dataclass(frozen=True)
class LinkBudget:
    """Precomputed per-(beam cell, user cell) squared channel coefficients.

    ``gain2[b, n]`` is linear |h|^2 for a beam boresighted on cell b received
    by the user in cell n. Static GEO geometry makes this reusable across the
    whole simulation.
    """

    gain2: np.ndarray = field(repr=False)
    noise_power_w: float = 0.0


@functools.lru_cache(maxsize=1)
def half_power_u() -> float:
    """Aperture argument where the normalized pattern 4|J1(u)/u|^2 hits 1/2."""
    return float(brentq(lambda u: 4.0 * (j1(u) / u) ** 2 - 0.5, 1e-9, 3.8, xtol=1e-14))


def _relative_pattern(u):
    """Normalized aperture pattern 4|J1(u)/u|^2 with the u->0 limit of 1."""
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    nz = u != 0
    out[nz] = 4.0 * (j1(u[nz]) / u[nz]) ** 2
    return out


def antenna_gain(offaxis_deg, params: LinkParams):
    """Linear transmit gain at an off-axis angle (degrees).

    Peaks at ``max_tx_gain`` on boresight, falls to half power at half the
    3-dB beamwidth, and is floored at ``sidelobe_floor_db`` below the peak.
    Accepts scalars or arrays.
    """
    theta = np.asarray(offaxis_deg, dtype=float)
    if np.any(theta < 0):
        raise ValueError("off-axis angle must be >= 0")
    half_bw = math.radians(params.beamwidth_3db_deg / 2.0)
    u = half_power_u() * np.sin(np.radians(theta)) / math.sin(half_bw)
    rel = _relative_pattern(u)
    floor = 10.0 ** (params.sidelobe_floor_db / 10.0)
    gain = params.max_tx_gain_lin * np.maximum(rel, floor)
    if np.isscalar(offaxis_deg):
        return float(gain)
    return gain


def channel_gain2_at_offset(offset_km, params: LinkParams):
    """Linear |h|^2 as a function of the beam-to-user planar offset (km)."""
    offset_m = np.asarray(offset_km, dtype=float) * 1e3
    alt_m = params.altitude_km * 1e3
    theta_deg = np.degrees(np.arctan2(offset_m, alt_m))
    slant_m = np.hypot(alt_m, offset_m)
    tx_gain = antenna_gain(theta_deg, params)
    amp = params.wavelength_m / (4.0 * math.pi * slant_m)
    gain2 = tx_gain * params.rx_gain_lin * amp**2
    if np.isscalar(offset_km):
        return float(gain2)
    return gain2


def build_link_budget(grid: CellGrid, params: LinkParams) -> LinkBudget:
    """Precompute the full N x N |h|^2 matrix and the receiver noise power."""
    gain2 = channel_gain2_at_offset(grid.distance_matrix(), params)
    return LinkBudget(gain2=gain2, noise_power_w=params.noise_power_w)


def _check_pattern_sets(user_cell, pattern, interferer_set):
    served = set(int(c) for c in pattern)
    if int(user_cell) not in served:
        raise ValueError(f"cell {user_cell} is not served by the pattern")
    extra = set(int(c) for c in interferer_set) - (served - {int(user_cell)})
    if extra:
        raise ValueError(f"interferers {sorted(extra)} not in pattern \\ {{user}}")


def sinr(
    user_cell: int,
    pattern,
    budget: LinkBudget,
    params: LinkParams,
    interferer_set,
) -> float:
    """Linear SINR of a served cell under co-channel interference.

    Signal is the user's own boresighted beam; interference is summed over
    the given co-served cells (in ascending id order, for reproducible
    floating point).
    """
    _check_pattern_sets(user_cell, pattern, interferer_set)
    n = int(user_cell)
    p = params.beam_power_w
    col = budget.gain2[:, n]
    acc = 0.0
    for l in sorted(int(c) for c in interferer_set):
        acc += col[l]
    return p * col[n] / (budget.noise_power_w + p * acc)


def capacity(
    user_cell: int,
    pattern,
    budget: LinkBudget,
    params: LinkParams,
    interferer_set,
) -> float:
    """Shannon capacity (bits/s) of a cell; zero when the cell is unserved."""
    if int(user_cell) not in set(int(c) for c in pattern):
        return 0.0
    s = sinr(user_cell, pattern, budget, params, interferer_set)
    return params.bandwidth_hz * math.log2(1.0 + s)


def checked_cells(pattern, n_cells: int, expected_beams: int | None = None) -> np.ndarray:
    """The pattern's cell ids, ascending; ValueError on a duplicate or
    out-of-range id, or on a count other than ``expected_beams`` when given."""
    served = np.array(sorted(int(c) for c in pattern), dtype=np.intp)
    if (served[1:] == served[:-1]).any():
        raise ValueError("pattern has duplicate cells")
    if served.size and not (0 <= served[0] and served[-1] < n_cells):
        raise ValueError(f"pattern {tuple(pattern)} has a cell id outside [0, {n_cells})")
    if expected_beams is not None and served.size != expected_beams:
        raise ValueError(f"pattern has {served.size} cells, expected {expected_beams}")
    return served


def pattern_capacities(
    pattern, budget: LinkBudget, params: LinkParams, n_cells: int
) -> np.ndarray:
    """Per-cell capacities (bits/s) under full mutual interference.

    Unserved cells get zero; this is the ground-truth offered capacity used
    by the queue simulation. Vectorized over the pattern; agrees with
    per-cell :func:`capacity` calls to floating-point noise. The pattern is
    checked as :func:`checked_cells` does.
    """
    caps = np.zeros(n_cells, dtype=float)
    served = checked_cells(pattern, n_cells)
    caps[served] = served_capacities(served, budget, params)
    return caps


def served_capacities(served: np.ndarray, budget: LinkBudget, params: LinkParams) -> np.ndarray:
    """Capacities (bits/s) of the ascending, distinct cell ids ``served``;
    interference sums the served block's columns in row order."""
    sub = budget.gain2[served[:, None], served]  # a fresh C-ordered block
    own = sub.diagonal().copy()
    sub.flat[:: served.size + 1] = 0.0
    p = params.beam_power_w
    s = p * own / (budget.noise_power_w + p * sub.sum(axis=0))
    return params.bandwidth_hz * np.log2(1.0 + s)


def boresight_snr(budget: LinkBudget, params: LinkParams) -> float:
    """Interference-free SNR of a boresighted beam; the per-beam best case."""
    g0 = channel_gain2_at_offset(0.0, params)
    return params.beam_power_w * g0 / budget.noise_power_w
