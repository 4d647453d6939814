"""Link budget against a straight-line reimplementation of the math.

The oracle below recomputes gain, SINR and capacity from first principles
(its own bisection for the half-power point, its own slant-range geometry)
so agreement is evidence the production code implements the model, not just
itself.
"""

import math

import numpy as np
import pytest
from scipy.special import j1

from hoplite.channel import (
    LinkBudget,
    LinkParams,
    antenna_gain,
    boresight_snr,
    build_link_budget,
    capacity,
    channel_gain2_at_offset,
    half_power_u,
    pattern_capacities,
    sinr,
)
from hoplite.geometry import generate_grid

# -- oracle -------------------------------------------------------------------


def oracle_half_power_u(lo=1.0, hi=2.0, iters=200):
    """Plain bisection for 4|J1(u)/u|^2 = 1/2."""
    f = lambda u: 4.0 * (j1(u) / u) ** 2 - 0.5
    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_gain(theta_deg: float, params: LinkParams) -> float:
    u3 = oracle_half_power_u()
    u = u3 * math.sin(math.radians(theta_deg)) / math.sin(
        math.radians(params.beamwidth_3db_deg / 2.0)
    )
    rel = 1.0 if u == 0 else 4.0 * (j1(u) / u) ** 2
    floor = 10.0 ** (params.sidelobe_floor_db / 10.0)
    return 10.0 ** (params.max_tx_gain_dbi / 10.0) * max(rel, floor)


def oracle_gain2(offset_km: float, params: LinkParams) -> float:
    offset_m = offset_km * 1e3
    alt_m = params.altitude_km * 1e3
    theta = math.degrees(math.atan2(offset_m, alt_m))
    slant = math.hypot(alt_m, offset_m)
    lam = 299_792_458.0 / (params.carrier_ghz * 1e9)
    g_rx = 10.0 ** (params.rx_gain_dbi / 10.0)
    return oracle_gain(theta, params) * g_rx * (lam / (4.0 * math.pi * slant)) ** 2


def oracle_sinr(user, pattern, grid, params: LinkParams) -> float:
    p = 10.0 ** (params.beam_power_dbw / 10.0)
    noise = params.boltzmann * params.rx_noise_temp_k * params.bandwidth_hz
    signal = p * oracle_gain2(grid.distance(user, user), params)
    interference = 0.0
    for other in pattern:
        if other != user:
            interference += p * oracle_gain2(grid.distance(other, user), params)
    return signal / (noise + interference)


def oracle_capacity(user, pattern, grid, params: LinkParams) -> float:
    if user not in pattern:
        return 0.0
    return params.bandwidth_hz * math.log2(1.0 + oracle_sinr(user, pattern, grid, params))


# -- antenna pattern ----------------------------------------------------------


def test_half_power_u_matches_bisection_oracle():
    assert half_power_u() == pytest.approx(oracle_half_power_u(), abs=1e-9)
    assert half_power_u() == pytest.approx(1.6, abs=0.02)


def test_boresight_gain_is_max_gain(params):
    assert antenna_gain(0.0, params) == pytest.approx(10 ** (40.3 / 10), rel=1e-12)


def test_half_beamwidth_is_3db_down(params):
    gain_db = 10 * math.log10(antenna_gain(0.75, params))
    assert gain_db == pytest.approx(40.3 - 3.0, abs=0.05)


def test_main_lobe_monotone_decreasing(params):
    thetas = np.linspace(0.0, 0.75, 40)
    gains = antenna_gain(thetas, params)
    assert np.all(np.diff(gains) < 0)


def test_sidelobe_floor_applied(params):
    # Far off axis the Bessel pattern dives below the relative floor.
    far = antenna_gain(10.0, params)
    assert far == pytest.approx(params.max_tx_gain_lin * 1e-3, rel=1e-12)


def test_gain_matches_oracle_across_angles(params):
    for theta in (0.0, 0.1, 0.4, 0.75, 1.2, 3.0, 8.0):
        assert antenna_gain(theta, params) == pytest.approx(
            oracle_gain(theta, params), rel=1e-9
        )


def test_negative_angle_rejected(params):
    with pytest.raises(ValueError):
        antenna_gain(-0.1, params)


# -- channel coefficients -----------------------------------------------------


def test_boresight_coefficient_closed_form(params):
    lam = params.wavelength_m
    expect = (
        params.max_tx_gain_lin
        * params.rx_gain_lin
        * (lam / (4 * math.pi * 36_000e3)) ** 2
    )
    assert channel_gain2_at_offset(0.0, params) == pytest.approx(expect, rel=1e-12)


def test_offaxis_strictly_below_boresight(params):
    assert channel_gain2_at_offset(5 * 942.0, params) < channel_gain2_at_offset(
        0.0, params
    )


def test_gain_matrix_matches_oracle(grid37, budget37, params):
    rng = np.random.default_rng(7)
    for _ in range(60):
        i, j = rng.integers(0, grid37.n_cells, size=2)
        assert budget37.gain2[i, j] == pytest.approx(
            oracle_gain2(grid37.distance(int(i), int(j)), params), rel=1e-12
        )
    assert channel_gain2_at_offset(grid37.distance(0, 1), params) == pytest.approx(
        oracle_gain2(grid37.distance(0, 1), params), rel=1e-12
    )


def test_equal_offsets_give_equal_gains(grid37, budget37):
    # Gain depends only on the pair's planar offset.
    assert np.allclose(budget37.gain2, budget37.gain2.T, rtol=0, atol=0)
    d01 = grid37.distance(0, 1)
    d02 = grid37.distance(0, 2)
    assert d01 == pytest.approx(d02, rel=1e-12)
    assert budget37.gain2[0, 1] == pytest.approx(budget37.gain2[0, 2], rel=1e-9)


# -- SINR and capacity --------------------------------------------------------


def test_sinr_capacity_match_oracle(grid37, budget37, params):
    rng = np.random.default_rng(21)
    for _ in range(25):
        pattern = tuple(
            sorted(int(c) for c in rng.choice(grid37.n_cells, size=9, replace=False))
        )
        for user in pattern:
            interferers = [c for c in pattern if c != user]
            assert sinr(user, pattern, budget37, params, interferers) == pytest.approx(
                oracle_sinr(user, pattern, grid37, params), rel=1e-12
            )
            assert capacity(
                user, pattern, budget37, params, interferers
            ) == pytest.approx(oracle_capacity(user, pattern, grid37, params), rel=1e-12)


def test_noise_limited_sinr(grid37, budget37, params):
    got = sinr(5, (5,), budget37, params, ())
    expect = params.beam_power_w * budget37.gain2[5, 5] / budget37.noise_power_w
    assert got == pytest.approx(expect, rel=1e-12)


def test_adding_interferer_decreases_sinr(grid37, budget37, params):
    pattern = (0, 1, 7, 20)
    base = sinr(0, pattern, budget37, params, (1,))
    more = sinr(0, pattern, budget37, params, (1, 7))
    assert more < base
    assert sinr(0, pattern, budget37, params, ()) > base


def test_capacity_at_unity_sinr_is_bandwidth(params):
    # Synthetic two-cell budget tuned so signal power equals noise+interference.
    p = params.beam_power_w
    own = 1e-14
    cross = (p * own - params.noise_power_w) / p
    assert cross > 0
    budget = LinkBudget(
        gain2=np.array([[own, cross], [cross, own]]), noise_power_w=params.noise_power_w
    )
    assert sinr(0, (0, 1), budget, params, (1,)) == pytest.approx(1.0, rel=1e-12)
    assert capacity(0, (0, 1), budget, params, (1,)) == pytest.approx(500e6, rel=1e-9)


def test_capacity_zero_iff_unserved(grid37, budget37, params):
    assert capacity(3, (0, 1), budget37, params, ()) == 0.0
    assert capacity(0, (0, 1), budget37, params, (1,)) > 0.0


def test_sinr_validates_pattern_membership(grid37, budget37, params):
    with pytest.raises(ValueError):
        sinr(3, (0, 1), budget37, params, ())
    with pytest.raises(ValueError):
        sinr(0, (0, 1), budget37, params, (2,))  # 2 not co-served
    with pytest.raises(ValueError):
        sinr(0, (0, 1), budget37, params, (0,))  # self-interference


def test_pattern_capacities_match_scalar_api(grid37, budget37, params):
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 12))
        pattern = tuple(
            sorted(int(c) for c in rng.choice(grid37.n_cells, size=k, replace=False))
        )
        caps = pattern_capacities(pattern, budget37, params, grid37.n_cells)
        for n in range(grid37.n_cells):
            if n in pattern:
                expect = capacity(
                    n, pattern, budget37, params, [c for c in pattern if c != n]
                )
                assert caps[n] == pytest.approx(expect, rel=1e-12)
            else:
                assert caps[n] == 0.0


def test_pattern_capacities_empty_pattern(budget37, params):
    assert np.all(pattern_capacities((), budget37, params, 37) == 0.0)


@pytest.mark.parametrize("pattern", [(0, 0, 1), (-1, 0, 1), (37, 0)],
                         ids=["duplicate", "negative", "past_the_grid"])
def test_pattern_capacities_rejects_bad_patterns(budget37, params, pattern):
    with pytest.raises(ValueError):
        pattern_capacities(pattern, budget37, params, 37)


def test_boresight_snr_value(grid37, budget37, params):
    snr = boresight_snr(budget37, params)
    g0 = oracle_gain2(0.0, params)
    expect = params.beam_power_w * g0 / params.noise_power_w
    assert snr == pytest.approx(expect, rel=1e-12)
    assert 10 * math.log10(snr) == pytest.approx(6.29, abs=0.05)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        LinkParams(altitude_km=-1.0)
    with pytest.raises(ValueError):
        LinkParams(sidelobe_floor_db=0.0)


def test_build_link_budget_shape(grid37, budget37, params):
    assert budget37.gain2.shape == (37, 37)
    assert np.all(budget37.gain2 > 0)
    assert np.all(np.diag(budget37.gain2) >= budget37.gain2.max(axis=0) - 1e-30)
    assert budget37.noise_power_w == pytest.approx(params.noise_power_w, rel=1e-15)
