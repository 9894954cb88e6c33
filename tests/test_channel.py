"""Geometry, path loss, subcarrier grid and tapped-delay channel draws."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsofdm.channel import (
    SystemConfig,
    ap_user_distance,
    dbm_to_watts,
    generate_channels,
    path_loss_gain,
    subcarrier_frequencies,
    take_elements,
)
from irsofdm.config import ExperimentConfig


class TestUnits:
    def test_dbm_round_trip(self):
        assert dbm_to_watts(30.0) == 1.0
        np.testing.assert_allclose(10.0 * np.log10(dbm_to_watts(-17.3)) + 30.0, -17.3, atol=1e-12)

    def test_default_noise_floor_matches_minus_104_dbm(self):
        assert SystemConfig().noise_variance == dbm_to_watts(-104.0)
        np.testing.assert_allclose(SystemConfig().noise_variance, 3.9810717055349693e-14, rtol=0)


class TestPathLoss:
    def test_reference_attenuation_at_one_meter(self):
        np.testing.assert_allclose(path_loss_gain(1.0, 2.5), 1e-3, rtol=1e-12)

    def test_reference_distances(self):
        # 30 dB at 1 m plus 10 * exp * log10(d)
        np.testing.assert_allclose(path_loss_gain(50.0, 2.5), 5.656854249e-8, rtol=1e-9)
        np.testing.assert_allclose(path_loss_gain(2.0, 2.8), 1.435873e-4, rtol=1e-6)
        np.testing.assert_allclose(path_loss_gain(48.0, 3.5), 1.305136e-9, rtol=1e-6)
        np.testing.assert_allclose(path_loss_gain(52.0, 3.5), 9.862529e-10, rtol=1e-6)

    def test_rejects_distances_inside_reference(self):
        with pytest.raises(ValueError):
            path_loss_gain(0.5, 2.5)


class TestSubcarrierGrid:
    def test_single_subcarrier_sits_at_center(self):
        np.testing.assert_allclose(subcarrier_frequencies(2.4e9, 100e6, 1), [2.4e9], rtol=0)

    def test_two_subcarriers(self):
        np.testing.assert_allclose(subcarrier_frequencies(2.4e9, 100e6, 2),
                                   [2.375e9, 2.425e9], rtol=0)

    def test_sixty_four_subcarrier_grid(self):
        f = subcarrier_frequencies(2.4e9, 100e6, 64)
        assert f[0] == 2.35078125e9
        np.testing.assert_allclose(np.diff(f), 1.5625e6, rtol=1e-12)
        np.testing.assert_allclose(np.mean(f), 2.4e9, rtol=1e-15)

    def test_grid_symmetric_around_center(self):
        f = subcarrier_frequencies(2.4e9, 200e6, 16)
        np.testing.assert_allclose(f + f[::-1], 4.8e9, rtol=1e-15)


class TestGeometry:
    def test_user_on_access_point_side(self):
        assert ap_user_distance(50.0, 2.0, 0.0) == 48.0

    def test_user_on_far_side(self):
        np.testing.assert_allclose(ap_user_distance(50.0, 2.0, np.pi), 52.0, rtol=1e-15)

    def test_right_angle(self):
        np.testing.assert_allclose(ap_user_distance(50.0, 2.0, np.pi / 2),
                                   np.sqrt(2504.0), rtol=1e-15)

    def test_long_sides_do_not_overflow(self):
        assert ap_user_distance(1e200, 2.0, 0.0) == 1e200
        np.testing.assert_allclose(ap_user_distance(3e300, 4e300, np.pi / 2), 5e300,
                                   rtol=1e-15)
        assert ap_user_distance(1e308, 1e308, np.pi) == np.inf

    def test_rounding_never_goes_below_the_side_difference(self):
        # a^2 + b^2 - 2ab rounds to 0 here, though the user is 1 m from the AP
        assert ap_user_distance(1e8, 1e8 - 1, 0.0) == 1.0
        rng = np.random.default_rng(5)
        for a, b, angle in zip(rng.uniform(1.0, 1e9, 200), rng.uniform(1.0, 1e9, 200),
                               rng.uniform(-1e-3, 1e-3, 200)):
            assert ap_user_distance(a, b, angle) >= abs(a - b)

    def test_far_geometry_one_meter_apart_draws_channels(self):
        system = SystemConfig(n_elements=2, n_subcarriers=2, d_ap_irs=1e8, d_irs_user=1e8 - 1)
        ch = generate_channels(system, 0.0, 0)
        assert np.all(np.isfinite(ch.h_direct))


SMALL = SystemConfig(n_elements=2, n_subcarriers=4)


class TestGenerateChannels:
    def test_shapes_and_metadata(self):
        ch = generate_channels(SMALL, 0.9, 5)
        assert ch.h_direct.shape == (4,)
        assert ch.h_irs_user.shape == (2, 4)
        assert ch.g_ap_irs.shape == (2, 4)
        assert ch.n_elements == 2 and ch.n_subcarriers == 4
        assert ch.user_angle == 0.9
        np.testing.assert_allclose(ch.frequencies,
                                   subcarrier_frequencies(2.4e9, 100e6, 4), rtol=0)

    def test_deterministic_in_seed(self):
        a = generate_channels(SMALL, 0.9, 5)
        b = generate_channels(SMALL, 0.9, 5)
        c = generate_channels(SMALL, 0.9, 6)
        assert np.array_equal(a.h_direct, b.h_direct)
        assert np.array_equal(a.h_irs_user, b.h_irs_user)
        assert np.array_equal(a.g_ap_irs, b.g_ap_irs)
        assert not np.array_equal(a.h_direct, c.h_direct)

    def test_single_tap_is_frequency_flat(self):
        cfg = dataclasses.replace(SMALL, n_taps=1)
        ch = generate_channels(cfg, 0.2, 17)
        for arr in (ch.h_direct[None, :], ch.h_irs_user, ch.g_ap_irs):
            assert np.all(arr == arr[:, :1])

    def test_response_lives_on_l_tap_manifold(self):
        # with L taps, any L subcarriers determine the rest exactly
        cfg = SystemConfig(n_elements=1, n_subcarriers=8, n_taps=3)
        ch = generate_channels(cfg, 1.3, 23)
        delta = ch.frequencies - cfg.center_frequency
        steering = np.exp(-2j * np.pi * np.outer(np.arange(3) / cfg.bandwidth, delta))
        pick = [0, 3, 6]
        taps = np.linalg.solve(steering[:, pick].T, ch.h_direct[pick])
        np.testing.assert_allclose(taps @ steering, ch.h_direct, rtol=1e-9)

    def test_mean_tap_power_matches_path_loss(self):
        # 1e4 draws; per-subcarrier sample means must sit within 5 percent
        n_seeds = 10_000
        angle = 0.9
        acc_d = np.zeros(SMALL.n_subcarriers)
        acc_iu = np.zeros(SMALL.n_subcarriers)
        acc_ai = np.zeros(SMALL.n_subcarriers)
        for seed in range(n_seeds):
            ch = generate_channels(SMALL, angle, seed)
            acc_d += np.abs(ch.h_direct) ** 2
            acc_iu += np.mean(np.abs(ch.h_irs_user) ** 2, axis=0)
            acc_ai += np.mean(np.abs(ch.g_ap_irs) ** 2, axis=0)
        d_au = ap_user_distance(SMALL.d_ap_irs, SMALL.d_irs_user, angle)
        g_au = path_loss_gain(d_au, SMALL.exponent_ap_user)
        g_iu = path_loss_gain(SMALL.d_irs_user, SMALL.exponent_irs_user)
        g_ai = path_loss_gain(SMALL.d_ap_irs, SMALL.exponent_ap_irs)
        np.testing.assert_allclose(acc_d / n_seeds, g_au, rtol=0.05)
        np.testing.assert_allclose(acc_iu / n_seeds, g_iu, rtol=0.05)
        np.testing.assert_allclose(acc_ai / n_seeds, g_ai, rtol=0.05)


def reference_channels(config, user_angle, seed):
    """The draw link by link: three draws, three scalings and three products
    with the steering matrix, in the order direct, surface-user, AP-surface."""
    rng = np.random.default_rng(seed)
    n, taps = config.n_elements, config.n_taps
    freqs = subcarrier_frequencies(config.center_frequency, config.bandwidth,
                                   config.n_subcarriers)
    steering = np.exp(-2j * np.pi * np.outer(np.arange(taps) / config.bandwidth,
                                             freqs - config.center_frequency))
    d_au = ap_user_distance(config.d_ap_irs, config.d_irs_user, user_angle)
    links = [((), d_au, config.exponent_ap_user),
             ((n,), config.d_irs_user, config.exponent_irs_user),
             ((n,), config.d_ap_irs, config.exponent_ap_irs)]
    responses = []
    for shape, distance, exponent in links:
        gain = path_loss_gain(distance, exponent, config.ref_attenuation_db)
        w = rng.standard_normal(shape + (taps, 2))
        responses.append((np.sqrt(gain / taps / 2.0) * (w[..., 0] + 1j * w[..., 1])) @ steering)
    return freqs, *responses


@settings(max_examples=300, deadline=None, derandomize=True)
@example(n=0, k=5, taps=3, seed=1, angle=0.5)
@example(n=7, k=4, taps=1, seed=2, angle=-2.0)
@given(n=st.integers(0, 40), k=st.integers(1, 32), taps=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), angle=st.floats(-np.pi, np.pi))
def test_draw_is_bit_equal_to_the_link_by_link_reference(n, k, taps, seed, angle):
    config = SystemConfig(n_elements=n, n_subcarriers=k, n_taps=taps)
    ch = generate_channels(config, angle, seed)
    got = (ch.frequencies, ch.h_direct, ch.h_irs_user, ch.g_ap_irs)
    for a, b in zip(got, reference_channels(config, angle, seed)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestTakeElements:
    def test_prefix_rows_are_shared(self):
        ch = generate_channels(SystemConfig(n_elements=6, n_subcarriers=4), 0.4, 3)
        sub = take_elements(ch, 2)
        assert sub.n_elements == 2
        assert np.array_equal(sub.h_irs_user, ch.h_irs_user[:2])
        assert np.array_equal(sub.g_ap_irs, ch.g_ap_irs[:2])
        assert np.array_equal(sub.h_direct, ch.h_direct)

    def test_zero_elements_allowed(self):
        ch = generate_channels(SMALL, 0.4, 3)
        assert take_elements(ch, 0).h_irs_user.shape == (0, 4)

    def test_cannot_grow(self):
        ch = generate_channels(SMALL, 0.4, 3)
        with pytest.raises(ValueError):
            take_elements(ch, 3)


class TestSystemConfigValidation:
    def test_defaults_are_full_scale(self):
        cfg = SystemConfig()
        assert cfg.n_elements == 128 and cfg.n_subcarriers == 64
        assert cfg.n_taps == 8

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SystemConfig(n_subcarriers=0)
        with pytest.raises(ValueError):
            SystemConfig(bandwidth=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(noise_variance=0.0)
        with pytest.raises(ValueError):
            SystemConfig(d_irs_user=0.5)
        with pytest.raises(ValueError):
            SystemConfig(n_taps=0)

    @pytest.mark.parametrize("kw", [
        # some user angles put the user within 1 m of the AP
        dict(d_ap_irs=2.0, d_irs_user=2.0),
        dict(d_ap_irs=2.0, d_irs_user=1.5),
        # the AP-user gain underflows to 0 at the far extreme
        dict(d_ap_irs=1e200),
        # ... or overflows to inf at the near one
        dict(ref_attenuation_db=-400.0, d_ap_irs=3e11, exponent_ap_user=-66.0),
        dict(exponent_ap_irs=-1e300),
    ])
    def test_rejects_geometry_outside_the_link_model(self, kw):
        with pytest.raises(ValueError):
            SystemConfig(**kw)

    def test_accepts_an_ap_user_distance_of_exactly_one_metre(self):
        SystemConfig(d_ap_irs=3.0, d_irs_user=2.0)


def config_or_none(**kw):
    try:
        return SystemConfig(**kw)
    except ValueError:
        return None


# geometries and path-loss settings that `SystemConfig` accepts
accepted_configs = st.builds(
    config_or_none, d_ap_irs=st.floats(1.0, 1e12), d_irs_user=st.floats(1.0, 1e12),
    ref_attenuation_db=st.floats(-300.0, 300.0), exponent_ap_irs=st.floats(-10.0, 10.0),
    exponent_irs_user=st.floats(-10.0, 10.0), exponent_ap_user=st.floats(-10.0, 10.0),
).filter(lambda cfg: cfg is not None)


@settings(max_examples=200, deadline=None)
@given(accepted_configs)
@example(SystemConfig())
@example(ExperimentConfig().system)
def test_mean_link_gains_are_the_draws_scalar_calls(cfg):
    # each gain is rounded as `generate_channels` rounds it; the AP-user link at
    # its shortest and longest distance, user angles 0 and pi
    a, b, ref = cfg.d_ap_irs, cfg.d_irs_user, cfg.ref_attenuation_db
    want = [path_loss_gain(a, cfg.exponent_ap_irs, ref),
            path_loss_gain(b, cfg.exponent_irs_user, ref),
            path_loss_gain(abs(a - b), cfg.exponent_ap_user, ref),
            path_loss_gain(a + b, cfg.exponent_ap_user, ref)]
    assert cfg.mean_link_gains().tolist() == want
