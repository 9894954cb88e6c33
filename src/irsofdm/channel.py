"""Frequency-selective link model: geometry, path loss and Rayleigh taps.

The AP, the reflecting surface and the user sit in a plane.  The AP-surface
distance and the surface-user distance are fixed; the user angle (at the
surface, off the AP direction) sets the AP-user distance by the law of
cosines.  Every link is a tapped delay line with i.i.d. complex Gaussian
taps of equal mean power (uniform power-delay profile), tap l delayed by
l / bandwidth, so the frequency response at subcarrier k is

    H[k] = sum_l a_l * exp(-j * 2 * pi * (f_k - f_c) * l / bandwidth).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


def dbm_to_watts(dbm):
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)


def path_loss_gain(distance, exponent, ref_attenuation_db=30.0):
    """Average power gain of a link: ref attenuation at 1 m plus log-distance
    decay, returned in linear scale."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance < 1.0):
        raise ValueError("path loss model needs distance >= 1 m")
    loss_db = ref_attenuation_db + 10.0 * exponent * np.log10(distance)
    return 10.0 ** (-loss_db / 10.0)


def subcarrier_frequencies(center_frequency, bandwidth, n_subcarriers):
    """Centers of K equal slices of the band: f_c - B/2 + (k - 1/2) B / K."""
    if n_subcarriers < 1:
        raise ValueError("need at least one subcarrier")
    k = np.arange(1, n_subcarriers + 1, dtype=float)
    return center_frequency - bandwidth / 2.0 + (k - 0.5) * bandwidth / n_subcarriers


def ap_user_distance(d_ap_irs, d_irs_user, user_angle):
    """AP-user distance by the law of cosines; angle 0 puts the user on the
    AP side of the surface.  Sides beyond 2**500 m are first scaled by an
    exact power of two, so that their squares do not overflow."""
    e = max(math.frexp(max(d_ap_irs, d_irs_user))[1] - 500, 0)
    a, b = math.ldexp(d_ap_irs, -e), math.ldexp(d_irs_user, -e)
    d2 = a ** 2 + b ** 2 - 2.0 * a * b * np.cos(user_angle)  # rounding can go below (a - b)^2
    with np.errstate(over="ignore"):  # inf only for a distance beyond the float range
        return float(np.ldexp(np.sqrt(max(d2, (a - b) ** 2)), e))


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Scenario constants shared by channel generation and optimization."""

    n_elements: int = 128
    n_subcarriers: int = 64
    bandwidth: float = 100e6          # Hz
    center_frequency: float = 2.4e9   # Hz
    max_power: float = 1.0            # transmit budget, watts
    noise_variance: float = 3.9810717055349693e-14  # per subcarrier, watts
    d_ap_irs: float = 50.0            # m
    d_irs_user: float = 2.0           # m
    ref_attenuation_db: float = 30.0  # at 1 m
    exponent_ap_irs: float = 2.5      # path-loss exponents of the three links
    exponent_irs_user: float = 2.8
    exponent_ap_user: float = 3.5
    n_taps: int = 8

    def __post_init__(self):
        if self.n_elements < 0:
            raise ValueError("element count cannot be negative")
        if self.n_subcarriers < 1:
            raise ValueError("need at least one subcarrier")
        if self.bandwidth <= 0.0 or self.center_frequency <= 0.0:
            raise ValueError("bandwidth and center frequency must be positive")
        if self.max_power <= 0.0:
            raise ValueError("power budget must be positive")
        if self.noise_variance <= 0.0:
            raise ValueError("noise variance must be positive")
        if self.d_ap_irs < 1.0 or self.d_irs_user < 1.0:
            raise ValueError("distances below the 1 m reference are outside the model")
        if abs(self.d_ap_irs - self.d_irs_user) < 1.0:
            raise ValueError("need |d_ap_irs - d_irs_user| >= 1 m, the AP-user distance "
                             "at user angle 0")
        gains = self.mean_link_gains()
        if not np.all((gains > 0.0) & (gains < np.inf)):
            raise ValueError("the path loss settings give a mean link gain of 0 or inf")
        if self.n_taps < 1:
            raise ValueError("need at least one tap")

    def mean_link_gains(self):
        """Mean gains of the AP-surface, surface-user and, at its shortest and
        longest distance, AP-user links; 0 or inf beyond the float range."""
        a, b = self.d_ap_irs, self.d_irs_user
        links = [(a, self.exponent_ap_irs), (b, self.exponent_irs_user),
                 (abs(a - b), self.exponent_ap_user), (a + b, self.exponent_ap_user)]
        # the scalar calls of `generate_channels`: an array call rounds some gains apart;
        # the AP-user gain is monotone in distance, so both ends bound it
        with np.errstate(all="ignore"):
            return np.array([path_loss_gain(d, e, self.ref_attenuation_db) for d, e in links])


@dataclasses.dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Per-subcarrier responses of the three links for one drop."""

    frequencies: np.ndarray  # (K,)
    h_direct: np.ndarray     # (K,) AP -> user
    h_irs_user: np.ndarray   # (N, K) surface -> user
    g_ap_irs: np.ndarray     # (N, K) AP -> surface
    user_angle: float

    @property
    def n_elements(self):
        return self.h_irs_user.shape[0]

    @property
    def n_subcarriers(self):
        return self.frequencies.size

    @property
    def cascade(self):
        """Per-element cascade conj(h_irs_user) * g_ap_irs, shape (N, K)."""
        return np.conj(self.h_irs_user) * self.g_ap_irs


def generate_channels(config, user_angle, seed):
    """Draw one channel realization, deterministic in (config, angle, seed).

    One `standard_normal` call draws the taps of all 1 + 2N link rows in a
    fixed order (direct, surface-user, AP-surface).  The links keep separate
    scalar path-loss calls and products with the one (L, K) steering matrix:
    an array call or a stacked product rounds some values apart.
    """
    rng = np.random.default_rng(seed)
    n, k, taps = config.n_elements, config.n_subcarriers, config.n_taps
    freqs = subcarrier_frequencies(config.center_frequency, config.bandwidth, k)
    lags = np.arange(taps) / config.bandwidth
    steering = np.exp(-2j * np.pi * np.outer(lags, freqs - config.center_frequency))  # (L, K)
    d_au = ap_user_distance(config.d_ap_irs, config.d_irs_user, user_angle)
    gains = [path_loss_gain(d, e, config.ref_attenuation_db) for d, e in [
        (d_au, config.exponent_ap_user), (config.d_irs_user, config.exponent_irs_user),
        (config.d_ap_irs, config.exponent_ap_irs)]]
    w = rng.standard_normal((1 + 2 * n, taps, 2))
    rows = np.sqrt(np.repeat(gains, [1, n, n]) / taps / 2.0)[:, None] * (w[..., 0] + 1j * w[..., 1])
    # three products: one (1 + 2N, L) @ (L, K) product moves the last bits of h_direct
    return ChannelRealization(freqs, rows[0] @ steering, rows[1:n + 1] @ steering,
                              rows[n + 1:] @ steering, float(user_angle))


def take_elements(channel, n_elements):
    """Restrict a realization to its first `n_elements` rows.

    Slicing one draw keeps the randomness common across element-count sweeps.
    """
    if not 0 <= n_elements <= channel.n_elements:
        raise ValueError("cannot take more elements than were generated")
    return dataclasses.replace(channel, h_irs_user=channel.h_irs_user[:n_elements],
                               g_ap_irs=channel.g_ap_irs[:n_elements])
