"""Monte Carlo experiments: model validation and rate trend scenarios.

Every scenario is deterministic in (config, seed).  Drop d of seed s draws
its channel from a child seed of (s, d) and its user angle from (s, d, 1),
so the same drops are reused across sweep points (common random numbers) and
results are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses

import numpy as np

from .channel import dbm_to_watts, generate_channels, subcarrier_frequencies, take_elements
from .circuit import UnreachablePhaseError, solve_capacitance, sweep_reflection, wrap_phase
from .kernels import combined_gains, mean_rate
from .optimizer import OptimizerSettings, alternating_optimize, design_tables, water_filling
from .reflection_model import codebook, curve_errors, model_response

SCHEMES = ("practical", "ideal", "no_irs")


def drop_channel(system, seed, drop):
    """The channel realization of Monte Carlo drop `drop` under `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, drop, 1)))
    angle = float(rng.uniform(0.0, 2.0 * np.pi))
    channel_seed = int(np.random.SeedSequence((seed, drop)).generate_state(1)[0])
    return generate_channels(system, angle, channel_seed)


def _water_filled_rate(g, system):
    """Rate of the complex gains `g` under water-filling with the budget of `system`."""
    gains = g.real ** 2 + g.imag ** 2
    alloc = water_filling(gains, system.noise_variance, system.max_power)
    return float(mean_rate(alloc.p, gains, system.noise_variance))


def simulate_drop_rates(channel, cb, tables, system, settings):
    """Achievable rates of the schemes, in `SCHEMES` order, on one channel
    realization, and the number of its two designs that stopped at
    `settings.max_outer` or `settings.max_sweeps` without converging.

    `tables` are the run's (practical, ideal) `design_tables`.
    practical: joint alternating design on the practical table.
    ideal: the same design on the flat unit-modulus table; its indices are
    then scored on the practical table with water-filling on the realized
    gains.
    no_irs: water-filling over the direct link only.
    """
    practical, ideal = tables
    _, _, r_practical, trace_practical = alternating_optimize(channel, cb, practical, system,
                                                              settings)
    indices, _, _, trace_ideal = alternating_optimize(channel, cb, ideal, system, settings)
    g = combined_gains(channel.h_direct, channel.cascade, practical[indices])
    rates = r_practical, *(_water_filled_rate(x, system) for x in (g, channel.h_direct))
    return rates, (not trace_practical.converged) + (not trace_ideal.converged)


def _design_inputs(cfg):
    """The run's codebook and its (practical, ideal) design tables."""
    cb = codebook(cfg.codebook_bits)
    s = cfg.system
    freqs = subcarrier_frequencies(s.center_frequency, s.bandwidth, s.n_subcarriers)
    return cb, design_tables(cfg.model, cb, freqs)


@dataclasses.dataclass
class ModelValidationResult:
    target_phase_deg: np.ndarray   # (T,) reachable targets, in config order
    frequencies: np.ndarray        # (F,)
    circuit_amplitude: np.ndarray  # (T, F), as are the three curves below
    circuit_phase: np.ndarray
    model_amplitude: np.ndarray
    model_phase: np.ndarray
    errors: list  # (target_phase_deg, message) for unreachable targets

    header = ("target_phase_deg", "freq_hz", "circuit_phase_rad", "circuit_amp",
              "model_phase_rad", "model_amp")

    def rows(self):
        columns = (self.target_phase_deg[:, None], self.frequencies, self.circuit_phase,
                   self.circuit_amplitude, self.model_phase, self.model_amplitude)
        yield from zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*columns)))

    def summary(self):
        """Lines for stderr: each curve's errors, then each unreachable target."""
        amp_error, phase_error = curve_errors(self.model_amplitude, self.model_phase,
                                              self.circuit_amplitude, self.circuit_phase)
        for deg, phi, amp in zip(self.target_phase_deg.tolist(), phase_error, amp_error):
            yield (f"target {deg:+.1f} deg: max phase error {phi:.4f} rad, "
                   f"max amplitude error {amp:.4f}")
        for deg, message in self.errors:
            yield f"target {deg:+.1f} deg failed: {message}"


def run_model_validation(cfg):
    """Circuit and model responses on the (targets x frequencies) grid: each
    target phase's capacitance is solved alone, then each side is swept once.

    Target phases that no capacitance can realize are reported in the result
    instead of aborting the sweep.
    """
    val = cfg.validation
    grid = np.linspace(val.f_min, val.f_max, val.n_points)
    deg = np.asarray(val.target_phases_deg, dtype=float)
    x = wrap_phase(np.deg2rad(deg))
    caps = np.full(deg.size, np.nan)  # stays NaN where no capacitance reaches the target
    errors = []
    for t in range(deg.size):
        try:
            caps[t], _ = solve_capacitance(cfg.circuit, x[t], cfg.system.center_frequency)
        except UnreachablePhaseError as exc:
            errors.append((float(deg[t]), str(exc)))
    ok = ~np.isnan(caps)
    circuit = sweep_reflection(cfg.circuit, caps[ok, None], grid)
    return ModelValidationResult(deg[ok], grid, *circuit,
                                 *model_response(cfg.model, x[ok, None], grid), errors)


@dataclasses.dataclass
class RateSweepResult:
    sweep_var: str
    sweep_values: tuple
    seed: int
    rates: np.ndarray  # (len(sweep_values), len(SCHEMES), n_drops), schemes in SCHEMES order
    nonconverged: int  # designs that stopped at an iteration cap without converging
    settings: OptimizerSettings  # the stopping rules of the designs

    header = ("sweep_var", "sweep_value", "scheme", "mean_rate_bps_hz",
              "std_rate", "n_drops", "seed")

    def rows(self):
        n_drops = self.rates.shape[-1]  # ddof 0 at one drop: a std of 0.0, not NaN
        columns = (self.rates.mean(axis=-1), self.rates.std(axis=-1, ddof=int(n_drops > 1)))
        for value, means, stds in zip(self.sweep_values, *(c.tolist() for c in columns)):
            for row in zip(SCHEMES, means, stds):
                yield (self.sweep_var, value, *row, n_drops, self.seed)

    def summary(self):
        """Lines for stderr: the mean rates at each point, each followed by the
        paired gaps practical - ideal and ideal - no_irs; then any non-convergence."""
        n_drops = self.rates.shape[-1]
        gaps = self.rates[:, :-1] - self.rates[:, 1:]
        errors = gaps.std(axis=-1, ddof=int(n_drops > 1)) / np.sqrt(n_drops)
        columns = (self.rates.mean(axis=-1), gaps.mean(axis=-1), errors, (gaps < 0.0).sum(axis=-1))
        for value, means, *gap in zip(self.sweep_values, *(c.tolist() for c in columns)):
            parts = ", ".join(f"{s} {r:.4f}" for s, r in zip(SCHEMES, means))
            yield f"{self.sweep_var} = {value}: {parts} bit/s/Hz"
            for a, b, mean, se, below in zip(SCHEMES, SCHEMES[1:], *gap):
                paired = (f"+- {se:.4f} bit/s/Hz (paired mean +- standard error)" if n_drops > 1
                          else "bit/s/Hz (one drop: no standard error)")
                yield f"  {a} - {b}: {mean:.4f} {paired}, below 0 in {below} of {n_drops} drops"
        if self.nonconverged:
            yield (f"warning: {self.nonconverged} designs stopped at max_outer = "
                   f"{self.settings.max_outer} or max_sweeps = {self.settings.max_sweeps} "
                   "without converging")


def _rate_sweep(cfg, sweep_var, values, systems, element_counts):
    """Rate of every scheme at each sweep point on each of the shared drops.

    Point i designs with `systems[i]` on the first `element_counts[i]`
    elements of each drop's channel.  A drop's channel is drawn once, at the
    largest count, so every point sees the same drops and a smaller surface a
    subset of the same elements; small mean differences are then paired
    comparisons.
    """
    cb, tables = _design_inputs(cfg)
    system_full = dataclasses.replace(cfg.system, n_elements=max(element_counts))
    rates = np.empty((len(values), len(SCHEMES), cfg.n_drops))
    nonconverged = 0
    for drop in range(cfg.n_drops):
        channel = drop_channel(system_full, cfg.seed, drop)
        for i, (system, n) in enumerate(zip(systems, element_counts)):
            rates[i, :, drop], stalled = simulate_drop_rates(take_elements(channel, n), cb,
                                                             tables, system, cfg.optimizer)
            nonconverged += stalled
    return RateSweepResult(sweep_var, values, cfg.seed, rates, nonconverged, cfg.optimizer)


def run_rate_vs_power(cfg):
    """Mean rate of every scheme across a transmit power sweep.

    Each point of `cfg.power_sweep_dbm` is the transmit budget there;
    `cfg.system.max_power` is not used.
    """
    values = tuple(float(v) for v in cfg.power_sweep_dbm)
    systems = [dataclasses.replace(cfg.system, max_power=float(dbm_to_watts(v))) for v in values]
    return _rate_sweep(cfg, "power_dbm", values, systems, [cfg.system.n_elements] * len(values))


def run_rate_vs_elements(cfg):
    """Mean rate of every scheme across the element counts of `cfg.element_sweep`."""
    values = tuple(int(n) for n in cfg.element_sweep)
    return _rate_sweep(cfg, "n_elements", values, [cfg.system] * len(values), values)


def run_convergence_trace(cfg):
    """Objective trace of one alternating optimization on drop 0."""
    cb, (practical, _) = _design_inputs(cfg)
    channel = drop_channel(cfg.system, cfg.seed, 0)
    return alternating_optimize(channel, cb, practical, cfg.system, cfg.optimizer)[3]


def write_csv_rows(fh, result):
    """Write a scenario result's header and rows to the open text file `fh`
    as CSV; `csv` writes floats as repr(), the shortest exact form."""
    writer = csv.writer(fh)
    writer.writerow(result.header)
    writer.writerows(result.rows())


def write_result_csv(path, result):
    """Write a scenario result to the CSV file `path`."""
    with open(path, "w", newline="") as fh:
        write_csv_rows(fh, result)
