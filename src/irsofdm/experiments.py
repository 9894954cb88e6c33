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
    """Achievable rate of each scheme on one channel realization, and the
    number of its two designs that stopped at `settings.max_outer` or
    `settings.max_sweeps` without converging.

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
    rates = {"practical": r_practical, "ideal": _water_filled_rate(g, system),
             "no_irs": _water_filled_rate(channel.h_direct, system)}
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
        for t, deg in enumerate(self.target_phase_deg.tolist()):
            for i in range(self.frequencies.size):
                yield (deg, float(self.frequencies[i]),
                       float(self.circuit_phase[t, i]), float(self.circuit_amplitude[t, i]),
                       float(self.model_phase[t, i]), float(self.model_amplitude[t, i]))

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
    n_drops: int
    per_drop: dict  # (sweep_value, scheme) -> (n_drops,) rates
    nonconverged: int  # designs that stopped at an iteration cap without converging
    settings: OptimizerSettings  # the stopping rules of the designs

    header = ("sweep_var", "sweep_value", "scheme", "mean_rate_bps_hz",
              "std_rate", "n_drops", "seed")

    def mean_rate(self, value, scheme):
        return float(np.mean(self.per_drop[(value, scheme)]))

    def rows(self):
        for value in self.sweep_values:
            for scheme in SCHEMES:
                rates = self.per_drop[(value, scheme)]
                std = float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0
                yield (self.sweep_var, value, scheme, float(np.mean(rates)),
                       std, self.n_drops, self.seed)

    def summary(self):
        """Lines for stderr: the mean rates at each point, then any non-convergence."""
        for value in self.sweep_values:
            parts = ", ".join(f"{s} {self.mean_rate(value, s):.4f}" for s in SCHEMES)
            yield f"{self.sweep_var} = {value}: {parts} bit/s/Hz"
        if self.nonconverged:
            yield (f"warning: {self.nonconverged} designs stopped at max_outer = "
                   f"{self.settings.max_outer} or max_sweeps = {self.settings.max_sweeps} "
                   "without converging")


def _rate_sweep(cfg, sweep_var, values, systems, element_counts):
    """Mean rate of every scheme at each sweep point, on shared drops.

    Point i designs with `systems[i]` on the first `element_counts[i]`
    elements of each drop's channel.  A drop's channel is drawn once, at the
    largest count, so every point sees the same drops and a smaller surface a
    subset of the same elements; small mean differences are then paired
    comparisons.
    """
    cb, tables = _design_inputs(cfg)
    system_full = dataclasses.replace(cfg.system, n_elements=max(element_counts))
    per_drop = {(v, s): np.empty(cfg.n_drops) for v in values for s in SCHEMES}
    nonconverged = 0
    for drop in range(cfg.n_drops):
        channel = drop_channel(system_full, cfg.seed, drop)
        for v, system, n in zip(values, systems, element_counts):
            rates, stalled = simulate_drop_rates(take_elements(channel, n), cb, tables, system,
                                                 cfg.optimizer)
            nonconverged += stalled
            for s in SCHEMES:
                per_drop[(v, s)][drop] = rates[s]
    return RateSweepResult(sweep_var, values, cfg.seed, cfg.n_drops, per_drop, nonconverged,
                           cfg.optimizer)


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
