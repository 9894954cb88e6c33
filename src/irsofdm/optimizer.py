"""Joint power allocation and discrete reflect beamforming.

The design objective is the average achievable rate over K subcarriers,

    R = (1/K) sum_k log2(1 + p_k |h_d[k] + sum_n conj(h_r[n,k]) phi[n,k] g[n,k]|^2 / sigma^2),

maximized over the per-subcarrier powers (water-filling, convex) and the
per-element codebook phases (coordinate descent over a discrete set).  An
alternating loop interleaves the two until the objective stops improving.
A design reads one (S, K) reflection table, the response of each of the S
codebook entries at each subcarrier.  `design_tables` builds the two a run
needs once: the practical table of the frequency-dependent reflection model
and the ideal table of flat unit-modulus phase shifts.  The ideal design is
the same alternation on the ideal table; its indices are then scored on the
practical table.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .kernels import combined_gains, coordinate_descent_sweeps, mean_rate
from .reflection_model import reflection_table


class PowerAllocationError(ValueError):
    """Power allocation is infeasible (no subcarrier with positive gain)."""


@dataclasses.dataclass(frozen=True)
class OptimizerSettings:
    """Stopping rules of the alternating design loop."""

    eps_rate: float = 1e-4   # outer-loop improvement threshold, bit/s/Hz
    max_outer: int = 30
    max_sweeps: int = 20

    def __post_init__(self):
        if self.eps_rate <= 0.0:
            raise ValueError("eps_rate must be positive")
        if self.max_outer < 1 or self.max_sweeps < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclasses.dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-subcarrier transmit powers in watts."""

    p: np.ndarray


@dataclasses.dataclass
class OptimizationTrace:
    """Objective values recorded at every update, tagged by stage; the last
    one is the design's rate.  A design has not converged if it stopped at
    `max_outer`, or if its last coordinate descent stopped at `max_sweeps`."""

    stages: list
    objectives: np.ndarray
    n_sweeps: int
    converged: bool

    header = ("stage", "iteration", "objective")

    def rows(self):
        """Yield (stage, iteration, objective) rows in recording order."""
        for i, (stage, obj) in enumerate(zip(self.stages, self.objectives.tolist())):
            yield stage, i, obj

    def summary(self):
        yield (f"final rate {self.objectives[-1]:.6f} bit/s/Hz after "
               f"{self.n_sweeps} sweeps (converged: {self.converged})")


def water_filling(gains, noise_variance, total_power):
    """Water-filling powers p_k = max(0, mu - sigma^2 / g_k) meeting the budget.

    `gains` are the squared channel magnitudes |h_k|^2.  The solution is exact
    and finite (Palomar & Fonollosa, "Practical algorithms for a family of
    waterfilling solutions", IEEE TSP 2005; Boyd & Vandenberghe, Convex
    Optimization, Ex. 5.2): with the finite ratios r = sigma^2 / g sorted
    ascending, the level of the m best subcarriers is (P + r_1 + ... + r_m) / m,
    and mu is the level of the largest m whose level still exceeds r_m.
    Subcarriers with zero gain, or a gain so small that r overflows, get zero
    power.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty 1-D array")
    if (gains < 0.0).any() or not np.isfinite(gains).all():
        raise ValueError("gains must be finite and nonnegative")
    if noise_variance <= 0.0:
        raise ValueError("noise variance must be positive")
    if total_power <= 0.0:
        raise ValueError("power budget must be positive")

    with np.errstate(divide="ignore", over="ignore"):
        ratios = noise_variance / gains  # inf where the gain is zero or too small to invert
    r = ratios[np.isfinite(ratios)]
    if not r.size:
        raise PowerAllocationError("all subcarrier gains are zero or too small to invert, "
                                   "nothing to allocate to")
    r.sort()
    levels = (total_power + r.cumsum()) / np.arange(1, r.size + 1)
    active = (levels > r).nonzero()[0]
    # no level clears r_1 only when P is below the float spacing of r_1
    mu = levels[active[-1]] if active.size else r[0]
    return PowerAllocation(np.maximum(0.0, mu - ratios))


def alignment_init(channel, cb):
    """Codebook indices aligning each element with the direct link at the
    center subcarrier; the usual warm start for coordinate descent."""
    k_c = channel.n_subcarriers // 2
    v_c = channel.cascade[:, k_c]
    share = channel.h_direct[k_c] / max(channel.n_elements, 1)
    scores = np.abs(v_c[:, None] * np.exp(1j * cb.values)[None, :] + share)
    return np.argmax(scores, axis=1).astype(np.int64)


def design_tables(model, cb, frequencies):
    """The (S, K) reflection tables of the two designs, (practical, ideal).

    practical: the model reflection of each codebook phase at each
    subcarrier frequency; ideal: the flat unit-modulus exp(j x) the ideal
    design assumes.  Both depend only on the run's model, codebook and band.
    """
    practical = reflection_table(model, cb, frequencies)
    ideal = np.ascontiguousarray(np.exp(1j * cb.values)[:, None] * np.ones(np.size(frequencies)))
    return practical, ideal


def _alternate(channel, cb, table, config, settings):
    """The alternating loop of `alternating_optimize`, on a checked table.

    Each outer iteration compares its power step's rate with the trace's last
    objective before it, and the trace's last objective is the returned rate.
    """
    n_sc = channel.n_subcarriers
    v = channel.cascade
    indices = alignment_init(channel, cb)
    p = np.full(n_sc, config.max_power / n_sc)

    stages = ["init"]
    g = combined_gains(channel.h_direct, v, table[indices])
    objectives = [float(mean_rate(p, g.real ** 2 + g.imag ** 2, config.noise_variance))]
    sweeps_total = 0
    converged = False
    for _ in range(settings.max_outer):
        r_prev = objectives[-1]  # the last power step's rate, or the start's
        res = coordinate_descent_sweeps(v, channel.h_direct, table, p, config.noise_variance,
                                        indices, max_sweeps=settings.max_sweeps)
        indices = res.indices
        sweeps_total += int(res.sweep_rates.size)
        p = water_filling(res.gains, config.noise_variance, config.max_power).p
        stages.extend(["reflect"] * res.update_rates.size + ["power"])
        objectives.extend(res.update_rates.tolist())
        objectives.append(float(mean_rate(p, res.gains, config.noise_variance)))
        if objectives[-1] - r_prev < settings.eps_rate:
            converged = res.converged
            break
    trace = OptimizationTrace(stages, np.asarray(objectives), sweeps_total, converged)
    return indices, p, objectives[-1], trace


def alternating_optimize(channel, cb, table, config, settings=OptimizerSettings()):
    """Joint design: alternate codebook coordinate descent and water-filling.

    `table` (cb.size, K) is the reflection each codebook entry is designed
    with, one of the two `design_tables`.  Starts from uniform power and the
    center-subcarrier alignment and stops once an outer iteration improves
    the objective by less than `settings.eps_rate`.  Returns (indices,
    powers, rate, trace), the powers a (K,) array in watts; the trace
    objectives are non-decreasing up to floating-point noise.
    """
    shape, expected = np.shape(table), (cb.size, channel.n_subcarriers)
    if shape != expected:
        raise ValueError(f"reflection table has shape {shape}, expected {expected} "
                         "(codebook entries, subcarriers)")
    return _alternate(channel, cb, table, config, settings)

