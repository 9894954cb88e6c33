"""Analytical element reflection model and its least-squares fit.

The circuit response is summarized by two curve families parameterized by the
target phase x set at the design frequency.  The resonance location (in GHz)
and the phase slope are

    F1(x) = a1 * tan(x / 3) + a2 * sin(x) + b1
    F2(x) = a3 * x + b2

and the realized reflection across frequency f is

    theta(x, f) = -2 * arctan(F2(x) * (f / 1e9 - F1(x)))
    A(x, f)     = 1 - (a4 * x + b3) / (((f / 1e9 - F1(x)) / 0.05)^2 + 4)

with A clamped to [0, 1]; `model_response` returns (A, theta), the shape of
`circuit.sweep_reflection`.  The defaults reproduce a varactor-tuned element
resonant near 2.4 GHz; `fit_model` refits the seven coefficients to sampled
circuit curves by Levenberg-Marquardt least squares.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .circuit import wrap_phase

_GHZ = 1e9
_WIDTH_GHZ = 0.05  # resonance width scale of the amplitude dip
# fit_model: weight of the squared amplitude errors against the squared phase
# errors, and the damped Gauss-Newton steps, accepted or rejected, it may take
_FIT_AMP_WEIGHT = 4.0
_FIT_STEPS = 500


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Coefficients of the analytical reflection model (dimensionless)."""

    alpha1: float = 0.2
    alpha2: float = -0.015
    alpha3: float = -0.75
    alpha4: float = -0.05
    beta1: float = 2.4
    beta2: float = 11.02
    beta3: float = 1.65

    def __post_init__(self):
        vec = self.as_array()
        if not np.all(np.isfinite(vec)):
            raise ValueError("model coefficients must be finite")
        if _validity_margin(vec) <= 0.0:
            raise ValueError("amplitude numerator must stay positive on [-pi, pi]")

    def as_array(self):
        return np.array([self.alpha1, self.alpha2, self.alpha3, self.alpha4,
                         self.beta1, self.beta2, self.beta3])

    @classmethod
    def from_array(cls, vec):
        return cls(*(float(v) for v in vec))


def _validity_margin(coef):
    """Least value of the amplitude numerator a4 * x + b3 of the coefficient
    vector `coef` on [-pi, pi]; it is linear in x, so an endpoint holds it."""
    a4, b3 = coef[3], coef[6]
    return min(b3 - a4 * np.pi, b3 + a4 * np.pi)


def _curves(coef, center_phase, f):
    """(F1, F2, theta, A) of the coefficient vector `coef` at the target
    phases `center_phase`; theta and A at frequencies `f` in Hz."""
    x = np.asarray(center_phase, dtype=float)
    if np.any(np.abs(x) > np.pi):
        raise ValueError("center phase must lie in [-pi, pi]")
    a1, a2, a3, a4, b1, b2, b3 = coef
    f1 = a1 * np.tan(x / 3.0) + a2 * np.sin(x) + b1
    f2 = a3 * x + b2
    detune_ghz = np.asarray(f, dtype=float) / _GHZ - f1
    theta = -2.0 * np.arctan(f2 * detune_ghz)
    detune = detune_ghz / _WIDTH_GHZ
    with np.errstate(over="ignore"):  # a huge detuning gives A = 1 after the clamp
        amplitude = np.clip(1.0 - (a4 * x + b3) / (detune * detune + 4.0), 0.0, 1.0)
    return f1, f2, theta, amplitude


def model_response(params, center_phase, f):
    """Reflection (amplitude, phase) of the model at target phases
    `center_phase` and frequencies `f` in Hz, broadcast against each other:
    A(x, f) clamped to [0, 1], theta(x, f) in radians inside (-pi, pi)."""
    _, _, phase, amplitude = _curves(params.as_array(), center_phase, f)
    return amplitude, phase


def curve_errors(amplitude, phase, ref_amplitude, ref_phase):
    """(max amplitude error, max wrapped phase error) of curves against the
    reference curves, reduced over the last axis: one pair per curve."""
    return (np.max(np.abs(amplitude - ref_amplitude), axis=-1),
            np.max(np.abs(wrap_phase(phase - ref_phase)), axis=-1))


@dataclasses.dataclass(frozen=True, eq=False)
class PhaseCodebook:
    """Uniform discrete phase set {2*pi*b / 2^bits - pi}."""

    values: np.ndarray  # ascending, inside [-pi, pi)

    @property
    def size(self):
        return self.values.size


def codebook(bits):
    if not 1 <= int(bits) <= 8:
        raise ValueError("codebook bits must be between 1 and 8")
    bits = int(bits)
    vals = 2.0 * np.pi * np.arange(2 ** bits) / (2 ** bits) - np.pi
    return PhaseCodebook(vals)


def reflection_table(params, cb, frequencies):
    """Model reflection for every codebook phase, shape (size, K) complex."""
    freqs = np.asarray(frequencies, dtype=float)
    amplitude, phase = model_response(params, cb.values[:, None], freqs[None, :])
    return amplitude * np.exp(1j * phase)


@dataclasses.dataclass
class FitReport:
    center_phases: np.ndarray      # unique curve identifiers, sorted
    max_phase_error: np.ndarray    # per curve, wrapped radians
    max_amplitude_error: np.ndarray
    objective_init: float
    objective_final: float
    no_improvement: bool


def _fit_residuals(vec, x, f, obs_phase, obs_amp):
    """Residuals of the coefficient vector `vec` on the samples: the wrapped
    phase errors, then sqrt(_FIT_AMP_WEIGHT) times the amplitude errors, so
    that their sum of squares is the fit objective."""
    _, _, phase, amp = _curves(vec, x, f)
    return np.concatenate([wrap_phase(phase - obs_phase),
                           np.sqrt(_FIT_AMP_WEIGHT) * (amp - obs_amp)])


def fit_model(center_phase, frequency, phase, amplitude, init=None):
    """Refit the model coefficients to sampled circuit curves.

    Minimizes the sum of squared wrapped phase errors plus `_FIT_AMP_WEIGHT`
    times the squared amplitude errors by damped Gauss-Newton steps from
    `init` (Levenberg-Marquardt, forward-difference Jacobian).  A step that
    leaves the validity region or does not lower the objective is rejected
    and the damping grows; the descent stops when the damping reaches 1e12,
    when a step gains at most 1e-12 of the objective, or after `_FIT_STEPS`.
    Deterministic: the same samples and `init` give the same coefficients.

    Parameters
    ----------
    center_phase, frequency, phase, amplitude : array_like
        Target and observed phase (radians, in [-pi, pi]), frequency (Hz,
        > 0) and observed amplitude (in [0, 1]), all finite and broadcast
        against each other: a (T, F) sweep goes in as it is, with
        `center_phase[:, None]`.  At least 50 samples over at least 3
        distinct center phases and 20 distinct frequencies.
    init : ModelParams, optional
        Starting coefficients; defaults to ModelParams().

    Returns
    -------
    (ModelParams, FitReport)
        The fitted coefficients (or `init` if the descent did not improve on
        it, with the report's no_improvement flag set) and per-curve error
        maxima.
    """
    samples = np.stack(np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (center_phase, frequency, phase, amplitude))))
    x, f, obs_phase, obs_amp = samples.reshape(4, -1)  # C order: target phase first
    if not np.all(np.isfinite(samples)):
        raise ValueError("fit samples must be finite")
    if np.any(np.abs(x) > np.pi) or np.any(np.abs(obs_phase) > np.pi):
        raise ValueError("phases must lie in [-pi, pi]")
    if np.any((obs_amp < 0.0) | (obs_amp > 1.0 + 1e-12)):
        raise ValueError("amplitude must lie in [0, 1]")
    if np.any(f <= 0.0):
        raise ValueError("frequency must be positive")
    if x.size < 50 or np.unique(x).size < 3 or np.unique(f).size < 20:
        raise ValueError("fit needs >= 50 samples over >= 3 center phases and >= 20 frequencies")

    if init is None:
        init = ModelParams()
    args = (x, f, obs_phase, obs_amp)
    best_vec = init.as_array()
    res = _fit_residuals(best_vec, *args)
    obj_init = best_obj = float(res @ res)
    damping, jac = 1e2, None
    for _ in range(_FIT_STEPS):
        if jac is None:  # forward differences, after each accepted step
            h = 1e-7 * np.maximum(np.abs(best_vec), 1e-3)
            jac = np.stack([_fit_residuals(best_vec + d, *args) - res for d in np.diag(h)], 1) / h
            hess, grad = jac.T @ jac, jac.T @ res
        trial = best_vec - np.linalg.solve(hess + damping * np.diag(np.diag(hess) + 1e-12), grad)
        trial_obj = np.inf
        if _validity_margin(trial) > 0.0:
            trial_res = _fit_residuals(trial, *args)
            trial_obj = float(trial_res @ trial_res)
        if trial_obj < best_obj:  # a NaN objective compares False: rejected
            gain = (best_obj - trial_obj) / best_obj
            best_vec, res, best_obj, jac = trial, trial_res, trial_obj, None
            damping = max(damping / 10.0, 1e-12)
            if gain <= 1e-12:
                break
        else:
            damping *= 10.0
            if damping >= 1e12:
                break

    no_improvement = not best_obj < obj_init - 1e-12 * max(1.0, abs(obj_init))
    if no_improvement:
        fitted, best_obj = init, obj_init
    else:
        fitted = ModelParams.from_array(best_vec)

    centers = np.unique(x)
    max_amp, max_phi = np.empty((2, centers.size))
    for i, c in enumerate(centers):
        sel = x == c
        max_amp[i], max_phi[i] = curve_errors(*model_response(fitted, c, f[sel]),
                                              obs_amp[sel], obs_phase[sel])
    report = FitReport(centers, max_phi, max_amp, float(obj_init), float(best_obj),
                       no_improvement)
    return fitted, report
