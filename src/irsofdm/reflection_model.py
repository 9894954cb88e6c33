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
circuit curves with a derivative-free simplex search.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .circuit import wrap_phase

_GHZ = 1e9
_WIDTH_GHZ = 0.05  # resonance width scale of the amplitude dip
# fit_model: weight of the squared amplitude errors against the squared phase
# errors, and the objective evaluations the descent may spend
_FIT_AMP_WEIGHT = 4.0
_FIT_EVALS = 20000


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


def _fit_objective(vec, x, f, obs_phase, obs_amp):
    margin = _validity_margin(vec)
    if margin <= 0.0:
        # steer the simplex back inside the validity region
        return 1e12 * (1.0 + abs(margin))
    _, _, phase, amp = _curves(vec, x, f)
    dphi = wrap_phase(phase - obs_phase)
    val = float(np.dot(dphi, dphi) + _FIT_AMP_WEIGHT * np.sum((amp - obs_amp) ** 2))
    if not np.isfinite(val):
        return 1e15
    return val


def fit_model(center_phase, frequency, phase, amplitude, init=None):
    """Refit the model coefficients to sampled circuit curves.

    Minimizes the sum of squared wrapped phase errors plus `_FIT_AMP_WEIGHT`
    times the squared amplitude errors by Nelder-Mead simplex descent from
    `init`, restarted from its own result while that still improves it.
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
    import scipy.optimize  # about 0.7 s to import, and only the fit needs it

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
    obj_init = best_obj = _fit_objective(best_vec, *args)
    budget = _FIT_EVALS
    while budget > 100:
        res = scipy.optimize.minimize(
            _fit_objective, best_vec, args=args, method="Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-14, "adaptive": True})
        budget -= res.nfev
        if not res.fun < best_obj - 1e-15:
            break
        best_vec, best_obj = res.x, res.fun

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
