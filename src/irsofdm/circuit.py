"""Equivalent-circuit model of a single reflecting element.

Each element behaves as a parallel resonant tank: a bottom-layer inductor L1
in parallel with the series branch S = R + jX of the top-layer inductor L2,
the tunable capacitor C and the loss resistance R, with X = wL2 - 1/(wC) and
w = 2*pi*f.  Against the free-space impedance Z0 the reflection coefficient is

    phi = (Z - Z0) / (Z + Z0) = (n0 + n1 X) / (d0 + d1 X),  Z = jwL1 S / (jwL1 + S),

the ratio once multiplied through by jwL1 + S.  `reflection` evaluates it and
`solve_capacitance` roots it; it stays finite where Z does not, so a lossless
element at resonance reflects phi = 1.  Varying C moves the resonance, which
steers the phase at the design frequency; the amplitude dips near resonance
because R burns power.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class SingularCircuitError(ArithmeticError):
    """Reflection evaluation produced a non-finite value."""


def wrap_phase(x):
    """Wrap angles to the half-open interval [-pi, pi)."""
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


@dataclasses.dataclass(frozen=True)
class CircuitParams:
    """Element circuit constants.  Defaults describe a varactor-tuned patch
    resonant near 2.4 GHz."""

    l1: float = 2.5e-9      # bottom-layer inductance, henry
    l2: float = 0.7e-9      # top-layer inductance, henry
    r: float = 1.0          # loss resistance, ohm
    z0: float = 377.0       # free-space impedance, ohm
    c_min: float = 0.47e-12  # capacitance range, farad
    c_max: float = 2.35e-12

    def __post_init__(self):
        if not (self.l1 > 0.0 and self.l2 > 0.0):
            raise ValueError("inductances must be positive")
        if self.r < 0.0:
            raise ValueError("loss resistance must be nonnegative")
        if self.z0 <= 0.0:
            raise ValueError("free-space impedance must be positive")
        if not (0.0 < self.c_min < self.c_max):
            raise ValueError("need 0 < c_min < c_max")


def _coefficients(params, w):
    """Coefficients (n0, n1, d0, d1) of phi = (n0 + n1 X) / (d0 + d1 X) at
    angular frequency `w`; for R >= 0 the denominator has no real root."""
    jb, r, z0 = 1j * w * params.l1, params.r, params.z0
    return r * (jb - z0) - jb * z0, 1j * (jb - z0), r * (jb + z0) + jb * z0, 1j * (jb + z0)


def reflection(params, c, f):
    """Complex reflection coefficient of the element equivalent circuit.

    `c` and `f` may be scalars or arrays (broadcast together); both must be
    strictly positive.
    """
    c = np.asarray(c, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(c <= 0.0) or np.any(f <= 0.0):
        raise ValueError("capacitance and frequency must be positive")
    with np.errstate(all="ignore"):
        w = 2.0 * np.pi * f
        n0, n1, d0, d1 = _coefficients(params, w)
        x = w * params.l2 - 1.0 / (w * c)
        phi = (n0 + n1 * x) / (d0 + d1 * x)
    bad = ~np.isfinite(phi)
    if np.any(bad):  # name the first frequency where it is
        f_bad = float(np.broadcast_to(f, bad.shape)[bad][0])
        raise SingularCircuitError(f"reflection is non-finite at f = {f_bad!r} Hz")
    return phi


def sweep_reflection(params, c, f_grid):
    """Reflection (amplitude, phase) of capacitances `c` over the frequency
    grid `f_grid`, broadcast against each other, so `c[:, None]` gives one
    row per capacitance; the phase is wrapped to [-pi, pi) radians."""
    phi = np.atleast_1d(reflection(params, c, np.asarray(f_grid, dtype=float)))
    return np.abs(phi), wrap_phase(np.angle(phi))


# the largest wrapped phase miss (radians) at which a target phase counts as reached
PHASE_TOL = np.deg2rad(1.0)


def _real_roots(a, b, c):
    """The two roots of a x^2 + b x + c, each coefficient of shape (..., 1),
    as (..., 2), NaN where they are not real.  The stable form
    q = -(b + sign(b) sqrt(disc)) / 2 gives roots q / a and c / q, so at a = 0
    the second is the linear root -c / b."""
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return np.concatenate([q / a, c / q], axis=-1)


def solve_capacitance(params, target_phase, f_c):
    """The capacitance whose reflection phase at `f_c` is nearest each target.

    The series reactance X = wL2 - 1/(wC) rises with C, and the reflection is
    N / D with N = n0 + n1 X and D = d0 + d1 X.  The hits are the real roots X
    in range of Im(exp(-j target) N conj(D)) = 0 whose phase is the target's,
    not its opposite; of two, the one of larger amplitude wins.  With none, the
    range end or phase turning point (a root of Im(N' conj N) |D|^2 -
    Im(D' conj D) |N|^2) nearest in phase is taken.  A candidate whose
    reflection is not finite is dropped.

    `target_phase` (radians, in [-pi, pi)) may be an array.  Returns
    (capacitance, miss) arrays of its shape, the miss being the wrapped phase
    distance in radians; a target is reached if its miss is at most PHASE_TOL.
    Raises SingularCircuitError if a target has no finite candidate.
    """
    target = np.asarray(target_phase, dtype=float)
    if not np.all((-np.pi <= target) & (target < np.pi)):
        raise ValueError("target phase must lie in [-pi, pi)")
    f_c = float(f_c)
    if f_c <= 0.0:
        raise ValueError("design frequency must be positive")

    w = 2.0 * np.pi * f_c
    n0, n1, d0, d1 = _coefficients(params, w)
    # an array even for one target: numpy's scalar arithmetic rounds differently from its
    # array loops, and a target must get the same bits alone as in a batch
    t = np.atleast_1d(target)[..., None]
    with np.errstate(all="ignore"):  # overflow gives non-finite candidates, which are dropped
        ends = w * params.l2 - 1.0 / (w * np.array([params.c_min, params.c_max]))
        an, ad = n1 * np.conj(n0), d1 * np.conj(d0)
        # |D|^2 and |N|^2 in X; np.abs overflows to inf where Python's abs raises
        dd = np.array([np.abs(d1) ** 2, 2.0 * ad.real, np.abs(d0) ** 2])
        nn = np.array([np.abs(n1) ** 2, 2.0 * an.real, np.abs(n0) ** 2])
        turns = _real_roots(*(an.imag * dd - ad.imag * nn)[:, None])
        rot = np.exp(-1j * t)
        hits = _real_roots(*(np.imag(rot * p) for p in (
            n1 * np.conj(d1), n1 * np.conj(d0) + n0 * np.conj(d1), n0 * np.conj(d0))))
        # the candidates: two range ends, two turning points, two hits
        x = np.concatenate([np.broadcast_to(np.concatenate([ends, turns]), t.shape[:-1] + (4,)),
                            hits], axis=-1)
        phi = (n0 + n1 * x) / (d0 + d1 * x)
        amp, miss = np.abs(phi), np.abs(wrap_phase(np.angle(phi) - t))
        is_hit = np.arange(6) >= 4  # a root at the opposite phase is no hit
        keep = (ends[0] <= x) & (x <= ends[1]) & np.isfinite(phi) & ~(is_hit & (miss >= np.pi / 2))
        # any hit (score -1 - amplitude) beats every other candidate (score: its miss)
        score = np.where(keep, np.where(is_hit, -1.0 - amp, miss), np.inf)
        i = np.argmin(score, axis=-1, keepdims=True)
        x, score, miss = (np.take_along_axis(a, i, -1).reshape(target.shape)
                          for a in (x, score, miss))
        i = i.reshape(target.shape)
        if np.any(score == np.inf):
            raise SingularCircuitError(f"reflection is non-finite at f = {f_c!r} Hz")
        cap = np.clip(1.0 / (w * (w * params.l2 - x)), params.c_min, params.c_max)
    return np.select([i == 0, i == 1], [params.c_min, params.c_max], cap), miss
