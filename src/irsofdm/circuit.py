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


class UnreachablePhaseError(ValueError):
    """No capacitance in range realizes the target phase within tolerance.

    Carries the best capacitance found and its wrapped phase distance so the
    caller can decide whether the miss is acceptable.
    """

    def __init__(self, message, best_capacitance, achieved_distance):
        super().__init__(message)
        self.best_capacitance = best_capacitance
        self.achieved_distance = achieved_distance


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


# the largest wrapped phase miss (radians) solve_capacitance returns instead of raising
_PHASE_TOL = np.deg2rad(1.0)


def solve_capacitance(params, target_phase, f_c):
    """Find the capacitance whose reflection phase at `f_c` hits `target_phase`.

    The series reactance X = wL2 - 1/(wC) rises with C, and the reflection is
    N / D with N = n0 + n1 X and D = d0 + d1 X.  The hits are the real roots X
    of Im(exp(-j target) N conj(D)) = 0 with a positive real part; of two in
    the range, the one of larger amplitude wins.  With none, the range end or
    phase turning point (a root of Im(N' conj N) |D|^2 - Im(D' conj D) |N|^2)
    nearest in phase is taken; it is returned if it misses by at most 1 degree.

    Returns (capacitance, achieved_distance) with the distance in radians, or
    raises UnreachablePhaseError carrying both.
    """
    target_phase = float(target_phase)
    if not (-np.pi <= target_phase < np.pi):
        raise ValueError("target phase must lie in [-pi, pi)")
    f_c = float(f_c)
    if f_c <= 0.0:
        raise ValueError("design frequency must be positive")

    w = 2.0 * np.pi * f_c
    n0, n1, d0, d1 = _coefficients(params, w)

    def roots_of(c):  # a quadratic with a non-finite coefficient offers none
        return np.roots(c) if np.isfinite(c).all() else np.empty(0)

    def caps_of(roots):  # capacitances of the real roots in range, clipped against rounding
        x = roots[np.isreal(roots)].real
        x = x[(x_min <= x) & (x <= x_max)]
        return np.clip(1.0 / (w * (w * params.l2 - x)), params.c_min, params.c_max)

    with np.errstate(all="ignore"):  # overflow leaves no roots, so the range ends are tried
        x_min, x_max = w * params.l2 - 1.0 / (w * np.array([params.c_min, params.c_max]))
        p = np.exp(-1j * target_phase) * np.array(
            [n1 * np.conj(d1), n1 * np.conj(d0) + n0 * np.conj(d1), n0 * np.conj(d0)])
        roots = roots_of(p.imag)
        caps = caps_of(roots[np.polyval(p, roots.real).real > 0.0])
        hit = caps.size > 0
        if not hit:
            an, ad = n1 * np.conj(n0), d1 * np.conj(d0)
            # |D|^2 and |N|^2 in X; a numpy square overflows to inf, not OverflowError
            dd = np.array([np.float64(abs(d1)) ** 2, 2.0 * ad.real, np.float64(abs(d0)) ** 2])
            nn = np.array([np.float64(abs(n1)) ** 2, 2.0 * an.real, np.float64(abs(n0)) ** 2])
            turns = roots_of(an.imag * dd - ad.imag * nn)
            caps = np.concatenate([[params.c_min, params.c_max], caps_of(turns)])
    amp, phase = sweep_reflection(params, caps, f_c)
    dist = np.abs(wrap_phase(phase - target_phase))
    i = int(np.argmax(amp) if hit else np.argmin(dist))
    best_c, best_d = float(caps[i]), float(dist[i])

    if best_d > _PHASE_TOL:
        raise UnreachablePhaseError(
            f"target phase {target_phase:.6f} rad unreachable at f = {f_c:.4g} Hz; "
            f"best C = {best_c:.6g} F misses by {np.rad2deg(best_d):.3f} deg",
            best_capacitance=best_c, achieved_distance=best_d)
    return best_c, best_d
