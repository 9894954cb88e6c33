"""Equivalent-circuit model against hand-computed references."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from irsofdm.circuit import (
    PHASE_TOL,
    CircuitParams,
    SingularCircuitError,
    reflection,
    solve_capacitance,
    sweep_reflection,
    wrap_phase,
)

PARAMS = CircuitParams()
# at this capacitance the lossless branches cancel exactly at 2.4 GHz
LOSSLESS_RESONANCE_C = 1.3742565055655624e-12


def impedance(params, c, f):
    """Reference chip impedance, the two-branch formula jwL1 S / (jwL1 + S)
    with S = R + jX; infinite or NaN where a lossless element resonates."""
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    series = params.r + 1j * (w * params.l2 - 1.0 / (w * np.asarray(c, dtype=float)))
    shunt = 1j * (w * params.l1)
    with np.errstate(all="ignore"):
        return np.divide(shunt * series, shunt + series)  # scalars too give inf, not an error


class TestWrapPhase:
    def test_identity_inside_interval(self):
        np.testing.assert_allclose(wrap_phase(0.0), 0.0, atol=0)
        np.testing.assert_allclose(wrap_phase(1.5), 1.5, atol=0)
        np.testing.assert_allclose(wrap_phase(-3.0), -3.0, atol=0)

    def test_boundary_maps_to_minus_pi(self):
        # half-open convention: +pi and -pi both land on -pi
        assert wrap_phase(np.pi) == -np.pi
        assert wrap_phase(-np.pi) == -np.pi

    def test_multiple_turns(self):
        np.testing.assert_allclose(wrap_phase(3.0 * np.pi), -np.pi)
        np.testing.assert_allclose(wrap_phase(2.5 * np.pi), 0.5 * np.pi)
        np.testing.assert_allclose(wrap_phase(-2.5 * np.pi), -0.5 * np.pi)

    def test_vectorized(self):
        x = np.array([0.0, 2.0 * np.pi, -2.0 * np.pi, np.pi])
        np.testing.assert_allclose(wrap_phase(x), [0.0, 0.0, 0.0, -np.pi], atol=1e-15)


class TestImpedance:
    def test_reference_point_midband(self):
        # evaluated by hand from the two-branch formula at C = 1.0 pF, f = 2.4 GHz
        z = impedance(PARAMS, 1.0e-12, 2.4e9)
        np.testing.assert_allclose(z, 4.3442200245 + 116.1544068518j, rtol=1e-9)

    def test_reference_point_capacitive_side(self):
        z = impedance(PARAMS, 2.35e-12, 2.3e9)
        np.testing.assert_allclose(z, 4.6091917072 - 41.2985965536j, rtol=1e-9)

    def test_huge_resistance_leaves_only_shunt_inductor(self):
        # R -> inf opens the series branch, so Z -> j w L1
        z = impedance(CircuitParams(r=1e9), 1.0e-12, 2.4e9)
        np.testing.assert_allclose(z, 37.69911184307752j, rtol=1e-6)

    def test_positive_real_part_for_lossy_circuit(self):
        rng = np.random.default_rng(11)
        c = rng.uniform(PARAMS.c_min, PARAMS.c_max, 200)
        f = rng.uniform(2.0e9, 3.0e9, 200)
        assert np.all(impedance(PARAMS, c, f).real > 0.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CircuitParams(l1=0.0)
        with pytest.raises(ValueError):
            CircuitParams(r=-0.1)
        with pytest.raises(ValueError):
            CircuitParams(z0=0.0)
        with pytest.raises(ValueError):
            CircuitParams(c_min=2e-12, c_max=1e-12)


class TestReflection:
    @given(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0), st.floats(PARAMS.c_min, PARAMS.c_max), st.floats(1e9, 4e9))
    @example(0.0, 0.0, 0.0, LOSSLESS_RESONANCE_C * (1.0 + 1e-9), 2.4e9)
    def test_matches_the_two_branch_reference(self, r, log2_l1, log2_l2, c, f):
        params = CircuitParams(r=r, l1=PARAMS.l1 * 2.0 ** log2_l1, l2=PARAMS.l2 * 2.0 ** log2_l2)
        z = impedance(params, c, f)
        assume(np.isfinite(z))
        np.testing.assert_allclose(reflection(params, c, f), (z - params.z0) / (z + params.z0),
                                   rtol=1e-12, atol=0.0)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            reflection(PARAMS, 0.0, 2.4e9)
        with pytest.raises(ValueError):
            reflection(PARAMS, 1e-12, -2.4e9)

    def test_overflow_raises_singular_error(self):
        with pytest.raises(SingularCircuitError):
            reflection(PARAMS, 1e-12, 1e308)

    @pytest.mark.parametrize("c", [LOSSLESS_RESONANCE_C, np.array([LOSSLESS_RESONANCE_C])])
    def test_lossless_resonance_reflects_one(self, c):
        # Z is infinite here, but the ratio in X is not
        np.testing.assert_allclose(reflection(CircuitParams(r=0.0), c, 2.4e9), 1.0, atol=1e-12)

    def test_reference_polar_value(self):
        phi = reflection(PARAMS, 1.0e-12, 2.4e9)
        np.testing.assert_allclose(np.abs(phi), 0.9791712030, rtol=1e-9)
        np.testing.assert_allclose(np.angle(phi), 2.5437783305, rtol=1e-9)

    def test_matched_impedance_reflects_nothing(self):
        # find the frequency where Im Z = 0 for a fixed capacitance, then
        # match Z0 to the real impedance there
        c = 1.375e-12
        lo, hi = 2.3e9, 2.5e9
        assert impedance(PARAMS, c, lo).imag > 0 > impedance(PARAMS, c, hi).imag
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if impedance(PARAMS, c, mid).imag > 0:
                lo = mid
            else:
                hi = mid
        z = impedance(PARAMS, c, lo)
        matched = CircuitParams(z0=float(z.real))
        assert abs(reflection(matched, c, lo)) < 1e-6

    def test_passivity_random_sample(self):
        # |phi| <= 1 and Re Z >= 0 for any R >= 0 in band
        rng = np.random.default_rng(23)
        n = 10_000
        c = rng.uniform(PARAMS.c_min, PARAMS.c_max, n)
        f = rng.uniform(2.0e9, 3.0e9, n)
        r = 10.0 ** rng.uniform(-3.0, 3.0, n)
        r[: n // 10] = 0.0
        amps = np.empty(n)
        reals = np.empty(n)
        for i in range(0, n, 1000):
            # one resistance per block; C and f stay fully random
            pars = CircuitParams(r=float(r[i]))
            sl = slice(i, i + 1000)
            phi = reflection(pars, c[sl], f[sl])
            amps[sl] = np.abs(phi)
            reals[sl] = impedance(pars, c[sl], f[sl]).real
        assert np.all(amps <= 1.0 + 1e-9)
        assert np.all(reals >= -1e-12)

    def test_lossless_circuit_is_unit_magnitude(self):
        lossless = CircuitParams(r=0.0)
        rng = np.random.default_rng(7)
        c = rng.uniform(PARAMS.c_min, PARAMS.c_max, 10_000)
        f = rng.uniform(2.0e9, 3.0e9, 10_000)
        amp = np.abs(reflection(lossless, c, f))
        np.testing.assert_allclose(amp, 1.0, atol=1e-12)

    def test_phase_decreases_with_frequency(self):
        f = np.linspace(2.3e9, 2.5e9, 201)
        for c in (0.5e-12, 1.0e-12, 1.375e-12, 2.0e-12, 2.35e-12):
            phase = np.unwrap(np.angle(reflection(PARAMS, c, f)))
            assert np.all(np.diff(phase) < 0.0)


class TestSolveCapacitance:
    F_C = 2.4e9

    def test_zero_phase_capacitance(self):
        c, dist = solve_capacitance(PARAMS, 0.0, self.F_C)
        np.testing.assert_allclose(c, 1.375013e-12, atol=2e-15)
        assert dist <= 1e-9

    @pytest.mark.parametrize("f_c", [2.4e9, 2.45e9])
    def test_lossless_zero_phase_sits_at_resonance(self, f_c):
        c, dist = solve_capacitance(CircuitParams(r=0.0), 0.0, f_c)
        assert dist <= 1e-9
        np.testing.assert_allclose(reflection(CircuitParams(r=0.0), c, f_c), 1.0, atol=1e-9)

    def test_known_targets_round_trip(self):
        # references from a dense scan of the phase curve at 2.4 GHz
        expected = {
            60.0: 1.314835e-12,
            -60.0: 1.432322e-12,
            120.0: 1.183117e-12,
            -120.0: 1.548740e-12,
        }
        caps = []
        for deg, c_ref in expected.items():
            target = np.deg2rad(deg)
            c, dist = solve_capacitance(PARAMS, target, self.F_C)
            np.testing.assert_allclose(c, c_ref, atol=2e-15)
            assert abs(wrap_phase(np.angle(reflection(PARAMS, c, self.F_C)) - target)) <= 1e-9
            assert dist <= 1e-9
            caps.append(c)
        assert len(set(np.round(caps, 18))) == len(caps)

    def test_round_trip_over_reachable_range(self):
        rng = np.random.default_rng(31)
        for target in rng.uniform(-2.95, 2.85, 64):
            c, dist = solve_capacitance(PARAMS, float(target), self.F_C)
            assert PARAMS.c_min <= c <= PARAMS.c_max
            assert dist <= np.deg2rad(1.0)
            achieved = wrap_phase(np.angle(reflection(PARAMS, c, self.F_C)) - target)
            assert abs(achieved) <= np.deg2rad(1.0)

    def test_opposition_phase_unreachable(self):
        # the capacitance range stops about 10 degrees short of +-180
        c, miss = solve_capacitance(PARAMS, -np.pi, self.F_C)
        assert c == PARAMS.c_max
        np.testing.assert_allclose(miss, np.deg2rad(10.0236), atol=1e-3)
        assert miss > PHASE_TOL

    def test_steep_lossy_swing_is_hit(self):
        # at r = 4 ohm the phase crosses -177 deg between two points of a 512-point scan
        params = CircuitParams(r=4.0)
        c, dist = solve_capacitance(params, np.deg2rad(-177.0), self.F_C)
        np.testing.assert_allclose(c, 1.387038e-12, atol=1e-18)
        assert dist <= 1e-9
        assert abs(wrap_phase(np.angle(reflection(params, c, self.F_C))
                              - np.deg2rad(-177.0))) <= 1e-9

    def test_of_two_hits_the_larger_amplitude_wins(self):
        params = CircuitParams(r=4.0)
        target = np.deg2rad(-150.0)
        c, dist = solve_capacitance(params, target, self.F_C)
        np.testing.assert_allclose(c, 1.6716e-12, atol=1e-16)
        np.testing.assert_allclose(abs(reflection(params, c, self.F_C)), 0.728, atol=1e-3)
        assert dist <= 1e-9
        # the other hit reflects far less
        other = 1.3923e-12
        phi = reflection(params, other, self.F_C)
        assert abs(wrap_phase(np.angle(phi) - target)) <= 1e-3
        np.testing.assert_allclose(abs(phi), 0.048, atol=1e-3)

    @given(st.floats(-2.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(2.2e9, 2.6e9),
           st.lists(st.floats(-np.pi, np.pi, exclude_max=True), min_size=1, max_size=8))
    @example(np.log10(4.0), 0.0, 0.0, 2.4e9, [np.deg2rad(-177.0)])
    def test_never_farther_than_a_dense_scan(self, log_r, log2_l1, log2_l2, f_c, targets):
        params = CircuitParams(r=10.0 ** log_r, l1=PARAMS.l1 * 2.0 ** log2_l1,
                               l2=PARAMS.l2 * 2.0 ** log2_l2)
        caps, misses = solve_capacitance(params, targets, f_c)
        assert caps.shape == misses.shape == (len(targets),)
        grid = np.concatenate([np.linspace(params.c_min, params.c_max, 20_001),
                               [params.c_min, params.c_max]])
        scan_phase = np.angle(reflection(params, grid, f_c))
        for target, c, miss in zip(targets, caps, misses):
            # one target alone gives the same bits as in the batch
            assert solve_capacitance(params, target, f_c) == (c, miss)
            assert params.c_min <= c <= params.c_max
            phi = reflection(params, c, f_c)
            assert abs(phi) <= 1.0
            np.testing.assert_allclose(miss, abs(wrap_phase(np.angle(phi) - target)), atol=1e-12)
            assert miss <= np.abs(wrap_phase(scan_phase - target)).min() + 1e-9

    def test_target_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            solve_capacitance(PARAMS, np.pi, self.F_C)
        with pytest.raises(ValueError):
            solve_capacitance(PARAMS, 4.0, self.F_C)


class TestSweepReflection:
    def test_returns_arrays_in_grid_order(self):
        grid = np.linspace(2.3e9, 2.5e9, 5)
        amplitude, phase = sweep_reflection(PARAMS, 1.0e-12, grid)
        phi = np.array([reflection(PARAMS, 1.0e-12, f) for f in grid])
        assert amplitude.shape == phase.shape == grid.shape
        np.testing.assert_allclose(amplitude, np.abs(phi), rtol=1e-12)
        np.testing.assert_allclose(phase, np.angle(phi), rtol=1e-12)

    def test_zero_phase_capacitance_drifts_negative_off_design(self):
        c, _ = solve_capacitance(PARAMS, 0.0, 2.4e9)
        _, (phase_design, phase_off) = sweep_reflection(PARAMS, c, [2.4e9, 2.5e9])
        assert abs(phase_design) <= 1e-6
        # 100 MHz above design the phase has swung far negative
        np.testing.assert_allclose(np.rad2deg(phase_off), -96.300, atol=0.2)
        assert -115.0 <= np.rad2deg(phase_off) <= -85.0

    def test_names_the_frequency_where_the_circuit_is_singular(self):
        # the lossless resonance at 2.4 GHz is finite; both later frequencies overflow
        with pytest.raises(SingularCircuitError,
                           match=r"^reflection is non-finite at f = 5e\+305 Hz$"):
            sweep_reflection(CircuitParams(r=0.0), LOSSLESS_RESONANCE_C, [2.4e9, 5e305, 1e308])

    def test_amplitude_dip_sits_at_the_phase_zero(self):
        c, _ = solve_capacitance(PARAMS, 0.0, 2.4e9)
        grid = np.linspace(2.3e9, 2.5e9, 201)
        amps, phases = sweep_reflection(PARAMS, c, grid)
        f_dip = grid[np.argmin(amps)]
        f_zero = grid[np.argmin(np.abs(phases))]
        assert abs(f_dip - f_zero) <= 10e6
        assert np.all(amps <= 1.0 + 1e-9)
        assert amps.min() < 0.7
