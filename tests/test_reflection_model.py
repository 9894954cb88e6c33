"""Analytical reflection model: curve values, invariants and the fitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsofdm.circuit import wrap_phase
from irsofdm.optimizer import design_tables
from irsofdm.reflection_model import (
    FitSample,
    ModelParams,
    codebook,
    fit_model,
    model_amplitude,
    model_phase,
    model_reflection,
    phase_slope,
    reflection_table,
    resonance_ghz,
)

DEFAULTS = ModelParams()
TWO_THIRDS_PI = 2.0 * np.pi / 3.0


class TestCurveFamilies:
    def test_resonance_at_zero_phase_is_design_frequency(self):
        assert resonance_ghz(DEFAULTS, 0.0) == 2.4

    def test_resonance_reference_points(self):
        np.testing.assert_allclose(resonance_ghz(DEFAULTS, TWO_THIRDS_PI), 2.554830, atol=1e-6)
        np.testing.assert_allclose(resonance_ghz(DEFAULTS, -np.pi), 2.053590, atol=1e-6)

    def test_slope_reference_points(self):
        assert phase_slope(DEFAULTS, 0.0) == 11.02
        np.testing.assert_allclose(phase_slope(DEFAULTS, TWO_THIRDS_PI), 9.449204, atol=1e-6)
        np.testing.assert_allclose(phase_slope(DEFAULTS, -np.pi), 13.376194, atol=1e-6)

    def test_slope_positive_across_domain(self):
        x = np.linspace(-np.pi, np.pi, 101)
        assert np.all(phase_slope(DEFAULTS, x) > 0.0)

    def test_center_phase_domain_enforced(self):
        with pytest.raises(ValueError):
            resonance_ghz(DEFAULTS, 3.5)
        with pytest.raises(ValueError):
            model_phase(DEFAULTS, np.array([0.0, -3.2]), 2.4e9)


class TestModelPhase:
    def test_zero_phase_at_design_frequency_is_exact(self):
        assert model_phase(DEFAULTS, 0.0, 2.4e9) == 0.0

    def test_reference_point_off_design(self):
        np.testing.assert_allclose(model_phase(DEFAULTS, 0.0, 2.5e9), -1.667771, atol=1e-6)

    def test_reference_point_off_center_phase(self):
        np.testing.assert_allclose(model_phase(DEFAULTS, TWO_THIRDS_PI, 2.4e9), 1.942434, atol=1e-6)

    def test_strictly_inside_open_interval(self):
        x = codebook(3).values
        f = np.linspace(2.2e9, 2.6e9, 101)
        theta = model_phase(DEFAULTS, x[:, None], f[None, :])
        assert np.all(np.abs(theta) < np.pi)

    def test_decreasing_in_frequency(self):
        f = np.linspace(2.2e9, 2.6e9, 401)
        for x in codebook(3).values:
            assert np.all(np.diff(model_phase(DEFAULTS, x, f)) < 0.0)

    def test_center_fidelity_over_codebook(self):
        # worst case sits at the -pi entry where the tan term saturates
        devs = np.array([abs(float(wrap_phase(model_phase(DEFAULTS, x, 2.4e9) - x)))
                         for x in codebook(3).values])
        np.testing.assert_allclose(devs.max(), 0.4251, atol=2e-3)
        others = devs[codebook(3).values > -np.pi]
        assert np.all(others <= 0.26)


class TestModelAmplitude:
    def test_reference_points(self):
        assert model_amplitude(DEFAULTS, 0.0, 2.4e9) == 0.5875
        np.testing.assert_allclose(model_amplitude(DEFAULTS, 0.0, 2.5e9), 0.793750, atol=1e-6)
        np.testing.assert_allclose(model_amplitude(DEFAULTS, 0.0, 3.4e9), 0.995916, atol=1e-6)

    def test_bounded_in_unit_interval(self):
        x = codebook(3).values
        f = np.linspace(2.2e9, 2.6e9, 101)
        a = model_amplitude(DEFAULTS, x[:, None], f[None, :])
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_dip_sits_at_the_resonance(self):
        f = np.linspace(2.2e9, 2.6e9, 401)
        for x in codebook(3).values:
            res = np.clip(resonance_ghz(DEFAULTS, x) * 1e9, f[0], f[-1])
            i_dip = int(np.argmin(model_amplitude(DEFAULTS, x, f)))
            i_res = int(np.argmin(np.abs(f - res)))
            assert abs(i_dip - i_res) <= 1

    def test_numerator_positivity_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(alpha4=1.0, beta3=0.5)
        with pytest.raises(ValueError):
            ModelParams(beta2=np.nan)

    def test_degenerate_numerator_gives_unit_reflection(self):
        flat = ModelParams(alpha4=0.0, beta3=1e-9)
        phi = model_reflection(flat, 0.3, 2.45e9)
        assert abs(abs(phi) - 1.0) <= 1e-9


class TestModelReflection:
    def test_polar_composition(self):
        phi = model_reflection(DEFAULTS, 0.0, 2.5e9)
        np.testing.assert_allclose(abs(phi), 0.793750, atol=1e-6)
        np.testing.assert_allclose(np.angle(phi), -1.667771, atol=1e-6)

    def test_design_frequency_zero_phase_is_real(self):
        assert model_reflection(DEFAULTS, 0.0, 2.4e9) == 0.5875 + 0.0j

    def test_table_matches_scalar_calls_exactly(self):
        cb = codebook(3)
        freqs = np.linspace(2.35e9, 2.45e9, 16)
        table = reflection_table(DEFAULTS, cb, freqs)
        assert table.shape == (8, 16)
        for s, x in enumerate(cb.values):
            for k, f in enumerate(freqs):
                assert table[s, k] == model_reflection(DEFAULTS, float(x), float(f))


@st.composite
def valid_models(draw):
    """ModelParams with coefficients in [-100, 100] and an amplitude numerator
    a4 x + b3 that stays positive on [-pi, pi]."""
    coef = st.floats(-100.0, 100.0)
    alpha1, alpha2, alpha3, beta1, beta2 = (draw(coef) for _ in range(5))
    alpha4 = draw(st.floats(-10.0, 10.0))
    beta3 = abs(alpha4) * np.pi + draw(st.floats(1e-3, 100.0))
    return ModelParams(alpha1, alpha2, alpha3, alpha4, beta1, beta2, beta3)


positive_frequencies = st.floats(0.0, 1e12, exclude_min=True)


class TestPassivity:
    @settings(max_examples=100, deadline=None)
    @given(valid_models(), st.floats(-np.pi, np.pi), positive_frequencies)
    def test_model_reflection_is_passive(self, params, x, f):
        assert abs(model_reflection(params, x, f)) <= 1.0 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(valid_models(), st.integers(1, 8),
           st.lists(positive_frequencies, min_size=1, max_size=16))
    def test_design_tables_are_passive_and_ideal_is_unit(self, params, bits, freqs):
        practical, ideal = design_tables(params, codebook(bits), np.array(freqs))
        assert practical.shape == ideal.shape == (2 ** bits, len(freqs))
        assert np.all(np.abs(practical) <= 1.0 + 1e-12)
        assert np.all(np.abs(np.abs(ideal) - 1.0) <= 1e-15)


class TestCodebook:
    def test_three_bit_values(self):
        cb = codebook(3)
        np.testing.assert_allclose(cb.values, 2.0 * np.pi * np.arange(8) / 8.0 - np.pi)
        assert cb.size == 8

    def test_one_and_two_bits(self):
        np.testing.assert_allclose(codebook(1).values, [-np.pi, 0.0])
        np.testing.assert_allclose(codebook(2).values, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_values_ascending_inside_interval(self):
        for bits in range(1, 9):
            v = codebook(bits).values
            assert np.all(np.diff(v) > 0.0)
            assert v[0] == -np.pi and v[-1] < np.pi

    def test_invalid_bit_widths(self):
        with pytest.raises(ValueError):
            codebook(0)
        with pytest.raises(ValueError):
            codebook(9)


def _grid_samples(params, phases, freqs):
    out = []
    for x in phases:
        ph = model_phase(params, x, freqs)
        am = model_amplitude(params, x, freqs)
        out += [FitSample(float(x), float(f), float(p), float(a))
                for f, p, a in zip(freqs, ph, am)]
    return out


class TestFitSamples:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitSample(0.0, 2.4e9, 0.0, 1.2)
        with pytest.raises(ValueError):
            FitSample(4.0, 2.4e9, 0.0, 0.5)
        with pytest.raises(ValueError):
            FitSample(0.0, -2.4e9, 0.0, 0.5)


class TestFitModel:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_model([])
        few = _grid_samples(DEFAULTS, [0.0, 1.0], np.linspace(2.3e9, 2.5e9, 30))
        with pytest.raises(ValueError):
            fit_model(few)  # only two center phases

    def test_recovers_coefficients_from_perturbed_init(self):
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        samples = _grid_samples(DEFAULTS, np.deg2rad([-90.0, 0.0, 90.0]), freqs)
        rng = np.random.default_rng(2)
        init = ModelParams.from_array(DEFAULTS.as_array() * (1 + rng.uniform(-0.1, 0.1, 7)))
        fitted, report = fit_model(samples, init)
        assert report.objective_final <= report.objective_init
        assert np.all(report.max_phase_error <= 1e-3)
        assert np.all(report.max_amplitude_error <= 1e-3)
        assert not report.no_improvement

    def test_perfect_init_returns_unchanged_with_flag(self):
        samples = _grid_samples(DEFAULTS, [-1.5, 0.0, 1.5], np.linspace(2.3e9, 2.5e9, 25))
        fitted, report = fit_model(samples, DEFAULTS)
        assert fitted == DEFAULTS
        assert report.no_improvement
        assert report.objective_final == report.objective_init

    def test_deterministic_for_fixed_seed(self):
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        samples = _grid_samples(DEFAULTS, [-1.0, 0.5, 2.0], freqs)
        init = ModelParams(alpha1=0.25, beta2=10.0)
        a, _ = fit_model(samples, init, seed=9)
        b, _ = fit_model(samples, init, seed=9)
        assert a == b

    def test_report_curves_are_sorted_unique_centers(self):
        phases = [1.0, -1.0, 0.0]
        samples = _grid_samples(DEFAULTS, phases, np.linspace(2.3e9, 2.5e9, 20))
        _, report = fit_model(samples, DEFAULTS)
        np.testing.assert_allclose(report.center_phases, sorted(phases))
