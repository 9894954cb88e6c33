"""Analytical reflection model: curve values, invariants and the fitter."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsofdm.circuit import wrap_phase
from irsofdm.optimizer import design_tables
from irsofdm.reflection_model import (
    ModelParams,
    _curves,
    _fit_residuals,
    _validity_margin,
    codebook,
    curve_errors,
    fit_model,
    model_response,
    reflection_table,
)

DEFAULTS = ModelParams()
TWO_THIRDS_PI = 2.0 * np.pi / 3.0


def _f1(x):
    """Resonance location F1 (GHz) of the default model at target phase x."""
    return _curves(DEFAULTS.as_array(), x, 2.4e9)[0]


def _f2(x):
    """Phase slope F2 of the default model at target phase x."""
    return _curves(DEFAULTS.as_array(), x, 2.4e9)[1]


def _reflection(params, x, f):
    """Complex reflection A * exp(j * theta) of the model, as `reflection_table`
    forms it."""
    a, t = model_response(params, x, f)
    return a * np.exp(1j * t)


class TestCurveFamilies:
    def test_resonance_at_zero_phase_is_design_frequency(self):
        assert _f1(0.0) == 2.4

    def test_resonance_reference_points(self):
        np.testing.assert_allclose(_f1(TWO_THIRDS_PI), 2.554830, atol=1e-6)
        np.testing.assert_allclose(_f1(-np.pi), 2.053590, atol=1e-6)

    def test_slope_reference_points(self):
        assert _f2(0.0) == 11.02
        np.testing.assert_allclose(_f2(TWO_THIRDS_PI), 9.449204, atol=1e-6)
        np.testing.assert_allclose(_f2(-np.pi), 13.376194, atol=1e-6)

    def test_slope_positive_across_domain(self):
        x = np.linspace(-np.pi, np.pi, 101)
        assert np.all(_f2(x) > 0.0)

    def test_center_phase_domain_enforced(self):
        with pytest.raises(ValueError):
            _f1(3.5)
        with pytest.raises(ValueError):
            model_response(DEFAULTS, np.array([0.0, -3.2]), 2.4e9)


class TestModelPhase:
    def test_zero_phase_at_design_frequency_is_exact(self):
        assert model_response(DEFAULTS, 0.0, 2.4e9)[1] == 0.0

    def test_reference_point_off_design(self):
        np.testing.assert_allclose(model_response(DEFAULTS, 0.0, 2.5e9)[1], -1.667771, atol=1e-6)

    def test_reference_point_off_center_phase(self):
        np.testing.assert_allclose(model_response(DEFAULTS, TWO_THIRDS_PI, 2.4e9)[1], 1.942434, atol=1e-6)

    def test_strictly_inside_open_interval(self):
        x = codebook(3).values
        f = np.linspace(2.2e9, 2.6e9, 101)
        _, theta = model_response(DEFAULTS, x[:, None], f[None, :])
        assert np.all(np.abs(theta) < np.pi)

    def test_decreasing_in_frequency(self):
        f = np.linspace(2.2e9, 2.6e9, 401)
        for x in codebook(3).values:
            assert np.all(np.diff(model_response(DEFAULTS, x, f)[1]) < 0.0)

    def test_center_fidelity_over_codebook(self):
        # worst case sits at the -pi entry where the tan term saturates
        devs = np.array([abs(float(wrap_phase(model_response(DEFAULTS, x, 2.4e9)[1] - x)))
                         for x in codebook(3).values])
        np.testing.assert_allclose(devs.max(), 0.4251, atol=2e-3)
        others = devs[codebook(3).values > -np.pi]
        assert np.all(others <= 0.26)


class TestModelAmplitude:
    def test_reference_points(self):
        assert model_response(DEFAULTS, 0.0, 2.4e9)[0] == 0.5875
        np.testing.assert_allclose(model_response(DEFAULTS, 0.0, 2.5e9)[0], 0.793750, atol=1e-6)
        np.testing.assert_allclose(model_response(DEFAULTS, 0.0, 3.4e9)[0], 0.995916, atol=1e-6)

    def test_bounded_in_unit_interval(self):
        x = codebook(3).values
        f = np.linspace(2.2e9, 2.6e9, 101)
        a, _ = model_response(DEFAULTS, x[:, None], f[None, :])
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_dip_sits_at_the_resonance(self):
        f = np.linspace(2.2e9, 2.6e9, 401)
        for x in codebook(3).values:
            res = np.clip(_f1(x) * 1e9, f[0], f[-1])
            i_dip = int(np.argmin(model_response(DEFAULTS, x, f)[0]))
            i_res = int(np.argmin(np.abs(f - res)))
            assert abs(i_dip - i_res) <= 1

    def test_numerator_positivity_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(alpha4=1.0, beta3=0.5)
        with pytest.raises(ValueError):
            ModelParams(beta2=np.nan)

    def test_degenerate_numerator_gives_unit_reflection(self):
        flat = ModelParams(alpha4=0.0, beta3=1e-9)
        phi = _reflection(flat, 0.3, 2.45e9)
        assert abs(abs(phi) - 1.0) <= 1e-9


class TestModelReflection:
    def test_polar_composition(self):
        phi = _reflection(DEFAULTS, 0.0, 2.5e9)
        np.testing.assert_allclose(abs(phi), 0.793750, atol=1e-6)
        np.testing.assert_allclose(np.angle(phi), -1.667771, atol=1e-6)

    def test_design_frequency_zero_phase_is_real(self):
        assert _reflection(DEFAULTS, 0.0, 2.4e9) == 0.5875 + 0.0j

    def test_table_matches_scalar_calls_exactly(self):
        cb = codebook(3)
        freqs = np.linspace(2.35e9, 2.45e9, 16)
        table = reflection_table(DEFAULTS, cb, freqs)
        assert table.shape == (8, 16)
        for s, x in enumerate(cb.values):
            for k, f in enumerate(freqs):
                assert table[s, k] == _reflection(DEFAULTS, float(x), float(f))


class TestCurveErrors:
    def test_grid_gives_the_per_row_maxima(self):
        rng = np.random.default_rng(5)
        amp, ref_amp = rng.uniform(0.0, 1.0, (2, 4, 9))
        phase, ref_phase = rng.uniform(-np.pi, np.pi, (2, 4, 9))
        amp_err, phase_err = curve_errors(amp, phase, ref_amp, ref_phase)
        assert amp_err.shape == phase_err.shape == (4,)
        for t in range(4):
            assert amp_err[t] == np.max(np.abs(amp[t] - ref_amp[t]))
            assert phase_err[t] == np.max(np.abs(wrap_phase(phase[t] - ref_phase[t])))
            assert curve_errors(amp[t], phase[t], ref_amp[t], ref_phase[t]) == (amp_err[t],
                                                                                 phase_err[t])

    def test_phase_error_is_wrapped(self):
        # 3.1 and -3.1 rad lie 2 pi - 6.2 rad apart across the branch cut, not 6.2
        _, phase_err = curve_errors(np.ones(1), np.array([3.1]), np.ones(1), np.array([-3.1]))
        assert phase_err == pytest.approx(2.0 * np.pi - 6.2)


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
    def test_model_response_is_passive(self, params, x, f):
        assert abs(_reflection(params, x, f)) <= 1.0 + 1e-12

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
    """`fit_model` inputs (center phase, frequency, phase, amplitude) of the
    model's curves at `phases` over `freqs`, in the (T, F) sweep form."""
    x = np.asarray(phases, dtype=float)[:, None]
    amplitude, phase = model_response(params, x, freqs[None, :])
    return x, freqs[None, :], phase, amplitude


def _corrupted(column, value):
    """The 63 valid samples of a 3 x 21 grid as four (3, 21) arrays, with one
    entry of input `column` (0 center phase, 1 frequency, 2 phase,
    3 amplitude) set to `value`."""
    grid = _grid_samples(DEFAULTS, [-1.0, 0.0, 1.0], np.linspace(2.3e9, 2.5e9, 21))
    samples = [np.array(a) for a in np.broadcast_arrays(*grid)]
    samples[column][1, 4] = value
    return samples


class TestFitModel:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_model([], [], [], [])
        few = _grid_samples(DEFAULTS, [0.0, 1.0], np.linspace(2.3e9, 2.5e9, 30))
        with pytest.raises(ValueError):
            fit_model(*few)  # only two center phases

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError, match="amplitude"):
            fit_model(*_corrupted(3, 1.2))
        with pytest.raises(ValueError, match="phases"):
            fit_model(*_corrupted(0, 4.0))
        with pytest.raises(ValueError, match="frequency"):
            fit_model(*_corrupted(1, -2.4e9))

    @pytest.mark.parametrize("column, value", [
        (1, np.nan),  # abs(nan) > pi and nan <= 0 are both False
        (2, np.nan),
        (0, np.nan),  # a NaN curve would select no samples in the report
        (1, np.inf),
    ])
    def test_rejects_non_finite_samples(self, column, value):
        with pytest.raises(ValueError, match="finite"):
            fit_model(*_corrupted(column, value))

    def test_recovers_coefficients_from_perturbed_init(self):
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        samples = _grid_samples(DEFAULTS, np.deg2rad([-90.0, 0.0, 90.0]), freqs)
        rng = np.random.default_rng(2)
        init = ModelParams.from_array(DEFAULTS.as_array() * (1 + rng.uniform(-0.1, 0.1, 7)))
        fitted, report = fit_model(*samples, init)
        assert report.objective_final <= report.objective_init
        assert np.all(report.max_phase_error <= 1e-3)
        assert np.all(report.max_amplitude_error <= 1e-3)
        assert not report.no_improvement

    def test_recovers_coefficients_from_most_perturbed_inits(self):
        # 36 of these 40 starts reached the generating curves with Nelder-Mead
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        samples = _grid_samples(DEFAULTS, np.deg2rad([-90.0, 0.0, 90.0]), freqs)
        rng = np.random.default_rng(0)
        recovered = 0
        for _ in range(40):
            init = ModelParams.from_array(DEFAULTS.as_array() * (1 + rng.uniform(-0.1, 0.1, 7)))
            _, report = fit_model(*samples, init)
            recovered += bool(np.all(report.max_phase_error <= 1e-3)
                              and np.all(report.max_amplitude_error <= 1e-3))
        assert recovered >= 36

    @settings(max_examples=20, deadline=None)
    @given(valid_models())
    def test_any_valid_start_fits_inside_the_validity_region(self, init):
        # far starts take rejected steps, out of the region or uphill
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        samples = _grid_samples(DEFAULTS, np.deg2rad([-90.0, 0.0, 90.0]), freqs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, report = fit_model(*samples, init)
        assert _validity_margin(fitted.as_array()) > 0.0
        assert report.objective_final <= report.objective_init
        assert np.all(np.isfinite([report.objective_init, report.objective_final]))
        assert np.all(np.isfinite(report.max_phase_error))
        assert np.all(np.isfinite(report.max_amplitude_error))

    def test_perfect_init_returns_unchanged_with_flag(self):
        samples = _grid_samples(DEFAULTS, [-1.5, 0.0, 1.5], np.linspace(2.3e9, 2.5e9, 25))
        fitted, report = fit_model(*samples, DEFAULTS)
        assert fitted == DEFAULTS
        assert report.no_improvement
        assert report.objective_final == report.objective_init

    def test_deterministic_for_fixed_seed(self):
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        samples = _grid_samples(DEFAULTS, [-1.0, 0.5, 2.0], freqs)
        init = ModelParams(alpha1=0.25, beta2=10.0)
        a, _ = fit_model(*samples, init)
        b, _ = fit_model(*samples, init)
        assert a == b

    @settings(max_examples=100, deadline=None)
    @given(valid_models(), st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4),
           st.lists(positive_frequencies, min_size=1, max_size=8))
    def test_objective_is_zero_at_the_generating_coefficients(self, params, centers, freqs):
        # the fit scores the same model code that generated the samples
        x, f = (a.ravel() for a in np.meshgrid(centers, freqs))
        amp, phase = model_response(params, x, f)
        assert np.all(_fit_residuals(params.as_array(), x, f, phase, amp) == 0.0)

    def test_report_curves_are_sorted_unique_centers(self):
        phases = [1.0, -1.0, 0.0]
        samples = _grid_samples(DEFAULTS, phases, np.linspace(2.3e9, 2.5e9, 20))
        _, report = fit_model(*samples, DEFAULTS)
        np.testing.assert_allclose(report.center_phases, sorted(phases))

    def test_sweep_form_fits_as_the_flat_samples(self):
        # a (T, F) sweep and its C-order ravel are the same 63 samples
        centers = np.array([-1.0, 0.5, 2.0])
        freqs = np.linspace(2.3e9, 2.5e9, 21)
        amplitude, phase = model_response(DEFAULTS, centers[:, None], freqs[None, :])
        init = ModelParams(alpha1=0.25, beta2=10.0)
        swept, _ = fit_model(centers[:, None], freqs[None, :], phase, amplitude, init)
        x, f = (a.ravel() for a in np.meshgrid(centers, freqs, indexing="ij"))
        flat, _ = fit_model(x, f, phase.ravel(), amplitude.ravel(), init)
        assert swept.as_array().tobytes() == flat.as_array().tobytes()
