"""The coordinate-descent sweep kernel and the gain/rate primitives it uses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsofdm.kernels import SweepResult, combined_gains, coordinate_descent_sweeps, mean_rate


def random_instance(seed, n_el, n_sc, n_cb, scale=1e-6):
    rng = np.random.default_rng(seed)
    v = scale * (rng.standard_normal((n_el, n_sc)) + 1j * rng.standard_normal((n_el, n_sc)))
    h_d = scale * (rng.standard_normal(n_sc) + 1j * rng.standard_normal(n_sc))
    phi = np.exp(1j * rng.uniform(-np.pi, np.pi, (n_cb, n_sc))) * rng.uniform(0.5, 1.0, (n_cb, n_sc))
    p = rng.uniform(0.0, 2.0, n_sc)
    init = rng.integers(0, n_cb, n_el)
    sigma2 = scale ** 2
    return v, h_d, phi, p, sigma2, init


# up to 24 elements, 16 subcarriers and 8 codebook entries
instances = st.builds(random_instance, st.integers(0, 2 ** 32 - 1), st.integers(0, 24),
                      st.integers(1, 16), st.sampled_from([2, 4, 8]))


class TestNumpyKernel:
    @settings(max_examples=100, deadline=None)
    @given(instances)
    def test_rates_monotone_within_noise(self, args):
        res = coordinate_descent_sweeps(*args)
        assert isinstance(res, SweepResult)
        assert np.all(np.diff(res.update_rates) >= -1e-12)
        assert np.all(np.diff(res.sweep_rates) >= -1e-12)

    @settings(max_examples=100, deadline=None)
    @given(instances)
    def test_fixed_point_on_rerun(self, args):
        v, h_d, phi, p, sigma2, init = args
        res = coordinate_descent_sweeps(v, h_d, phi, p, sigma2, init, max_sweeps=100)
        assert res.converged
        again = coordinate_descent_sweeps(v, h_d, phi, p, sigma2, res.indices)
        assert again.converged
        assert again.sweep_rates.size == 1
        assert np.array_equal(again.indices, res.indices)
        # the sweep objective is the primitives' rate of the returned indices
        g = combined_gains(h_d, v, phi[res.indices])
        assert res.sweep_rates[-1] == mean_rate(p, g.real ** 2 + g.imag ** 2, sigma2)

    def test_no_elements_degenerates_to_direct_link(self):
        v, h_d, phi, p, sigma2, _ = random_instance(5, 0, 6, 8)
        res = coordinate_descent_sweeps(v, h_d, phi, p, sigma2, np.zeros(0, dtype=int))
        assert res.converged
        assert res.update_rates.size == 0
        expect = np.mean(np.log2(1.0 + p * np.abs(h_d) ** 2 / sigma2))
        np.testing.assert_allclose(res.sweep_rates, [expect], rtol=1e-12)

    def test_zero_cascade_breaks_ties_to_lowest_index(self):
        # with v = 0 every codebook entry scores the same
        h_d = np.array([1.0 + 0.0j, 0.5j])
        v = np.zeros((1, 2), dtype=complex)
        phi = np.exp(1j * np.linspace(-np.pi, np.pi, 4, endpoint=False))[:, None] * np.ones(2)
        res = coordinate_descent_sweeps(v, h_d, phi, np.ones(2), 1.0, [3])
        assert res.indices[0] == 0

    def test_input_validation(self):
        v, h_d, phi, p, sigma2, init = random_instance(6, 3, 4, 4)
        with pytest.raises(ValueError):
            coordinate_descent_sweeps(v, h_d[:-1], phi, p, sigma2, init)
        with pytest.raises(ValueError):
            coordinate_descent_sweeps(v, h_d, phi, -p, sigma2, init)
        with pytest.raises(ValueError):
            coordinate_descent_sweeps(v, h_d, phi, p, 0.0, init)
        with pytest.raises(ValueError):
            coordinate_descent_sweeps(v, h_d, phi, p, sigma2, init + 4)
        with pytest.raises(ValueError):
            coordinate_descent_sweeps(v, h_d, phi, p, sigma2, init, max_sweeps=0)

    def test_does_not_mutate_init(self):
        v, h_d, phi, p, sigma2, init = random_instance(7, 5, 4, 8)
        before = init.copy()
        coordinate_descent_sweeps(v, h_d, phi, p, sigma2, init)
        assert np.array_equal(init, before)
