"""The coordinate-descent sweep kernel and the gain/rate primitives it uses."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsofdm import optimizer
from irsofdm.channel import SystemConfig, generate_channels
from irsofdm.config import ExperimentConfig, load_config
from irsofdm.experiments import drop_channel
from irsofdm.kernels import SweepResult, combined_gains, coordinate_descent_sweeps, mean_rate
from irsofdm.reflection_model import ModelParams, codebook, model_response, reflection_table


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


def tie_up(draw, seed, n_el, n_sc, n_cb):
    """A random instance, with duplicated codebook rows and zero cascade rows
    drawn in, so that many candidates tie exactly; plus a sweep cap."""
    v, h_d, phi, p, sigma2, init = random_instance(seed, n_el, n_sc, n_cb)
    rng = np.random.default_rng(seed + 1)
    if draw(st.booleans()):
        phi = phi[rng.integers(0, n_cb, n_cb)]  # some entries repeat, some vanish
    if draw(st.booleans()):
        v[rng.random(n_el) < 0.3] = 0.0  # such an element scores every entry the same
    max_sweeps = draw(st.integers(1, 3) | st.just(20))
    return v, h_d, phi, p, sigma2, init, max_sweeps


@st.composite
def tied_instances(draw):
    """Tied instances up to 80 elements (several scoring windows), S * K <= 128."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_el, n_cb = draw(st.integers(0, 80)), draw(st.sampled_from([2, 4, 8]))
    return tie_up(draw, seed, n_el, draw(st.integers(1, 16)), n_cb)


@st.composite
def wide_instances(draw):
    """Tied instances with S * K from 136 to 49,152, where the kernel scores
    16-element windows; N is at most 60 and keeps the (N, S, K) table within
    2^20 values."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_cb = draw(st.sampled_from([8, 16, 256]))
    n_sc = draw(st.integers(128 // n_cb + 1, 192 if n_cb == 256 else 64))
    n_el = draw(st.integers(0, min(60, 2 ** 20 // (n_cb * n_sc))))
    return tie_up(draw, seed, n_el, n_sc, n_cb)


def reference_sweeps(v, h_d, phi, p, sigma2, init, max_sweeps):
    """Plain one-element-at-a-time coordinate descent.  An element that keeps
    its entry leaves the field untouched; a mover adds its new row."""
    indices = np.array(init, dtype=np.int64)
    vphi = v[:, None, :] * phi
    base = combined_gains(h_d, v, phi[indices])
    update_rates, sweep_rates = [], []
    for _ in range(max_sweeps):
        changed = False
        for n in range(v.shape[0]):
            partial = base - vphi[n, indices[n]]
            cand = partial + vphi[n]
            rates = mean_rate(p, cand.real ** 2 + cand.imag ** 2, sigma2)
            s = int(rates.argmax())
            if s != indices[n]:
                indices[n] = s
                base = partial + vphi[n, s]
                changed = True
            update_rates.append(float(rates[s]))
        base = combined_gains(h_d, v, phi[indices])
        sweep_rates.append(float(mean_rate(p, base.real ** 2 + base.imag ** 2, sigma2)))
        if not changed:
            break
    # one array pass per element visit
    visits = len(update_rates)
    return SweepResult(indices, np.asarray(update_rates), np.asarray(sweep_rates), not changed,
                       visits, visits, base.real ** 2 + base.imag ** 2)


class TestCombinedGains:
    def test_zero_reflection_leaves_direct_link(self):
        v, h_d, _, _, _, _ = random_instance(11, 3, 4, 2)
        assert np.array_equal(combined_gains(h_d, v, np.zeros((3, 4))), h_d)

    def test_single_element_unit_links(self):
        # zero direct link and unit cascade: the gain is the element's reflection
        a, t = model_response(ModelParams(), codebook(3).values[5], 2.4e9)
        phi = a * np.exp(1j * t)
        got = combined_gains(np.zeros(1, dtype=complex), np.ones((1, 1), dtype=complex),
                             np.full((1, 1), phi))
        assert got[0] == phi

    def test_matches_dense_recomputation(self):
        ch = generate_channels(SystemConfig(n_elements=4, n_subcarriers=6), 0.8, 12)
        cb = codebook(3)
        idx = np.random.default_rng(3).integers(0, cb.size, 4)
        phi = reflection_table(ModelParams(), cb, ch.frequencies)[idx]
        got = combined_gains(ch.h_direct, ch.cascade, phi)
        for k in range(6):
            want = complex(ch.h_direct[k])
            for n in range(4):
                want += np.conj(ch.h_irs_user[n, k]) * phi[n, k] * ch.g_ap_irs[n, k]
            np.testing.assert_allclose(got[k], want, rtol=1e-12)


class TestMeanRate:
    def test_zero_power_is_zero_rate(self):
        assert mean_rate(np.zeros(4), np.full(4, 3.0), 1e-14) == 0.0

    def test_unit_snr_is_one_bit(self):
        # p |h|^2 / sigma2 = 1
        assert mean_rate(np.array([0.25]), np.array([4.0]), 1.0) == 1.0

    def test_averages_over_subcarriers(self):
        np.testing.assert_allclose(mean_rate(np.ones(2), np.array([1.0, 3.0]), 1.0), 1.5,
                                   rtol=1e-12)


class TestNumpyKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tied_instances(), wide_instances()))
    def test_bit_equal_to_one_element_loop(self, args):
        # guess-and-verify scoring must reproduce the plain loop exactly, ties
        # included, in 32- and 16-element windows
        got = coordinate_descent_sweeps(*args[:-1], max_sweeps=args[-1])
        want = reference_sweeps(*args)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.update_rates, want.update_rates)
        assert np.array_equal(got.sweep_rates, want.sweep_rates)
        assert got.converged == want.converged
        assert np.array_equal(got.gains, want.gains)
        # a pass scores at most one window of rows
        assert got.rows_scored <= got.passes * (32 if args[2].size <= 128 else 16)

    @pytest.mark.parametrize("n_cb, n_sc, width", [(8, 16, 32), (2, 64, 32), (8, 17, 16),
                                                   (256, 192, 16)])
    def test_window_follows_row_width(self, n_cb, n_sc, width):
        # a zero cascade keeps every element on entry 0, so every guess holds
        # and each pass accepts a whole window
        n_el = 40
        res = coordinate_descent_sweeps(np.zeros((n_el, n_sc), dtype=complex),
                                        np.ones(n_sc, dtype=complex),
                                        np.ones((n_cb, n_sc), dtype=complex), np.ones(n_sc), 1.0,
                                        np.zeros(n_el, dtype=np.int64), max_sweeps=1)
        assert (res.passes, res.rows_scored) == (-(-n_el // width), n_el)

    def test_stale_guesses_are_rescored(self):
        # element 0 outweighs the other 39 together and is the only one off its
        # fixed-point entry.  The first window scores elements 1..31 against the
        # field before element 0 moves, where each wants to flip, so they are
        # all guessed to move; after the move each keeps its entry instead.
        n_el = 40
        v = np.exp(0.3j) * np.linspace(0.9, 1.1, n_el)[:, None]
        v[0] *= 100.0
        phi = np.array([[1.0 + 0j], [-1.0 + 0j]])
        init = np.ones(n_el, dtype=np.int64)
        init[0] = 0
        args = (v, np.zeros(1, dtype=complex), phi, np.ones(1), 1.0, init)
        got = coordinate_descent_sweeps(*args)
        want = reference_sweeps(*args, max_sweeps=20)
        assert np.array_equal(got.indices, np.ones(n_el))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.update_rates, want.update_rates)
        assert np.array_equal(got.sweep_rates, want.sweep_rates)
        assert got.converged and want.converged
        # sweep 1 scores windows 0..31 (element 0 moves), 1..32 (element 1's
        # guess is wrong), 2..33 and 34..39; sweep 2 scores 0..31 and 32..39
        assert (got.passes, got.rows_scored) == (6, 142)

    def test_stale_guesses_are_rescored_in_16_element_windows(self):
        # the instance above on 64 equal subcarriers and an 8-entry codebook
        # that repeats its two entries: S * K = 512, so the window is 16
        n_el = 40
        v = np.exp(0.3j) * np.linspace(0.9, 1.1, n_el)[:, None] * np.ones(64)
        v[0] *= 100.0
        phi = np.tile([[1.0 + 0j], [-1.0 + 0j]], (4, 64))
        init = np.ones(n_el, dtype=np.int64)
        init[0] = 0
        args = (v, np.zeros(64, dtype=complex), phi, np.ones(64), 1.0, init)
        got = coordinate_descent_sweeps(*args)
        want = reference_sweeps(*args, max_sweeps=20)
        assert np.array_equal(got.indices, np.ones(n_el))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.update_rates, want.update_rates)
        assert np.array_equal(got.sweep_rates, want.sweep_rates)
        assert got.converged and want.converged
        # sweep 1 scores windows 0..15 (element 0 moves), 1..16 (element 1's
        # guess is wrong), 2..17 (element 2's), 18..33 and 34..39; sweep 2
        # scores 0..15, 16..31 and 32..39
        assert (got.passes, got.rows_scored) == (8, 110)

    @settings(max_examples=50, deadline=None)
    @given(tied_instances())
    def test_work_counts_are_exact_and_repeat(self, args):
        got = coordinate_descent_sweeps(*args[:-1], max_sweeps=args[-1])
        again = coordinate_descent_sweeps(*args[:-1], max_sweeps=args[-1])
        # every element visit is scored at least once, and one pass scores a row or more
        assert got.rows_scored >= got.update_rates.size
        assert got.passes <= got.rows_scored
        assert (got.passes == 0) == (got.update_rates.size == 0)
        assert (got.passes, got.rows_scored) == (again.passes, again.rows_scored)

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

    def test_does_not_mutate_init(self):
        v, h_d, phi, p, sigma2, init = random_instance(7, 5, 4, 8)
        before = init.copy()
        coordinate_descent_sweeps(v, h_d, phi, p, sigma2, init)
        assert np.array_equal(init, before)


PAPER_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "full-trace.yaml"


class TestDesignWork:
    # kernel calls, passes, rows scored, updates and sweeps of the seed-0,
    # drop-0 design: integers that depend on no host or SIMD dispatch, so a
    # change to the design's work shows here on any machine.  "default" is the
    # empty config (N = 32, K = 16, 32-element windows), "paper" the full-trace
    # config (N = 128, K = 64, 16-element windows).
    @pytest.mark.parametrize("case, scheme, counts", [
        ("default", 0, (2, 23, 581, 224, 7)),
        ("default", 1, (2, 23, 555, 224, 7)),
        ("paper", 0, (2, 98, 1502, 1024, 8)),
        ("paper", 1, (2, 146, 2183, 1536, 12)),
    ], ids=["default-practical", "default-ideal", "paper-practical", "paper-ideal"])
    def test_work_of_one_design(self, monkeypatch, case, scheme, counts):
        cfg = ExperimentConfig() if case == "default" else load_config(PAPER_CONFIG)
        channel = drop_channel(cfg.system, 0, 0)
        cb = codebook(cfg.codebook_bits)
        tables = optimizer.design_tables(cfg.model, cb, channel.frequencies)
        results = []

        def recorder(*args, **kwargs):
            results.append(coordinate_descent_sweeps(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(optimizer, "coordinate_descent_sweeps", recorder)
        trace = optimizer.alternating_optimize(channel, cb, tables[scheme], cfg.system,
                                               cfg.optimizer)[3]
        got = (len(results), sum(r.passes for r in results),
               sum(r.rows_scored for r in results), sum(r.update_rates.size for r in results),
               sum(r.sweep_rates.size for r in results))
        assert got == counts
        assert all(r.converged for r in results) and trace.converged
