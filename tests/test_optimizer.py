"""Water-filling, design tables, alternating loop and the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsofdm.channel import SystemConfig, generate_channels
from irsofdm.experiments import simulate_drop_rates
from irsofdm.kernels import combined_gains, coordinate_descent_sweeps, mean_rate
from irsofdm.optimizer import (
    OptimizerSettings,
    PowerAllocation,
    PowerAllocationError,
    alignment_init,
    alternating_optimize,
    design_tables,
    water_filling,
)
from irsofdm.reflection_model import ModelParams, codebook, reflection_table
from oracles import exhaustive_search

MODEL = ModelParams()
CB = codebook(3)


@st.composite
def water_filling_instances(draw):
    """(gains, sigma^2, P) with sigma^2 and P over many decades and some zero gains.

    Each ratio sigma^2 / g lies within 1e-4 P to 1e3 P; far above that, p is
    a difference of nearly equal numbers and float granularity limits it.
    """
    sigma2 = 10.0 ** draw(st.floats(-16.0, -2.0))
    total = 10.0 ** draw(st.floats(-4.0, 2.0))
    exponent = st.floats(-4.0, 3.0)
    rel = [draw(exponent)] + draw(st.lists(st.one_of(st.none(), exponent), max_size=63))
    rel = draw(st.permutations(rel))
    gains = np.array([0.0 if u is None else sigma2 / (total * 10.0 ** u) for u in rel])
    return gains, sigma2, total


def bisection_water_filling(gains, noise_variance, total_power, n_iter=100):
    """The former solver: bisect on the water level, kept as a reference."""
    with np.errstate(divide="ignore"):
        ratios = noise_variance / gains
    lo = float(np.min(ratios))
    hi = lo + total_power * gains.size
    for _ in range(n_iter):
        mu = 0.5 * (lo + hi)
        if np.sum(np.maximum(0.0, mu - ratios)) > total_power:
            hi = mu
        else:
            lo = mu
    return np.maximum(0.0, 0.5 * (lo + hi) - ratios)


def tiny_channel(n_el, n_sc, seed, angle=0.8):
    cfg = SystemConfig(n_elements=n_el, n_subcarriers=n_sc)
    return generate_channels(cfg, angle, seed), cfg


def practical_table(ch, cb=CB):
    return design_tables(MODEL, cb, ch.frequencies)[0]


class TestPowerAllocation:
    def test_total(self):
        assert PowerAllocation(np.array([0.25, 0.75])).p.sum() == 1.0


class TestWaterFilling:
    def test_two_subcarriers_small_budget_floods_the_strong_one(self):
        # ratios are 1 and 4; mu = 2 spends the whole unit budget on channel 1
        alloc = water_filling(np.array([1.0, 0.25]), 1.0, 1.0)
        np.testing.assert_allclose(alloc.p, [1.0, 0.0], atol=1e-12)

    def test_two_subcarriers_large_budget_fills_both(self):
        # mu = 5: p = (4, 1)
        alloc = water_filling(np.array([1.0, 0.25]), 1.0, 5.0)
        np.testing.assert_allclose(alloc.p, [4.0, 1.0], atol=1e-12)

    def test_equal_gains_split_evenly(self):
        alloc = water_filling(np.full(8, 3.7e-9), 1e-14, 0.5)
        np.testing.assert_allclose(alloc.p, 0.0625, rtol=1e-9)

    def test_budget_met_to_relative_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 40))
            gains = 10.0 ** rng.uniform(-12.0, -6.0, k)
            total = 10.0 ** rng.uniform(-4.0, 1.0)
            alloc = water_filling(gains, 3.98e-14, total)
            assert abs(alloc.p.sum() - total) <= 1e-9 * total

    def test_kkt_conditions_on_random_instances(self):
        rng = np.random.default_rng(1)
        sigma2 = 3.98e-14
        for _ in range(1000):
            k = int(rng.integers(2, 24))
            gains = 10.0 ** rng.uniform(-13.0, -7.0, k)
            gains[rng.random(k) < 0.1] = 0.0
            if not np.any(gains > 0):
                continue
            total = 10.0 ** rng.uniform(-3.0, 0.5)
            p = water_filling(gains, sigma2, total).p
            assert np.all(p >= 0.0)
            with np.errstate(divide="ignore"):
                ratios = sigma2 / gains
            active = p > 1e-12 * total
            assert np.any(active)
            mu = np.mean(p[active] + ratios[active])
            # active subcarriers share one water level, inactive sit above it
            np.testing.assert_allclose(p[active] + ratios[active], mu, rtol=1e-6)
            assert np.all(ratios[~active] >= mu * (1.0 - 1e-6))
            assert np.all(p[gains == 0.0] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(water_filling_instances())
    def test_kkt_budget_and_zero_gains(self, instance):
        gains, sigma2, total = instance
        p = water_filling(gains, sigma2, total).p
        # PowerAllocation does not check its powers; water_filling guarantees them
        assert p.shape == gains.shape
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        with np.errstate(divide="ignore"):
            ratios = sigma2 / gains
        active = p > 0.0
        assert np.any(active)
        level = p[active] + ratios[active]
        mu = level.max()
        # one water level on the active subcarriers, the inactive ones at or above it
        assert np.all(np.abs(level - mu) <= 1e-12 * mu)
        assert np.all(ratios[~active] >= mu * (1.0 - 1e-12))
        assert abs(p.sum() - total) <= 1e-12 * total
        assert np.all(p[gains == 0.0] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(water_filling_instances())
    def test_matches_bisection_reference(self, instance):
        # both carry rounding of order K ulp of the largest active ratio, at most 1e3 P
        gains, sigma2, total = instance
        p = water_filling(gains, sigma2, total).p
        np.testing.assert_allclose(p, bisection_water_filling(gains, sigma2, total),
                                   rtol=0.0, atol=1e-12 * total)

    def test_budget_below_float_spacing_gives_zero_power(self):
        # P + 1 rounds to 1, so no level rises above the only ratio
        assert water_filling(np.array([1.0, 0.0]), 1.0, 1e-20).p.tolist() == [0.0, 0.0]

    def test_all_zero_gains_fail(self):
        with pytest.raises(PowerAllocationError):
            water_filling(np.zeros(4), 1e-14, 1.0)

    def test_gains_too_small_to_invert_count_as_zero(self):
        # 1e-14 / 1e-323 overflows to inf: no power, and infeasible when all are so
        assert water_filling(np.array([1e-323, 1e-14]), 1e-14, 1.0).p.tolist() == [0.0, 1.0]
        with pytest.raises(PowerAllocationError):
            water_filling(np.array([1e-323, 0.0]), 1e-14, 1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            water_filling(np.array([1.0, -1.0]), 1.0, 1.0)
        with pytest.raises(ValueError):
            water_filling(np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            water_filling(np.array([1.0]), 1.0, 0.0)


class TestDesignTables:
    def test_practical_is_the_model_table_and_ideal_is_flat(self):
        ch, _ = tiny_channel(5, 6, 17)
        practical, ideal = design_tables(MODEL, CB, ch.frequencies)
        assert np.array_equal(practical, reflection_table(MODEL, CB, ch.frequencies))
        assert np.array_equal(ideal, np.exp(1j * CB.values)[:, None] * np.ones(6))

    def test_single_column_table_rejected_by_both_designs(self):
        # an (S, 1) table would broadcast across K > 1 subcarriers
        ch, cfg = tiny_channel(2, 3, 18)
        column = practical_table(ch)[:, :1]
        with pytest.raises(ValueError, match="shape"):
            alternating_optimize(ch, CB, column, cfg)
        with pytest.raises(ValueError, match="shape"):
            exhaustive_search(ch, column, cfg)


class TestInits:
    def test_alignment_maximizes_center_subcarrier_score(self):
        ch, _ = tiny_channel(6, 5, 19)
        idx = alignment_init(ch, CB)
        k_c = 5 // 2
        for n in range(6):
            v = np.conj(ch.h_irs_user[n, k_c]) * ch.g_ap_irs[n, k_c]
            scores = np.abs(v * np.exp(1j * CB.values) + ch.h_direct[k_c] / 6)
            assert idx[n] == int(np.argmax(scores))

    def test_alignment_empty_surface(self):
        ch, _ = tiny_channel(0, 4, 20)
        assert alignment_init(ch, CB).size == 0


def reflect(ch, p, noise_variance, init_indices=None):
    """Coordinate descent for fixed powers from the alignment start (or `init_indices`)."""
    table = reflection_table(MODEL, CB, ch.frequencies)
    if init_indices is None:
        init_indices = alignment_init(ch, CB)
    return coordinate_descent_sweeps(ch.cascade, ch.h_direct, table, p, noise_variance,
                                     init_indices)


class TestReflectBeamforming:
    def test_single_element_single_subcarrier_enumeration(self):
        ch, cfg = tiny_channel(1, 1, 21)
        p = np.array([cfg.max_power])
        res = reflect(ch, p, cfg.noise_variance)
        table = reflection_table(MODEL, CB, ch.frequencies)
        v = np.conj(ch.h_irs_user[0, 0]) * ch.g_ap_irs[0, 0]
        rates = np.log2(1.0 + p[0] * np.abs(ch.h_direct[0] + v * table[:, 0]) ** 2
                        / cfg.noise_variance)
        assert res.indices[0] == int(np.argmax(rates))
        assert res.converged

    def test_converged_state_is_coordinate_wise_optimal(self):
        ch, cfg = tiny_channel(5, 4, 22)
        p = np.full(4, cfg.max_power / 4)
        res = reflect(ch, p, cfg.noise_variance)
        assert res.converged
        table = reflection_table(MODEL, CB, ch.frequencies)
        v = np.conj(ch.h_irs_user) * ch.g_ap_irs

        def rate_of(idx):
            eff = ch.h_direct + (table[idx] * v).sum(axis=0)
            return np.mean(np.log2(1.0 + p * np.abs(eff) ** 2 / cfg.noise_variance))

        best = rate_of(res.indices)
        for n in range(5):
            for s in range(CB.size):
                trial = res.indices.copy()
                trial[n] = s
                assert rate_of(trial) <= best + 1e-12

    def test_restart_from_result_changes_nothing(self):
        ch, cfg = tiny_channel(6, 4, 23)
        p = np.full(4, cfg.max_power / 4)
        first = reflect(ch, p, cfg.noise_variance)
        again = reflect(ch, p, cfg.noise_variance, init_indices=first.indices)
        assert np.array_equal(again.indices, first.indices)
        assert again.sweep_rates.size == 1


class TestAlternatingOptimize:
    def test_trace_monotone_and_converged(self):
        ch, cfg = tiny_channel(8, 8, 24)
        _, _, rate, trace = alternating_optimize(ch, CB, practical_table(ch), cfg)
        assert trace.converged
        assert trace.stages[0] == "init" and trace.stages[-1] == "power"
        assert np.all(np.diff(trace.objectives) >= -1e-12)
        np.testing.assert_allclose(trace.objectives[-1], rate, rtol=1e-12)

    def test_final_rate_is_recomputable(self):
        ch, cfg = tiny_channel(8, 8, 25)
        table = practical_table(ch)
        indices, alloc, rate, _ = alternating_optimize(ch, CB, table, cfg)
        g = combined_gains(ch.h_direct, ch.cascade, table[indices])
        np.testing.assert_allclose(mean_rate(alloc.p, np.abs(g) ** 2, cfg.noise_variance),
                                   rate, rtol=1e-12)
        assert abs(alloc.p.sum() - cfg.max_power) <= 1e-9 * cfg.max_power

    def test_no_surface_reduces_to_direct_water_filling(self):
        ch, cfg = tiny_channel(0, 6, 26)
        _, alloc, rate, _ = alternating_optimize(ch, CB, practical_table(ch), cfg)
        gains = np.abs(ch.h_direct) ** 2
        alloc_ref = water_filling(gains, cfg.noise_variance, cfg.max_power)
        np.testing.assert_allclose(alloc.p, alloc_ref.p, rtol=1e-9)
        np.testing.assert_allclose(
            rate, np.mean(np.log2(1.0 + alloc_ref.p * gains / cfg.noise_variance)), rtol=1e-12)

    def test_single_subcarrier_gets_full_budget(self):
        ch, cfg = tiny_channel(4, 1, 27)
        _, alloc, _, _ = alternating_optimize(ch, CB, practical_table(ch), cfg)
        np.testing.assert_allclose(alloc.p, [cfg.max_power], rtol=1e-9)

    def test_trace_rows_enumerate_in_order(self):
        ch, cfg = tiny_channel(3, 4, 28)
        _, _, _, trace = alternating_optimize(ch, CB, practical_table(ch), cfg)
        rows = list(trace.rows())
        assert [r[1] for r in rows] == list(range(len(rows)))
        assert rows[0][0] == "init"

    def test_regression_small_instance(self):
        # frozen output of the first validated run on this fixture
        cfg = SystemConfig(n_elements=3, n_subcarriers=8)
        ch = generate_channels(cfg, 0.6, 2024)
        indices, _, rate, _ = alternating_optimize(ch, CB, practical_table(ch), cfg)
        np.testing.assert_allclose(rate, 11.194191727362508, rtol=1e-12)
        assert indices.tolist() == [0, 0, 7]


@st.composite
def alternation_instances(draw):
    """A tiny drop, a codebook, a budget over six decades and stopping rules."""
    system = SystemConfig(n_elements=draw(st.integers(0, 6)),
                          n_subcarriers=draw(st.integers(1, 8)),
                          max_power=10.0 ** draw(st.floats(-4.0, 2.0)))
    channel = generate_channels(system, draw(st.floats(0.0, 2.0 * np.pi)),
                                draw(st.integers(0, 2 ** 32 - 1)))
    stopping = OptimizerSettings(eps_rate=10.0 ** draw(st.floats(-12.0, -1.0)),
                                 max_outer=draw(st.integers(1, 30)),
                                 max_sweeps=draw(st.integers(1, 20)))
    return channel, codebook(draw(st.integers(1, 3))), system, stopping


@settings(max_examples=100, deadline=None)
@given(alternation_instances())
def test_alternating_objective_never_decreases(instance):
    channel, cb, system, opt = instance
    table = practical_table(channel, cb)
    _, _, rate, trace = alternating_optimize(channel, cb, table, system, settings=opt)
    obj = trace.objectives
    assert np.all(np.diff(obj) >= -1e-12 * np.abs(obj[:-1]))
    assert trace.stages[-1] == "power"
    assert rate == obj[-1]


class TestIdealDesign:
    def test_state_carries_practical_reflection(self):
        # the ideal scheme's rate is that of its indices on the practical table
        ch, cfg = tiny_channel(6, 6, 29)
        practical, ideal = design_tables(MODEL, CB, ch.frequencies)
        (_, r_ideal, _), _ = simulate_drop_rates(ch, CB, (practical, ideal), cfg,
                                                 OptimizerSettings())
        indices, _, _, _ = alternating_optimize(ch, CB, ideal, cfg)
        g = combined_gains(ch.h_direct, ch.cascade, practical[indices])
        gains = np.abs(g) ** 2
        alloc = water_filling(gains, cfg.noise_variance, cfg.max_power)
        np.testing.assert_allclose(r_ideal, mean_rate(alloc.p, gains, cfg.noise_variance),
                                   rtol=1e-12)

    def test_practical_design_wins_on_seeded_drops(self):
        for angle, seed in [(0.6, 2024), (1.9, 77), (4.4, 13)]:
            ch, cfg = tiny_channel(8, 8, seed, angle)
            tables = design_tables(MODEL, CB, ch.frequencies)
            (r_practical, r_ideal, _), _ = simulate_drop_rates(ch, CB, tables, cfg,
                                                               OptimizerSettings())
            assert r_practical >= r_ideal - 1e-12


class TestExhaustiveSearch:
    def test_single_element_matches_enumeration(self):
        ch, cfg = tiny_channel(1, 3, 30)
        table = practical_table(ch)
        _, _, rate = exhaustive_search(ch, table, cfg)
        v = np.conj(ch.h_irs_user) * ch.g_ap_irs
        best = -1.0
        for s in range(CB.size):
            eff = ch.h_direct + table[s] * v[0]
            g = np.abs(eff) ** 2
            al = water_filling(g, cfg.noise_variance, cfg.max_power)
            best = max(best, float(np.mean(np.log2(1.0 + al.p * g / cfg.noise_variance))))
        np.testing.assert_allclose(rate, best, rtol=1e-12)

    def test_alternating_never_beats_exhaustive(self):
        cb2 = codebook(2)
        for seed in range(10):
            ch, cfg = tiny_channel(3, 4, 100 + seed, angle=0.3 + 0.5 * seed)
            table = practical_table(ch, cb2)
            _, _, r_exh = exhaustive_search(ch, table, cfg)
            _, _, r_alt, _ = alternating_optimize(ch, cb2, table, cfg)
            assert r_alt <= r_exh + 1e-12

    def test_refuses_oversized_instances(self):
        ch, cfg = tiny_channel(10, 2, 31)
        with pytest.raises(ValueError):
            exhaustive_search(ch, practical_table(ch), cfg)
