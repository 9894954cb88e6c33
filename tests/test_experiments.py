"""Scenario runners: validation curves, rate sweeps, reproducibility."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irsofdm.optimizer
from irsofdm.channel import SystemConfig
from irsofdm.config import ExperimentConfig, OptimizerSettings, ValidationSettings
from irsofdm.experiments import (
    SCHEMES,
    drop_channel,
    run_convergence_trace,
    run_model_validation,
    run_rate_vs_elements,
    run_rate_vs_power,
    write_result_csv,
)

TINY_SYSTEM = SystemConfig(n_elements=4, n_subcarriers=4)


def tiny_config(**kw):
    base = dict(scenario="rate-vs-power", seed=3, n_drops=2,
                power_sweep_dbm=(0.0, 10.0), system=TINY_SYSTEM)
    base.update(kw)
    return ExperimentConfig(**base)


class TestModelValidation:
    def test_default_targets_produce_five_curves(self):
        result = run_model_validation(ExperimentConfig(scenario="model-validation"))
        assert len(result.curves) == 5
        assert result.errors == []
        for curve in result.curves:
            assert curve.frequencies.size == 201
            assert curve.max_phase_error <= np.deg2rad(25.0)
            assert curve.max_amplitude_error <= 0.1

    def test_zero_target_phase_swings_far_negative_at_band_edge(self):
        result = run_model_validation(ExperimentConfig(scenario="model-validation"))
        curve = next(c for c in result.curves if c.target_phase_deg == 0.0)
        phase_deg = np.rad2deg(curve.circuit_phase[curve.frequencies == 2.5e9])
        assert -115.0 <= phase_deg[0] <= -85.0

    def test_unreachable_target_reported_not_raised(self):
        cfg = ExperimentConfig(scenario="model-validation",
                               validation=ValidationSettings(target_phases_deg=(0.0, 180.0)))
        result = run_model_validation(cfg)
        assert len(result.curves) == 1
        assert len(result.errors) == 1
        assert result.errors[0][0] == 180.0

    def test_single_point_grid(self):
        cfg = ExperimentConfig(
            scenario="model-validation",
            validation=ValidationSettings(f_min=2.4e9, f_max=2.4e9, n_points=1,
                                          target_phases_deg=(0.0,)))
        result = run_model_validation(cfg)
        curve = result.curves[0]
        assert curve.frequencies.size == 1
        assert abs(curve.circuit_phase[0]) <= np.deg2rad(1.0)
        assert abs(curve.model_phase[0]) <= 1e-9

    def test_csv_columns(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="model-validation",
            validation=ValidationSettings(n_points=3, target_phases_deg=(0.0, 60.0)))
        result = run_model_validation(cfg)
        out = tmp_path / "validation.csv"
        write_result_csv(out, result)
        lines = out.read_text().splitlines()
        assert lines[0] == "target_phase_deg,freq_hz,circuit_phase_rad,circuit_amp,model_phase_rad,model_amp"
        assert len(lines) == 1 + 2 * 3


class TestRateVsPower:
    def test_row_layout(self, tmp_path):
        result = run_rate_vs_power(tiny_config())
        rows = list(result.rows())
        assert len(rows) == 2 * len(SCHEMES)
        assert [r[2] for r in rows[:3]] == ["practical", "ideal", "no_irs"]
        assert all(r[0] == "power_dbm" for r in rows)
        assert all(r[5] == 2 and r[6] == 3 for r in rows)
        out = tmp_path / "rates.csv"
        write_result_csv(out, result)
        header = out.read_text().splitlines()[0]
        assert header == "sweep_var,sweep_value,scheme,mean_rate_bps_hz,std_rate,n_drops,seed"

    def test_reproducible_to_the_byte(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_csv(a, run_rate_vs_power(cfg))
        write_result_csv(b, run_rate_vs_power(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_drops_shared_across_sweep_points(self):
        # adding a sweep point must not change the drops seen at existing ones
        short = run_rate_vs_power(tiny_config(power_sweep_dbm=(10.0,)))
        long = run_rate_vs_power(tiny_config(power_sweep_dbm=(10.0, 20.0)))
        np.testing.assert_array_equal(short.per_drop[(10.0, "practical")],
                                      long.per_drop[(10.0, "practical")])

    def test_seed_changes_results(self):
        a = run_rate_vs_power(tiny_config())
        b = run_rate_vs_power(tiny_config(seed=4))
        assert not np.array_equal(a.per_drop[(0.0, "practical")],
                                  b.per_drop[(0.0, "practical")])

    def test_more_power_never_hurts_any_scheme_per_drop(self):
        result = run_rate_vs_power(tiny_config())
        for scheme in SCHEMES:
            low = result.per_drop[(0.0, scheme)]
            high = result.per_drop[(10.0, scheme)]
            assert np.all(high >= low - 1e-9)


class TestRateVsElements:
    def test_empty_surface_equals_direct_link(self):
        cfg = tiny_config(scenario="rate-vs-elements", element_sweep=(0, 2))
        result = run_rate_vs_elements(cfg)
        np.testing.assert_allclose(result.per_drop[(0, "practical")],
                                   result.per_drop[(0, "no_irs")], rtol=1e-12)

    def test_direct_scheme_independent_of_element_count(self):
        cfg = tiny_config(scenario="rate-vs-elements", element_sweep=(2, 4))
        result = run_rate_vs_elements(cfg)
        np.testing.assert_allclose(result.per_drop[(2, "no_irs")],
                                   result.per_drop[(4, "no_irs")], rtol=1e-12)

    def test_element_slices_nest(self):
        # the 2-element surface is the first two rows of the 4-element one
        cfg = tiny_config(scenario="rate-vs-elements", element_sweep=(4,))
        full = drop_channel(dataclasses.replace(TINY_SYSTEM, n_elements=4), 3, 0)
        sub = drop_channel(dataclasses.replace(TINY_SYSTEM, n_elements=4), 3, 0)
        assert np.array_equal(full.h_irs_user[:2], sub.h_irs_user[:2])
        result = run_rate_vs_elements(cfg)
        assert set(result.per_drop) == {(4, s) for s in SCHEMES}


@pytest.fixture
def table_builds(monkeypatch):
    """Count the calls to the reflection table builder the designs use."""
    calls = []
    build = irsofdm.optimizer.reflection_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(irsofdm.optimizer, "reflection_table", counted)
    return calls


class TestDesignTablesPerRun:
    def test_power_sweep_builds_the_table_once(self, table_builds):
        run_rate_vs_power(tiny_config())  # 2 drops x 2 powers
        assert len(table_builds) == 1

    def test_element_sweep_builds_the_table_once(self, table_builds):
        run_rate_vs_elements(tiny_config(scenario="rate-vs-elements", element_sweep=(2, 4)))
        assert len(table_builds) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fixed_seed_gives_identical_runs(seed):
    cfg = ExperimentConfig(scenario="rate-vs-power", seed=seed, n_drops=2,
                           power_sweep_dbm=(0.0,), system=SystemConfig(n_elements=2, n_subcarriers=2))
    a, b = run_rate_vs_power(cfg), run_rate_vs_power(cfg)
    assert a.per_drop.keys() == b.per_drop.keys()
    for key, rates in a.per_drop.items():
        assert np.array_equal(rates, b.per_drop[key])


class TestConvergenceTrace:
    def test_monotone_stages(self):
        cfg = tiny_config(scenario="convergence-trace")
        result = run_convergence_trace(cfg)
        rows = list(result.rows())
        stages = {r[0] for r in rows}
        assert stages <= {"init", "reflect", "power"}
        objs = np.array([r[2] for r in rows])
        assert np.all(np.diff(objs) >= -1e-12)
        np.testing.assert_allclose(objs[-1], result.final_rate, rtol=1e-12)

    def test_iteration_budget_respected(self):
        cfg = tiny_config(scenario="convergence-trace",
                          optimizer=OptimizerSettings(max_outer=1, max_sweeps=1))
        result = run_convergence_trace(cfg)
        # one outer pass: init + N updates + one power stage
        assert len(list(result.rows())) == 1 + TINY_SYSTEM.n_elements + 1

    def test_csv_columns(self, tmp_path):
        cfg = tiny_config(scenario="convergence-trace")
        out = tmp_path / "trace.csv"
        write_result_csv(out, run_convergence_trace(cfg))
        lines = out.read_text().splitlines()
        assert lines[0] == "stage,iteration,objective"
        assert lines[1].startswith("init,0,")


class TestDropChannel:
    def test_deterministic_and_distinct(self):
        a = drop_channel(TINY_SYSTEM, 0, 0)
        b = drop_channel(TINY_SYSTEM, 0, 0)
        c = drop_channel(TINY_SYSTEM, 0, 1)
        assert np.array_equal(a.h_direct, b.h_direct)
        assert not np.array_equal(a.h_direct, c.h_direct)
        assert a.user_angle == b.user_angle != c.user_angle
