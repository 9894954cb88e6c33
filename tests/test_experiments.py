"""Scenario runners: validation curves, rate sweeps, reproducibility."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irsofdm
import irsofdm.optimizer
from irsofdm.channel import SystemConfig, dbm_to_watts, subcarrier_frequencies
from irsofdm.circuit import PHASE_TOL, CircuitParams, solve_capacitance, sweep_reflection
from irsofdm.config import ExperimentConfig, OptimizerSettings, ValidationSettings
from irsofdm.experiments import (
    SCHEMES,
    RateSweepResult,
    _water_filled_rate,
    drop_channel,
    run_convergence_trace,
    run_model_validation,
    run_rate_vs_elements,
    run_rate_vs_power,
    write_result_csv,
)
from irsofdm.kernels import combined_gains
from irsofdm.optimizer import alternating_optimize, design_tables
from irsofdm.reflection_model import codebook, curve_errors, fit_model

TINY_SYSTEM = SystemConfig(n_elements=4, n_subcarriers=4)


def tiny_config(**kw):
    base = dict(scenario="rate-vs-power", seed=3, n_drops=2,
                power_sweep_dbm=(0.0, 10.0), system=TINY_SYSTEM)
    base.update(kw)
    return ExperimentConfig(**base)


class TestModelValidation:
    def test_default_targets_produce_five_curves(self):
        result = run_model_validation(ExperimentConfig(scenario="model-validation"))
        assert result.target_phase_deg.size == 5
        assert result.errors == []
        assert result.frequencies.size == 201
        amp_error, phase_error = curve_errors(result.model_amplitude, result.model_phase,
                                              result.circuit_amplitude, result.circuit_phase)
        for t in range(5):
            assert phase_error[t] <= np.deg2rad(25.0)
            assert amp_error[t] <= 0.1

    def test_zero_target_phase_swings_far_negative_at_band_edge(self):
        result = run_model_validation(ExperimentConfig(scenario="model-validation"))
        t = result.target_phase_deg.tolist().index(0.0)
        phase_deg = np.rad2deg(result.circuit_phase[t][result.frequencies == 2.5e9])
        assert -115.0 <= phase_deg[0] <= -85.0

    def test_unreachable_target_reported_not_raised(self):
        cfg = ExperimentConfig(scenario="model-validation",
                               validation=ValidationSettings(target_phases_deg=(0.0, 180.0)))
        result = run_model_validation(cfg)
        assert result.target_phase_deg.size == 1
        assert len(result.errors) == 1
        assert result.errors[0][0] == 180.0

    def test_steep_lossy_target_reported(self):
        # at r = 4 ohm the phase swings through -177 deg within one 3.7e-15 F step
        cfg = ExperimentConfig(scenario="model-validation", circuit=CircuitParams(r=4.0),
                               validation=ValidationSettings(target_phases_deg=(-177.0,)))
        result = run_model_validation(cfg)
        assert result.errors == []
        assert result.target_phase_deg.tolist() == [-177.0]

    def test_single_point_grid(self):
        cfg = ExperimentConfig(
            scenario="model-validation",
            validation=ValidationSettings(f_min=2.4e9, f_max=2.4e9, n_points=1,
                                          target_phases_deg=(0.0,)))
        result = run_model_validation(cfg)
        assert result.frequencies.size == 1
        assert abs(result.circuit_phase[0, 0]) <= np.deg2rad(1.0)
        assert abs(result.model_phase[0, 0]) <= 1e-9

    @pytest.mark.parametrize("targets, reachable", [
        # duplicates stay, and +-180 deg both wrap to the unreachable -pi
        ((180.0, 0.0, -180.0, 0.0, 60.0, 120.0), [0.0, 0.0, 60.0, 120.0]),
        ((180.0,), []),
    ], ids=["duplicates-and-aliases", "none-reachable"])
    def test_curves_follow_config_order(self, targets, reachable):
        cfg = ExperimentConfig(scenario="model-validation",
                               validation=ValidationSettings(n_points=7,
                                                             target_phases_deg=targets))
        result = run_model_validation(cfg)
        assert result.target_phase_deg.tolist() == reachable
        assert [deg for deg, _ in result.errors] == [t for t in targets if abs(t) == 180.0]
        for curve in (result.circuit_amplitude, result.circuit_phase, result.model_amplitude,
                      result.model_phase):
            assert curve.shape == (len(reachable), 7)
        rows = list(result.rows())
        assert len(rows) == 7 * len(reachable)
        assert [row[0] for row in rows[::7]] == reachable
        # each row of the grid evaluation is the single-target curve
        for t, deg in enumerate(reachable):
            one = run_model_validation(dataclasses.replace(
                cfg, validation=dataclasses.replace(cfg.validation, target_phases_deg=(deg,))))
            for name in ("circuit_amplitude", "circuit_phase", "model_amplitude", "model_phase"):
                np.testing.assert_array_equal(getattr(result, name)[t], getattr(one, name)[0])
        assert len(list(result.summary())) == len(targets)

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

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_peak_memory_per_curve_value(self, tmp_path):
        # the peak of two fresh runs, 4 targets at 2^12 and 2^14 grid points: rows are
        # streamed one target at a time (about 105 B per value); converting all six
        # broadcast columns at once took about 280 B.  VmHWM is the run's own peak, where
        # ru_maxrss also counts the pages of the forking test process
        code = ("import re, sys; from irsofdm.cli import main; rc = main(sys.argv[1:]); "
                "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]); "
                "sys.exit(rc)")
        src = str(Path(irsofdm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        peaks = []
        for n_points in (2 ** 12, 2 ** 14):
            cfg = tmp_path / "validation.yaml"
            cfg.write_text("scenario: model-validation\nvalidation:\n"
                           f"  {{n_points: {n_points}, target_phases_deg: [0, 60, -60, 120]}}\n")
            out = subprocess.run([sys.executable, "-c", code, "run", str(cfg), "--out", os.devnull],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True)
            peaks.append(1024 * int(out.stdout))
        assert (peaks[1] - peaks[0]) / (4 * (2 ** 14 - 2 ** 12)) < 160


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
        np.testing.assert_array_equal(short.rates[0], long.rates[0])

    def test_seed_changes_results(self):
        a = run_rate_vs_power(tiny_config())
        b = run_rate_vs_power(tiny_config(seed=4))
        assert not np.array_equal(a.rates[0, 0], b.rates[0, 0])

    def test_more_power_never_hurts_any_scheme_per_drop(self):
        low, high = run_rate_vs_power(tiny_config()).rates  # 0 and 10 dBm
        assert np.all(high >= low - 1e-9)


def hand_made(rates):
    """A power-sweep result holding the (points x schemes x drops) array `rates`."""
    return RateSweepResult("power_dbm", (0.0, 10.0)[:len(rates)], 7, np.asarray(rates, float),
                           0, OptimizerSettings())


class TestRateSweepResult:
    def test_summary_pairs_the_schemes_over_the_drops(self):
        # practical - ideal: 0.5, -0.5, 1, 1; ideal - no_irs: 0.5, 2.5, 2, 3
        result = hand_made([[[1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]]])
        assert list(result.summary()) == [
            "power_dbm = 0.0: practical 2.5000, ideal 2.0000, no_irs 0.0000 bit/s/Hz",
            # standard errors sqrt(0.5 / 4) and sqrt(3.5 / 3 / 4)
            "  practical - ideal: 0.5000 +- 0.3536 bit/s/Hz (paired mean +- standard error), "
            "below 0 in 1 of 4 drops",
            "  ideal - no_irs: 2.0000 +- 0.5401 bit/s/Hz (paired mean +- standard error), "
            "below 0 in 0 of 4 drops",
        ]

    @pytest.mark.filterwarnings("error")
    def test_one_drop_has_no_spread(self):
        result = hand_made([[[2.0], [3.0], [1.0]], [[4.0], [4.0], [1.0]]])
        assert [row[3:6] for row in result.rows()] == [
            (2.0, 0.0, 1), (3.0, 0.0, 1), (1.0, 0.0, 1),
            (4.0, 0.0, 1), (4.0, 0.0, 1), (1.0, 0.0, 1)]
        lines = list(result.summary())
        assert lines[1] == ("  practical - ideal: -1.0000 bit/s/Hz (one drop: no standard error), "
                            "below 0 in 1 of 1 drops")
        assert lines[4] == ("  practical - ideal: 0.0000 bit/s/Hz (one drop: no standard error), "
                            "below 0 in 0 of 1 drops")

    @pytest.mark.parametrize("n_drops", [1, 2, 3, 7, 8, 9, 100, 127, 128, 129, 1000, 4099])
    def test_rows_equal_the_statistics_of_each_drop_vector(self, n_drops):
        # the reductions over the last axis are bit for bit those of each 1-D drop vector
        rng = np.random.default_rng(n_drops)
        rates = rng.lognormal(1.0, 2.0, size=(2, len(SCHEMES), n_drops))
        rows = list(hand_made(rates).rows())
        for row, vector in zip(rows, rates.reshape(-1, n_drops)):
            std = float(np.std(vector, ddof=1)) if n_drops > 1 else 0.0
            assert row[3:6] == (float(np.mean(vector)), std, n_drops)


class TestRateVsElements:
    def test_empty_surface_equals_direct_link(self):
        cfg = tiny_config(scenario="rate-vs-elements", element_sweep=(0, 2))
        result = run_rate_vs_elements(cfg)
        practical, _, no_irs = result.rates[0]
        np.testing.assert_allclose(practical, no_irs, rtol=1e-12)

    def test_direct_scheme_independent_of_element_count(self):
        cfg = tiny_config(scenario="rate-vs-elements", element_sweep=(2, 4))
        result = run_rate_vs_elements(cfg)
        np.testing.assert_allclose(result.rates[0, 2], result.rates[1, 2], rtol=1e-12)

    def test_element_slices_nest(self):
        # the 2-element surface is the first two rows of the 4-element one
        cfg = tiny_config(scenario="rate-vs-elements", element_sweep=(4,))
        full = drop_channel(dataclasses.replace(TINY_SYSTEM, n_elements=4), 3, 0)
        sub = drop_channel(dataclasses.replace(TINY_SYSTEM, n_elements=4), 3, 0)
        assert np.array_equal(full.h_irs_user[:2], sub.h_irs_user[:2])
        result = run_rate_vs_elements(cfg)
        assert result.rates.shape == (1, len(SCHEMES), 2)


class TestSharedDropLoop:
    def test_sweeps_agree_where_their_points_coincide(self):
        # N = 4 at the configured 1 W budget (30 dBm) is a point of both sweeps
        cfg = tiny_config(power_sweep_dbm=(30.0,), element_sweep=(4,))
        np.testing.assert_array_equal(run_rate_vs_power(cfg).rates,
                                      run_rate_vs_elements(cfg).rates)

    @pytest.mark.parametrize("run", [run_rate_vs_power, run_rate_vs_elements])
    def test_systems_are_built_per_run_not_per_drop(self, monkeypatch, run):
        built = []
        check = SystemConfig.__post_init__
        monkeypatch.setattr(SystemConfig, "__post_init__",
                            lambda self: built.append(self) or check(self))
        cfg = tiny_config(element_sweep=(2, 4))
        counts = []
        for n_drops in (1, 3):
            built.clear()
            run(dataclasses.replace(cfg, n_drops=n_drops))
            counts.append(len(built))
        assert counts[0] == counts[1]


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


class TestCircuitTable:
    """Designs scored on the circuit's own response to each entry of the default
    3-bit codebook, tuned at the center frequency; -180 deg is out of reach, so it
    takes the nearest capacitance."""

    CFG = ExperimentConfig()

    def _circuit_table(self):
        system, circuit = self.CFG.system, self.CFG.circuit
        cb = codebook(self.CFG.codebook_bits)
        caps, _ = solve_capacitance(circuit, cb.values, system.center_frequency)
        freqs = subcarrier_frequencies(system.center_frequency, system.bandwidth,
                                       system.n_subcarriers)
        amp, phase = sweep_reflection(circuit, caps[:, None], freqs)
        assert np.all(amp <= 1.0)
        return cb, freqs, amp * np.exp(1j * phase)

    def _assert_first_design_wins(self, cb, table, designs, standard_errors):
        # paired over 20 drops: the mean gap exceeds the given standard errors
        system = self.CFG.system
        channels = [drop_channel(system, 0, drop) for drop in range(20)]
        for dbm in (-10.0, 10.0, 30.0):
            budget = dataclasses.replace(system, max_power=float(dbm_to_watts(dbm)))
            gap = []
            for channel in channels:
                rates = []
                for design in designs:
                    indices = alternating_optimize(channel, cb, design, budget)[0]
                    g = combined_gains(channel.h_direct, channel.cascade, table[indices])
                    rates.append(_water_filled_rate(g, budget))
                gap.append(rates[0] - rates[1])
            se = np.std(gap, ddof=1) / np.sqrt(len(gap))
            assert np.mean(gap) > standard_errors * se, dbm

    def test_practical_design_beats_ideal_on_the_circuit(self):
        cb, freqs, table = self._circuit_table()
        practical, ideal = design_tables(self.CFG.model, cb, freqs)
        self._assert_first_design_wins(cb, table, (practical, ideal), 3.0)

    def test_model_refit_to_the_circuit_designs_better(self):
        # the stock model refit on the reachable entries' curves over the design band
        cb, freqs, table = self._circuit_table()
        circuit, f_c = self.CFG.circuit, self.CFG.system.center_frequency
        caps, miss = solve_capacitance(circuit, cb.values, f_c)
        reached = miss <= PHASE_TOL
        band = np.linspace(2.35e9, 2.45e9, 101)
        amp, phase = sweep_reflection(circuit, caps[reached, None], band)
        refit, _ = fit_model(cb.values[reached, None], band[None, :], phase, amp)
        designs = (design_tables(refit, cb, freqs)[0], design_tables(self.CFG.model, cb, freqs)[0])
        self._assert_first_design_wins(cb, table, designs, 2.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fixed_seed_gives_identical_runs(seed):
    cfg = ExperimentConfig(scenario="rate-vs-power", seed=seed, n_drops=2,
                           power_sweep_dbm=(0.0,), system=SystemConfig(n_elements=2, n_subcarriers=2))
    a, b = run_rate_vs_power(cfg), run_rate_vs_power(cfg)
    assert a.rates.shape == (1, len(SCHEMES), 2)
    assert np.array_equal(a.rates, b.rates)


class TestConvergenceTrace:
    def test_monotone_stages(self):
        cfg = tiny_config(scenario="convergence-trace")
        result = run_convergence_trace(cfg)
        rows = list(result.rows())
        stages = {r[0] for r in rows}
        assert stages <= {"init", "reflect", "power"}
        objs = np.array([r[2] for r in rows])
        assert np.all(np.diff(objs) >= -1e-12)
        assert next(result.summary()).startswith(f"final rate {objs[-1]:.6f} bit/s/Hz")

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
