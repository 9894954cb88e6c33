"""Command-line interface: subcommands, overrides and exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irsofdm
from irsofdm.cli import main
from irsofdm.config import _TOP, SCENARIOS, ConfigError, _list_of, load_config
from irsofdm.experiments import RUNNERS, run_rate_vs_power
from irsofdm.optimizer import PowerAllocationError

# a numpy warning that reaches the run's stderr fails the test that caused it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# a 1,000-deep flow mapping: beyond the parser's recursion, and quick to reach it
DEEP_NESTING = "system: " + "{a: " * 1000 + "1" + "}" * 1000 + "\n"

TINY = """
scenario: rate-vs-power
seed: 3
n_drops: 2
power_sweep_dbm: [0, 10]
system:
  n_elements: 4
  n_subcarriers: 4
"""


def source_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(irsofdm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidateConfig:
    def test_valid_file(self, tmp_path, capsys):
        rc = main(["validate-config", write(tmp_path, TINY)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_unknown_key(self, tmp_path, capsys):
        rc = main(["validate-config", write(tmp_path, "system:\n  n_elemts: 4\n")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate-config", str(tmp_path / "nope.yaml")]) == 2

    def test_broken_yaml(self, tmp_path):
        assert main(["validate-config", write(tmp_path, "a: [unclosed\n")]) == 2

    def test_unwritable_output_csv_rejected_by_both_commands(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(RUNNERS, "rate-vs-power", calls.append)
        out = tmp_path / "missing" / "x.csv"
        path = write(tmp_path, TINY + f"output_csv: {out}\n")
        assert main(["validate-config", path]) == 2
        assert main(["run", path, "--drops", "1"]) == 2
        assert capsys.readouterr().err.count("configuration error: cannot write") == 2
        assert calls == []

    def test_out_flag_overrides_unwritable_output_csv(self, tmp_path):
        out = tmp_path / "rates.csv"
        path = write(tmp_path, TINY + f"output_csv: {tmp_path / 'missing' / 'x.csv'}\n")
        assert main(["run", path, "--drops", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("sweep_var,")

    @pytest.mark.parametrize("text", [
        "codebook_bits: 9\n",
        "codebook_bits: 0\n",
        "power_sweep_dbm: [0, ten]\n",
        "element_sweep: [16, 2.5]\n",
        "seed: .nan\n",
        "n_drops: .inf\n",
        "seed: -1\n",
        "system: {noise_dbm: .nan}\n",
        "system: {max_power_dbm: .inf}\n",
        "system: {max_power_dbm: 1.0e5}\n",
        "optimizer: {eps_rate: .nan}\n",
        "circuit: {r_ohm: .nan}\n",
        "power_sweep_dbm: [.inf]\n",
        "validation: {target_phases_deg: [.nan]}\n",
        "1: a\nfoo: b\n",
        "system: {n_elements: 1000000000000}\n",
        # one step beyond the size cap; 2048 x 8 x 4096 is the cap itself
        "system: {n_elements: 2049, n_subcarriers: 4096}\n",
        "element_sweep: [16, 2049]\nsystem: {n_subcarriers: 4096}\n",
        "codebook_bits: 4\nsystem: {n_elements: 2048, n_subcarriers: 4096}\n",
        "system: {n_elements: 2048, n_subcarriers: 4096, n_taps: 9}\n",
        "system: {n_elements: 0, n_subcarriers: 1000000000000}\nelement_sweep: [0]\n",
        "validation: {n_points: 67108865}\n",
        # 2 targets x 2**26 grid points: four curves of 2**27 values each
        "validation: {n_points: 67108864, target_phases_deg: [0, 60]}\n",
        # 1e12 drops x 1 power x 3 schemes of per-drop rates, 7.28 TiB
        "n_drops: 1000000000000\npower_sweep_dbm: [0]\n"
        "system: {n_elements: 2, n_subcarriers: 2}\n",
        # one drop beyond the cap of 2**26 rates at 9 powers
        "n_drops: 2485514\n",
        # sweep budgets that overflow to inf W or underflow to 0 W
        "power_sweep_dbm: [1.0e5]\n",
        "power_sweep_dbm: [0, -1.0e5]\n",
        # AP-user gains that underflow to 0 or overflow to inf
        "system: {d_ap_irs_m: 1.0e200}\n",
        "system: {ref_attenuation_db: -400, pathloss_exponent_ap_user: -66, d_ap_irs_m: 3.0e11}\n",
        # some drops would put the user within 1 m of the AP
        "system: {d_ap_irs_m: 2, d_irs_user_m: 2}\nn_drops: 20\n",
        # finite mean gains of about 1e300 whose squared cascade gain overflows
        "system: {ref_attenuation_db: -3000, n_elements: 2, n_subcarriers: 2}\n",
        # a mean SNR of about 3e115, but a received power that overflows to inf W
        "system: {ref_attenuation_db: -600, max_power_dbm: 2030, noise_dbm: 2030,"
        " n_elements: 2, n_subcarriers: 2}\npower_sweep_dbm: [2030]\n",
        # SNR and power far below the ceiling, but a mean received gain of 1.3e308
        "system: {ref_attenuation_db: -1563, max_power_dbm: -2000, n_elements: 2,"
        " n_subcarriers: 2}\npower_sweep_dbm: [-2000]\nelement_sweep: [2]\n",
        # a repeated key, which would silently keep the last value
        "n_drops: 2\nn_drops: 5\nsystem: {n_elements: 4}\nsystem: {n_subcarriers: 8}\n",
        # nesting beyond the parser's recursion, and an integer beyond Python's digit limit
        pytest.param(DEEP_NESTING, id="deep-nesting"),
        pytest.param("seed: " + "1" * 4400 + "\n", id="4400-digit-integer"),
        "output_csv: !!binary aGVsbG8=\n",
        # a section that is a falsy scalar or an empty list, not a mapping
        "system: 0\n", "system: false\n", "system: []\n", "system: ''\n", "optimizer: 0\n",
    ])
    def test_rejected_at_load_by_both_commands(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["validate-config", path]) == 2
        # --drops 1 keeps a wrongly accepted config short; it cannot mend an n_drops
        # fault, since the file is validated before the command-line overrides
        assert main(["run", path, "--drops", "1"]) == 2

    def test_deep_nesting_error_names_the_recursion(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse .*recursion"):
            load_config(write(tmp_path, DEEP_NESTING))


class TestRun:
    def test_rate_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        rc = main(["run", write(tmp_path, TINY), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep_var,")
        assert len(lines) == 1 + 2 * 3
        assert "power_dbm = 0.0" in capsys.readouterr().err

    def test_defaults_to_stdout(self, tmp_path, capsys):
        rc = main(["run", write(tmp_path, TINY)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("sweep_var,")

    def test_scenario_and_drops_overrides(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["run", write(tmp_path, TINY), "--scenario", "convergence-trace",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "stage,iteration,objective"

    def test_drops_override_lands_in_csv(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = main(["run", write(tmp_path, TINY), "--drops", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].split(",")[5] == "3"

    def test_seed_override_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write(tmp_path, TINY)
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--seed", "9", "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()

    @pytest.mark.parametrize("override", [["--drops", "0"], ["--seed", "-1"],
                                          ["--drops", "1000000000000"]],
                             ids=["drops-0", "seed-negative", "drops-beyond-cap"])
    def test_invalid_override_is_config_error(self, tmp_path, override):
        assert main(["run", write(tmp_path, TINY), *override]) == 2

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.csv"
        if where == "flag":
            args = ["run", write(tmp_path, TINY), "--out", str(out)]
        else:
            args = ["run", write(tmp_path, TINY + f"output_csv: {out}\n")]
        assert main(args) == 2
        assert "configuration error: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing-dir", "directory", "read-only-file",
                                        "file-in-read-only-folder"])
    def test_unwritable_output_fails_before_simulating(self, tmp_path, monkeypatch, target):
        writable = target == "file-in-read-only-folder"
        calls = []

        def stop(cfg):
            calls.append(cfg)
            raise PowerAllocationError("stop after the output check")

        monkeypatch.setitem(RUNNERS, "rate-vs-power", stop)
        out = {"missing-dir": tmp_path / "missing" / "x.csv",
               "directory": tmp_path}.get(target, tmp_path / "old.csv")
        # open(out, "w") truncates an existing file, which needs its own permission only
        read_only = {"read-only-file": out, "file-in-read-only-folder": tmp_path}.get(target)
        if read_only is not None:
            out.write_text("old\n")
            # root ignores file modes, so the permission answer is patched in
            access = os.access
            monkeypatch.setattr("os.access",
                                lambda path, mode: access(path, mode) and path != str(read_only))
        assert main(["run", write(tmp_path, TINY), "--out", str(out)]) == (3 if writable else 2)
        assert len(calls) == writable

    def test_existing_output_is_left_alone_until_written(self, tmp_path, monkeypatch):
        out = tmp_path / "rates.csv"
        out.write_text("old\n")

        def check_untouched(cfg):
            assert out.read_text() == "old\n"
            raise PowerAllocationError("stop after the check")

        monkeypatch.setitem(RUNNERS, "rate-vs-power", check_untouched)
        assert main(["run", write(tmp_path, TINY), "--out", str(out)]) == 3
        assert out.read_text() == "old\n"

    def test_bad_config_file(self, tmp_path):
        assert main(["run", write(tmp_path, "power_sweep_dbm: []\n")]) == 2

    def test_unreachable_phase_is_numerical_failure(self, tmp_path, capsys):
        cfg = write(tmp_path, ("scenario: model-validation\n"
                               "validation:\n  target_phases_deg: [180]\n"))
        out = tmp_path / "val.csv"
        rc = main(["run", cfg, "--out", str(out)])
        assert rc == 3
        assert "failed" in capsys.readouterr().err

    def test_singular_circuit_is_numerical_failure(self, tmp_path, capsys):
        # the grid's second frequency, 5e305 Hz, overflows the circuit's reflection
        cfg = write(tmp_path, "scenario: model-validation\nvalidation: {f_max_hz: 1.0e308}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "val.csv")]) == 3
        assert capsys.readouterr().err == ("numerical failure: reflection is non-finite "
                                           "at f = 5e+305 Hz\n")

    @pytest.mark.parametrize("section", [
        "circuit: {l1_h: 1.0e100}", "circuit: {l1_h: 1.0e300}", "circuit: {r_ohm: 1.0e100}",
        "circuit: {r_ohm: 1.0e300}", "circuit: {z0_ohm: 1.0e150}", "circuit: {z0_ohm: 1.0e300}",
        "system: {center_frequency_hz: 1.0e300}", "system: {center_frequency_hz: 1.0e-300}",
        # finite quadratic coefficients whose root quotients overflow
        "circuit: {l1_h: 1.0e-300, r_ohm: 1.0e300, z0_ohm: 1.0e-300}\n"
        "system: {center_frequency_hz: 1.0e150}",
        # |N|^2 and |D|^2 coefficients that overflow
        "circuit: {l1_h: 1.0, r_ohm: 0.0, z0_ohm: 1.5e308}\n"
        "system: {center_frequency_hz: 2.38732414637843e+307}",
    ])
    def test_overflowing_capacitance_solve_is_numerical_failure(self, tmp_path, capsys, section):
        # the solve overflows: its finite candidates miss the target, or none is finite
        cfg = write(tmp_path, f"scenario: model-validation\n{section}\n")
        assert main(["validate-config", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "val.csv")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("failed: " in err or "numerical failure: " in err)

    def test_lossless_circuit_validates(self, tmp_path):
        # the zero-phase target puts a lossless element exactly at resonance, where phi = 1
        cfg = write(tmp_path, "scenario: model-validation\ncircuit: {r_ohm: 0.0}\n")
        out = tmp_path / "val.csv"
        assert main(["run", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            amps = [float(row["circuit_amp"]) for row in csv.DictReader(fh)]
        assert len(amps) == 5 * 201
        np.testing.assert_allclose(amps, 1.0, atol=1e-12, rtol=0.0)

    def test_singular_range_end_is_not_evaluated(self, tmp_path):
        # the reflection at c_min is not finite, but every target has a hit in range
        cfg = write(tmp_path, "scenario: model-validation\ncircuit: {c_min_f: 1.0e-320}\n")
        out = tmp_path / "val.csv"
        assert main(["run", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            targets = {row["target_phase_deg"] for row in csv.DictReader(fh)}
        assert len(targets) == 5

    def test_model_validation_writes_curves(self, tmp_path, capsys):
        cfg = write(tmp_path, ("scenario: model-validation\n"
                               "validation:\n  n_points: 11\n"))
        out = tmp_path / "val.csv"
        rc = main(["run", cfg, "--out", str(out)])
        assert rc == 0
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert body.shape == (5 * 11, 6)
        assert "max phase error" in capsys.readouterr().err

    def test_nonconverged_designs_are_reported(self, tmp_path, capsys):
        # a design also stalls when its last coordinate descent stops at max_sweeps;
        # two desk drops have such designs where the tiny config has none
        for text, caps in [(TINY + "optimizer: {max_outer: 1}\n", (1, 20)),
                           ("n_drops: 2\noptimizer: {max_sweeps: 1}\n", (30, 1))]:
            path = write(tmp_path, text)
            stalled = run_rate_vs_power(load_config(path)).nonconverged
            assert stalled > 0
            assert main(["run", path, "--out", str(tmp_path / "rates.csv")]) == 0
            assert ("warning: {} designs stopped at max_outer = {} or max_sweeps = {} "
                    "without converging".format(stalled, *caps) in capsys.readouterr().err)

    def test_default_run_reports_no_nonconvergence(self, tmp_path, capsys):
        # the default config: rate-vs-power, N = 32, K = 16, 9 powers
        rc = main(["run", write(tmp_path, "{}\n"), "--drops", "1",
                   "--out", str(tmp_path / "rates.csv")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "power_dbm = " in err
        assert "without converging" not in err

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("scenario", ["model-validation", "rate-vs-power",
                                          pytest.param(None, id="validate-config")])
    def test_closed_stdout_is_config_error(self, tmp_path, scenario, buffered):
        # a reader that exits at once, as in `irsofdm run CFG | true`; a buffered stdout
        # still holds the failed bytes when the interpreter flushes it at exit, and the
        # read end closes before the child starts, so even validate-config's one line breaks
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        cfg = write(tmp_path, TINY)
        command = (["validate-config", cfg] if scenario is None
                   else ["run", cfg, "--scenario", scenario, "--drops", "1"])
        with subprocess.Popen([sys.executable, "-m", "irsofdm.cli", *command], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            proc.stdout.close()  # before the interpreter has even imported the package
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        assert err.splitlines() == ["configuration error: cannot write standard output: "
                                    "[Errno 32] Broken pipe"]
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    def test_stdout_closed_at_start_is_config_error(self, tmp_path, command):
        # as in `irsofdm run CFG >&-`: the interpreter starts with no stdout at all
        out = subprocess.run([sys.executable, "-m", "irsofdm.cli", command, write(tmp_path, TINY)],
                             env=source_env(), preexec_fn=lambda: os.close(1),
                             stderr=subprocess.PIPE, text=True)
        assert out.returncode == 2
        assert out.stderr == "configuration error: cannot write standard output: it is closed\n"

    @pytest.mark.parametrize("stderr, text, code", [
        ("closed", TINY, 0), ("closed", "n_drops: [\n", 2), ("broken", TINY, 0),
        ("broken", "scenario: model-validation\nvalidation: {target_phases_deg: [180]}\n", 3),
    ], ids=["closed-ok", "closed-config-error", "broken-ok", "broken-numerical-failure"])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, stderr, text, code):
        # `2>&-` starts the interpreter with no stderr; a reader that exits at once
        # breaks the pipe under a buffered stderr; a traceback would give exit 1
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        args = [sys.executable, "-m", "irsofdm.cli", "run", write(tmp_path, text),
                "--out", str(tmp_path / "out.csv")]
        if stderr == "closed":
            streams = dict(preexec_fn=lambda: os.close(2))
        else:
            streams = dict(stderr=subprocess.PIPE)
        with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True, **streams) as proc:
            if proc.stderr is not None:
                proc.stderr.close()
            assert proc.stdout.read() == ""  # the lost lines do not move to stdout
            assert proc.wait(timeout=60) == code
        assert (tmp_path / "out.csv").exists() == (code != 2)

    def test_extreme_model_coefficient_runs_without_warnings(self, tmp_path):
        # alpha1 = 1e300 overflows the squared detuning; the clamped A is still 1
        cfg = write(tmp_path, ("n_drops: 1\nsystem: {n_elements: 2, n_subcarriers: 2}\n"
                               "model: {alpha1: 1.0e300}\n"))
        out = subprocess.run([sys.executable, "-m", "irsofdm.cli", "run", cfg,
                              "--out", str(tmp_path / "rates.csv")],
                             env=source_env(), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "RuntimeWarning" not in out.stderr
        assert "power_dbm = " in out.stderr

    def test_element_sweep_scenario(self, tmp_path):
        cfg = write(tmp_path, ("scenario: rate-vs-elements\n"
                               "n_drops: 2\n"
                               "element_sweep: [0, 2]\n"
                               "system:\n  n_elements: 2\n  n_subcarriers: 4\n"))
        out = tmp_path / "elems.csv"
        assert main(["run", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        assert lines[1].split(",")[0] == "n_elements"


RATES = r"practical \d+\.\d{4}, ideal \d+\.\d{4}, no_irs \d+\.\d{4} bit/s/Hz"
GAP = (r"-?\d+\.\d{4} \+- \d+\.\d{4} bit/s/Hz \(paired mean \+- standard error\), "
       r"below 0 in [012] of 2 drops")
ONE_DROP_GAP = r"-?\d+\.\d{4} bit/s/Hz \(one drop: no standard error\), below 0 in [01] of 1 drops"
PHASE_ERRORS = r"max phase error \d+\.\d{4} rad, max amplitude error \d+\.\d{4}"


def with_gaps(point, gap=GAP):
    """A sweep point's summary line and the two paired-gap lines that follow it."""
    return [point, rf"  practical - ideal: {gap}", rf"  ideal - no_irs: {gap}"]


@pytest.mark.parametrize("scenario, extra, lines", [
    ("model-validation", "validation: {n_points: 3, target_phases_deg: [0, -60]}\n",
     [rf"target \+0\.0 deg: {PHASE_ERRORS}", rf"target -60\.0 deg: {PHASE_ERRORS}"]),
    ("rate-vs-power", "",
     with_gaps(rf"power_dbm = 0\.0: {RATES}") + with_gaps(rf"power_dbm = 10\.0: {RATES}")),
    ("rate-vs-elements", "element_sweep: [0, 2]\n",
     with_gaps(rf"n_elements = 0: {RATES}") + with_gaps(rf"n_elements = 2: {RATES}")),
    ("convergence-trace", "",
     [r"final rate \d+\.\d{6} bit/s/Hz after \d+ sweeps \(converged: (True|False)\)"]),
])
def test_every_scenario_prints_its_summary(tmp_path, capsys, scenario, extra, lines):
    cfg = write(tmp_path, TINY + extra)
    assert main(["run", cfg, "--scenario", scenario, "--out", str(tmp_path / "out.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(lines)
    for line, pattern in zip(err, lines):
        assert re.fullmatch(pattern, line), line


def test_one_drop_summary_has_no_standard_error(tmp_path, capsys):
    # and no RuntimeWarning: this module turns one into an error
    assert main(["run", write(tmp_path, TINY), "--drops", "1",
                 "--out", str(tmp_path / "out.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    lines = (with_gaps(rf"power_dbm = 0\.0: {RATES}", ONE_DROP_GAP)
             + with_gaps(rf"power_dbm = 10\.0: {RATES}", ONE_DROP_GAP))
    assert len(err) == len(lines)
    for line, pattern in zip(err, lines):
        assert re.fullmatch(pattern, line), line


def test_every_scenario_and_the_fit_run_without_scipy(tmp_path):
    # the package needs numpy and PyYAML only; an import of scipy fails here
    cfg = write(tmp_path, TINY + "element_sweep: [0, 2]\n"
                "validation: {n_points: 3, target_phases_deg: [0, -60]}\n")
    code = f"""
import json, sys
sys.modules["scipy"] = None
import numpy as np
from irsofdm import ModelParams, fit_model, model_response
from irsofdm.cli import main
from irsofdm.config import SCENARIOS
codes = {{s: main(["run", {cfg!r}, "--scenario", s, "--drops", "1",
                   "--out", {str(tmp_path / "out.csv")!r}]) for s in SCENARIOS}}
# acceptance check 3: the generating curves from a perturbed start
centers, freqs = np.deg2rad([-90.0, 0.0, 90.0])[:, None], np.linspace(2.3e9, 2.5e9, 21)
amplitude, phase = model_response(ModelParams(), centers, freqs)
start = ModelParams().as_array() * (1.0 + np.random.default_rng(3).uniform(-0.1, 0.1, 7))
_, report = fit_model(centers, freqs, phase, amplitude, ModelParams.from_array(start))
error = max(report.max_phase_error.max(), report.max_amplitude_error.max())
loaded = [m for m, mod in sys.modules.items() if m.partition(".")[0] == "scipy" and mod]
print(json.dumps([codes, error, loaded]))
"""
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                         text=True, check=True)
    codes, error, loaded = json.loads(out.stdout)
    assert codes == {s: 0 for s in SCENARIOS}
    assert error <= 1e-3
    assert loaded == []


# Config fuzz: a tiny valid config (1 drop, N <= 4, K <= 4, 2 sweep points) in
# one of the scenarios, with one to three keys set to a finite extreme or a
# documented bound (1 m distances, 1 to 8 codebook bits, the 2**26 size cap).
# The keys come from the loader tables, so a key added later is drawn too.
# Size keys take only values that keep the run tiny or that the loader rejects.
EXTREMES = [0, 1e-300, -1e-300, 1e300, -1e300]
BOUNDS = [1, -1, 8, 9, 2 ** 26]
SIZES = {"n_drops": [1], "n_elements": [1, 4], "n_subcarriers": [1, 4], "n_taps": [1, 4],
        "n_points": [1, 4], "element_sweep": [4]}
BASE = {"n_drops": 1, "power_sweep_dbm": [0, 30], "element_sweep": [0, 4],
        "system": {"n_elements": 4, "n_subcarriers": 4},
        "validation": {"n_points": 4, "target_phases_deg": [0, 60]}}


def _leaves(table, prefix=()):
    for key, (_, convert) in table.items():
        if isinstance(convert, dict):
            yield from _leaves(convert, prefix + (key,))
        else:
            yield prefix + (key,), convert


# the list-valued keys: every converter that `_list_of` builds runs its code
LISTS = {path[-1] for path, convert in _leaves(_TOP)
         if convert.__code__ is _list_of(None).__code__}


@st.composite
def config_dicts(draw):
    raw = {**BASE, "scenario": draw(st.sampled_from(SCENARIOS)),
           "system": dict(BASE["system"]), "validation": dict(BASE["validation"])}
    paths = st.sampled_from([path for path, _ in _leaves(_TOP)])
    for *sections, key in draw(st.lists(paths, min_size=1, max_size=3, unique=True)):
        extra = list(SCENARIOS) if key == "scenario" else SIZES.get(key, BOUNDS)
        value = st.sampled_from(EXTREMES + extra)
        if key in LISTS:
            value = st.lists(value, max_size=2)
        target = raw
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = draw(value)
    return raw


def _finite_numbers(path):
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            for field in row:
                try:
                    value = float(field)
                except ValueError:
                    continue  # a label such as the scheme or the stage
                if not math.isfinite(value):
                    return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True)
@example({"n_drops": 1, "system": {"ref_attenuation_db": -3000, "n_elements": 2,
                                   "n_subcarriers": 2}})
@example({"scenario": "model-validation", "circuit": {"l1_h": 1.0e300}})
@given(config_dicts())
def test_no_config_escapes_the_exit_codes(raw):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "cfg.yaml")
        out = os.path.join(folder, "out.csv")
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh)
        checked = main(["validate-config", path])
        ran = main(["run", path, "--out", out])
        assert checked in (0, 2) and ran in (0, 2, 3)
        assert (checked == 2) == (ran == 2)
        if ran == 0:
            assert _finite_numbers(out)


# YAML-text fuzz: a tiny config (1 drop, N = K = 4, 2 sweep points) written as
# text, with up to two entries replaced by fragments that no dumped mapping
# holds (long integer literals, deep nesting, anchors, aliases and merge keys,
# repeated keys, sections that are scalars or lists, and tags) and, one time in
# four, an entry repeated.  `&p` and `&o` anchor the base's power sweep and
# optimizer section; a fragment that replaces one leaves its aliases undefined.
TEXT_BASE = {"n_drops": "1", "power_sweep_dbm": "&p [0, 30]", "element_sweep": "[0, 4]",
             "optimizer": "&o {max_outer: 2}", "system": "{n_elements: 4, n_subcarriers: 4}",
             "validation": "{n_points: 4, target_phases_deg: *p}"}
FRAGMENTS = [
    "0", "4", "false", "''", "null", "[]", "[1, 2]", "{}", "1" * 25, "1" * 4400,
    "*p", "*o", "[&q 4, *q]", "{<<: *o}", "{<<: *o, max_sweeps: 3}", "{<<: [*o, *o]}",
    "{n_elements: 2, n_elements: 3}", "[" * 50 + "]" * 50,
    "{a: " * 1000 + "1" + "}" * 1000,  # beyond the parser's recursion
    "!!binary aGVsbG8=", "!!timestamp 2001-12-14", "!!set {a, b}",
    "!!python/object:builtins.object {}",
]


@st.composite
def config_texts(draw):
    entries = dict(TEXT_BASE, scenario=draw(st.sampled_from(SCENARIOS)))
    for key in draw(st.lists(st.sampled_from(sorted(_TOP)), max_size=2, unique=True)):
        entries[key] = draw(st.sampled_from(FRAGMENTS))
    lines = [f"{key}: {value}" for key, value in entries.items()]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(lines)))  # a repeated key
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config_texts())
def test_no_config_text_escapes_the_exit_codes(text):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "cfg.yaml")
        with open(path, "w") as fh:
            fh.write(text)
        checked = main(["validate-config", path])
        ran = main(["run", path, "--out", os.path.join(folder, "out.csv")])
        assert checked in (0, 2) and ran in (0, 2, 3)
        assert (checked == 2) == (ran == 2)
