"""Command-line interface: subcommands, overrides and exit codes."""

import csv
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
from irsofdm.config import _TOP, SCENARIOS, ConfigError, load_config
from irsofdm.experiments import run_rate_vs_power

# a numpy warning that reaches the run's stderr fails the test that caused it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    ])
    def test_rejected_at_load_by_both_commands(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["validate-config", path]) == 2
        # --drops 1 keeps a wrongly accepted config short, but would mend an n_drops fault
        drops = [] if "n_drops" in text else ["--drops", "1"]
        assert main(["run", path, *drops]) == 2


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

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_fails_before_simulating(self, tmp_path, monkeypatch, target):
        calls = []

        def never(cfg):
            calls.append(cfg)
            raise AssertionError("simulated although the output cannot be written")

        monkeypatch.setattr("irsofdm.cli.run_rate_vs_power", never)
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        assert main(["run", write(tmp_path, TINY), "--out", str(out)]) == 2
        assert calls == []

    def test_existing_output_is_left_alone_until_written(self, tmp_path, monkeypatch):
        out = tmp_path / "rates.csv"
        out.write_text("old\n")

        def check_untouched(cfg):
            assert out.read_text() == "old\n"
            raise FloatingPointError("stop after the check")

        monkeypatch.setattr("irsofdm.cli.run_rate_vs_power", check_untouched)
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
        # the lossless circuit's branches cancel at a capacitance the phase solver visits
        cfg = write(tmp_path, "scenario: model-validation\ncircuit: {r_ohm: 0.0}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "val.csv")]) == 3
        assert "numerical failure: impedance is non-finite" in capsys.readouterr().err

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
        path = write(tmp_path, TINY + "optimizer: {max_outer: 1}\n")
        stalled = run_rate_vs_power(load_config(path)).nonconverged
        assert stalled > 0
        assert main(["run", path, "--out", str(tmp_path / "rates.csv")]) == 0
        assert (f"warning: {stalled} designs stopped at max_outer = 1 without converging"
                in capsys.readouterr().err)

    def test_default_run_reports_no_nonconvergence(self, tmp_path, capsys):
        # the default config: rate-vs-power, N = 32, K = 16, 9 powers
        rc = main(["run", write(tmp_path, "{}\n"), "--drops", "1",
                   "--out", str(tmp_path / "rates.csv")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "power_dbm = " in err
        assert "without converging" not in err

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
PHASE_ERRORS = r"max phase error \d+\.\d{4} rad, max amplitude error \d+\.\d{4}"


@pytest.mark.parametrize("scenario, extra, lines", [
    ("model-validation", "validation: {n_points: 3, target_phases_deg: [0, -60]}\n",
     [rf"target \+0\.0 deg: {PHASE_ERRORS}", rf"target -60\.0 deg: {PHASE_ERRORS}"]),
    ("rate-vs-power", "", [rf"power_dbm = 0\.0: {RATES}", rf"power_dbm = 10\.0: {RATES}"]),
    ("rate-vs-elements", "element_sweep: [0, 2]\n",
     [rf"n_elements = 0: {RATES}", rf"n_elements = 2: {RATES}"]),
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


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize takes most of a fresh start-up and only fit_model uses it
    code = "import sys, irsofdm.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# Config fuzz: a tiny valid config (1 drop, N <= 4, K <= 4, 2 sweep points) in
# one of the scenarios, with one to three keys set to a finite extreme or a
# documented bound (1 m distances, 1 to 8 codebook bits, the 2**26 size cap).
# The keys come from the loader tables, so a key added later is drawn too.
# Size keys take only values that keep the run tiny or that the loader rejects.
EXTREMES = [0, 1e-300, -1e-300, 1e300, -1e300]
BOUNDS = [1, -1, 8, 9, 2 ** 26]
SIZES = {"n_drops": [1], "n_elements": [1, 4], "n_subcarriers": [1, 4], "n_taps": [1, 4],
        "n_points": [1, 4], "element_sweep": [4]}
LISTS = {"power_sweep_dbm", "element_sweep", "target_phases_deg"}
BASE = {"n_drops": 1, "power_sweep_dbm": [0, 30], "element_sweep": [0, 4],
        "system": {"n_elements": 4, "n_subcarriers": 4},
        "validation": {"n_points": 4, "target_phases_deg": [0, 60]}}


def _key_paths(table, prefix=()):
    for key, (_, convert) in table.items():
        if isinstance(convert, dict):
            yield from _key_paths(convert, prefix + (key,))
        else:
            yield prefix + (key,)


@st.composite
def config_dicts(draw):
    raw = {**BASE, "scenario": draw(st.sampled_from(SCENARIOS)),
           "system": dict(BASE["system"]), "validation": dict(BASE["validation"])}
    paths = st.sampled_from(list(_key_paths(_TOP)))
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
