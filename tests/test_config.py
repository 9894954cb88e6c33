"""YAML configuration loading and validation."""

import dataclasses

import numpy as np
import pytest

from irsofdm import config
from irsofdm.config import (
    ConfigError,
    ExperimentConfig,
    OptimizerSettings,
    ValidationSettings,
    config_from_dict,
    load_config,
)


def write(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_file_yields_desk_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.scenario == "rate-vs-power"
        assert cfg.system.n_elements == 32
        assert cfg.system.n_subcarriers == 16
        assert cfg.codebook_bits == 3
        assert cfg.optimizer == OptimizerSettings()
        assert cfg.validation == ValidationSettings()

    def test_null_section_keeps_its_defaults(self, tmp_path):
        # `system:` with nothing under it is YAML null, an empty section
        cfg = load_config(write(tmp_path, "seed: 4\nsystem:\noptimizer:\n"))
        assert cfg == dataclasses.replace(ExperimentConfig(), seed=4)


class TestOverrides:
    def test_overrides_set_top_level_keys(self, tmp_path):
        cfg = load_config(write(tmp_path, "seed: 4\nn_drops: 7\n"),
                          {"scenario": "convergence-trace", "n_drops": 2})
        assert cfg == dataclasses.replace(ExperimentConfig(), scenario="convergence-trace",
                                          seed=4, n_drops=2)

    def test_bad_override_names_the_command_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key 'seed' in command-line overrides"):
            load_config(write(tmp_path, ""), {"seed": 2.5})


class TestUnitKeys:
    def test_dbm_keys_convert_to_watts(self, tmp_path):
        cfg = load_config(write(tmp_path, "system:\n  max_power_dbm: 20\n  noise_dbm: -104\n"))
        np.testing.assert_allclose(cfg.system.max_power, 0.1, rtol=1e-12)
        np.testing.assert_allclose(cfg.system.noise_variance, 3.9810717055349693e-14, rtol=0)

    def test_exponent_and_geometry_keys(self, tmp_path):
        cfg = load_config(write(tmp_path, (
            "system:\n"
            "  bandwidth_hz: 200e6\n"
            "  d_ap_irs_m: 40\n"
            "  pathloss_exponent_ap_user: 3.2\n"
            "  n_taps: 4\n")))
        assert cfg.system.bandwidth == 200e6
        assert cfg.system.d_ap_irs == 40.0
        assert cfg.system.exponent_ap_user == 3.2
        assert cfg.system.exponent_ap_irs == 2.5  # untouched default
        assert cfg.system.n_taps == 4

    def test_scientific_notation_strings_are_coerced(self, tmp_path):
        # plain YAML reads 100e6 as a string; the loader coerces numerics
        cfg = load_config(write(tmp_path, "system:\n  center_frequency_hz: 2.45e9\n"))
        assert cfg.system.center_frequency == 2.45e9

    def test_circuit_and_model_sections(self, tmp_path):
        cfg = load_config(write(tmp_path, (
            "circuit:\n  r_ohm: 0.5\n  c_max_f: 3.0e-12\n"
            "model:\n  alpha1: 0.21\n")))
        assert cfg.circuit.r == 0.5
        assert cfg.circuit.c_max == 3.0e-12
        assert cfg.model.alpha1 == 0.21
        assert cfg.model.beta2 == 11.02


class TestRejection:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "scenari: rate-vs-power\n"))

    def test_unknown_section_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "system:\n  n_elemts: 4\n"))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "scenario: rate-vs-time\n"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "system:\n  n_elements: many\n"))

    def test_non_integer_count(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "n_drops: 2.5\n"))

    def test_empty_sweep(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "power_sweep_dbm: []\n"))

    def test_invalid_physical_value(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "system:\n  bandwidth_hz: -1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_malformed_yaml(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "system: [unclosed\n"))

    def test_non_mapping_root(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "- a\n- b\n"))


class TestFromDict:
    def test_sweeps_and_lists(self):
        cfg = config_from_dict({
            "scenario": "rate-vs-elements",
            "element_sweep": [8, 16],
            "power_sweep_dbm": [0, 10],
            "validation": {"target_phases_deg": [0, 90]},
        })
        assert cfg.element_sweep == (8, 16)
        assert cfg.power_sweep_dbm == (0.0, 10.0)
        assert cfg.validation.target_phases_deg == (0.0, 90.0)

    def test_direct_dataclass_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_drops=0)
        with pytest.raises(ValueError):
            ExperimentConfig(element_sweep=(-1, 4))
        with pytest.raises(ValueError):
            ExperimentConfig(seed=-1)

    def test_size_cap_is_inclusive(self):
        # the configs one step beyond are in test_cli's rejected-at-load cases
        assert 2048 * 8 * 4096 == config.MAX_WORKING_VALUES
        cfg = config_from_dict({"system": {"n_elements": 2048, "n_subcarriers": 4096},
                                "validation": {"n_points": config.MAX_WORKING_VALUES,
                                               "target_phases_deg": [0]}})
        assert cfg.system.n_elements == 2048
        # the most drops whose 9 powers x 3 schemes of rates stay within the cap
        assert 2485513 * 9 * 3 <= config.MAX_WORKING_VALUES < 2485514 * 9 * 3
        assert config_from_dict({"n_drops": 2485513}).n_drops == 2485513


def _sections(table=config._TOP, cls=ExperimentConfig):
    """(table, dataclass) of the loader's root table and of each section it reads."""
    yield table, cls
    for field, convert in table.values():
        if isinstance(convert, dict):
            yield from _sections(convert, type(getattr(cls(), field)))


SECTIONS = list(_sections())


class TestLoaderTables:
    def test_every_config_dataclass_has_a_table(self):
        assert [cls.__name__ for _, cls in SECTIONS] == [
            "ExperimentConfig", "SystemConfig", "CircuitParams", "ModelParams",
            "OptimizerSettings", "ValidationSettings"]

    @pytest.mark.parametrize("table, cls", SECTIONS, ids=[cls.__name__ for _, cls in SECTIONS])
    def test_table_maps_one_to_one_onto_fields(self, table, cls):
        # a key naming a missing field would only fail when set, and then as exit 2
        fields = [field for field, _ in table.values()]
        assert len(set(fields)) == len(fields)
        assert set(fields) == {f.name for f in dataclasses.fields(cls)}

    def test_yaml_keys_are_pinned(self):
        # keys follow field names, so a renamed field would rename its key unnoticed
        assert [".".join(path) for path, _ in _leaves()] == [
            "scenario", "seed", "n_drops", "output_csv", "codebook_bits", "power_sweep_dbm",
            "element_sweep", "system.n_elements", "system.n_subcarriers", "system.bandwidth_hz",
            "system.center_frequency_hz", "system.max_power_dbm", "system.noise_dbm",
            "system.d_ap_irs_m", "system.d_irs_user_m", "system.ref_attenuation_db",
            "system.pathloss_exponent_ap_irs", "system.pathloss_exponent_irs_user",
            "system.pathloss_exponent_ap_user", "system.n_taps", "circuit.l1_h", "circuit.l2_h",
            "circuit.r_ohm", "circuit.z0_ohm", "circuit.c_min_f", "circuit.c_max_f",
            "model.alpha1", "model.alpha2", "model.alpha3", "model.alpha4", "model.beta1",
            "model.beta2", "model.beta3", "optimizer.eps_rate", "optimizer.max_outer",
            "optimizer.max_sweeps", "validation.f_min_hz", "validation.f_max_hz",
            "validation.n_points", "validation.target_phases_deg"]

    def test_only_the_dbm_floats_convert_to_watts(self):
        watts = [".".join(path) for path, convert in _leaves() if convert is config._watts]
        assert watts == ["system.max_power_dbm", "system.noise_dbm"]

    def test_every_unit_key_names_a_field(self):
        fields = {f.name for _, cls in SECTIONS for f in dataclasses.fields(cls)}
        assert set(config._UNIT_KEYS) <= fields

    def test_a_field_without_a_converter_fails_at_once(self):
        @dataclasses.dataclass(frozen=True)
        class Flags:
            verbose: bool = False

        # a bool would otherwise pass as an int, and `true` would load as 1
        with pytest.raises(TypeError, match="Flags.verbose"):
            config._table(Flags)


def _leaves(table=config._TOP, path=()):
    """(key path, converter) of every leaf of the loader tables."""
    for key, (_, convert) in table.items():
        if isinstance(convert, dict):
            yield from _leaves(convert, path + (key,))
        else:
            yield path + (key,), convert


def _numeric_keys():
    """Key paths of every non-text leaf of the loader tables."""
    return [path for path, convert in _leaves() if convert is not config._text]


def _nested(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


class TestStrictNumbers:
    @pytest.mark.parametrize("path", _numeric_keys(), ids=".".join)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_every_numeric_key_rejects_non_finite(self, path, bad):
        # a list-valued key must reject the bad value as an item too
        for value in (bad, [bad]):
            with pytest.raises(ConfigError):
                config_from_dict(_nested(path, value))

    def test_integers_are_exact(self, tmp_path):
        cfg = load_config(write(tmp_path, "seed: 9007199254740993\n"))
        assert cfg.seed == 9007199254740993
        # a list item stays exact too: the size cap quotes it unrounded
        with pytest.raises(ConfigError, match="9007199254740993 elements"):
            load_config(write(tmp_path, "element_sweep: [9007199254740993]\n"))
        # whole floats and numeric strings still load as integers
        assert load_config(write(tmp_path, "n_drops: 2.0\n")).n_drops == 2
        assert load_config(write(tmp_path, "n_drops: '1e2'\n")).n_drops == 100

    @pytest.mark.parametrize("text", [
        "n_drops: true\n",
        "seed: false\n",
        "element_sweep: [16, true]\n",
        "system: {max_power_dbm: true}\n",
        "circuit: {r_ohm: false}\n",
    ])
    def test_booleans_are_not_numbers(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))
