"""Experiment configuration: defaults, YAML loading, validation.

Config files are nested YAML mappings mirroring the dataclasses below.  Keys
carry their unit in the name (bandwidth_hz, max_power_dbm, d_ap_irs_m) and
unknown keys are rejected so typos fail loudly instead of silently keeping a
default.  Numeric values are coerced with float()/int(), which also accepts
forms like "100e6" that YAML would otherwise read as strings.
"""

from __future__ import annotations

import dataclasses

import yaml

from .channel import PathLossExponents, SystemConfig, dbm_to_watts
from .circuit import CircuitParams
from .reflection_model import ModelParams, codebook


class ConfigError(Exception):
    """Configuration file is unreadable, malformed or inconsistent."""


SCENARIOS = ("model-validation", "rate-vs-power", "rate-vs-elements", "convergence-trace")


@dataclasses.dataclass(frozen=True)
class OptimizerSettings:
    eps_rate: float = 1e-4   # outer-loop improvement threshold, bit/s/Hz
    max_outer: int = 30
    max_sweeps: int = 20

    def __post_init__(self):
        if self.eps_rate <= 0.0:
            raise ValueError("eps_rate must be positive")
        if self.max_outer < 1 or self.max_sweeps < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclasses.dataclass(frozen=True)
class ValidationSettings:
    """Frequency grid and target phases for the model-validation scenario."""

    f_min: float = 2.3e9
    f_max: float = 2.5e9
    n_points: int = 201
    target_phases_deg: tuple = (0.0, 60.0, -60.0, 120.0, -120.0)

    def __post_init__(self):
        if not 0.0 < self.f_min <= self.f_max:
            raise ValueError("need 0 < f_min <= f_max")
        if self.n_points < 1:
            raise ValueError("need at least one grid point")
        if len(self.target_phases_deg) == 0:
            raise ValueError("need at least one target phase")


def _desk_system():
    # small enough that every scenario runs in seconds on a laptop
    return SystemConfig(n_elements=32, n_subcarriers=16)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "rate-vs-power"
    seed: int = 0
    n_drops: int = 100
    output_csv: str | None = None
    codebook_bits: int = 3
    power_sweep_dbm: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    element_sweep: tuple = (16, 32, 64)
    system: SystemConfig = dataclasses.field(default_factory=_desk_system)
    circuit: CircuitParams = dataclasses.field(default_factory=CircuitParams)
    model: ModelParams = dataclasses.field(default_factory=ModelParams)
    optimizer: OptimizerSettings = dataclasses.field(default_factory=OptimizerSettings)
    validation: ValidationSettings = dataclasses.field(default_factory=ValidationSettings)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.n_drops < 1:
            raise ValueError("need at least one drop")
        if not len(self.power_sweep_dbm):
            raise ValueError("power sweep cannot be empty")
        if not len(self.element_sweep):
            raise ValueError("element sweep cannot be empty")
        if any(n < 0 for n in self.element_sweep):
            raise ValueError("element counts cannot be negative")
        codebook(self.codebook_bits)  # raises ValueError outside 1..8 bits


def default_config(scenario="rate-vs-power"):
    return ExperimentConfig(scenario=scenario)


def _as_float(sec, key):
    try:
        return float(sec[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r} must be a number, got {sec[key]!r}") from exc


def _as_int(sec, key):
    val = _as_float(sec, key)
    if not val.is_integer():
        raise ConfigError(f"key {key!r} must be an integer, got {sec[key]!r}")
    return int(val)


def _as_tuple(sec, key, conv):
    """A list value with every item converted by `conv` (_as_float or _as_int)."""
    if not isinstance(sec[key], (list, tuple)):
        raise ConfigError(f"{key} must be a list")
    # each item under its own name, so an error says which one is bad
    items = {f"{key}[{i}]": item for i, item in enumerate(sec[key])}
    return tuple(conv(items, name) for name in items)


def _section(raw, name, allowed):
    sec = raw.get(name) or {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = sorted(set(sec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {unknown}")
    return sec


_TOP_KEYS = ("scenario", "seed", "n_drops", "output_csv", "codebook_bits",
             "power_sweep_dbm", "element_sweep",
             "system", "circuit", "model", "optimizer", "validation")
_SYSTEM_KEYS = ("n_elements", "n_subcarriers", "bandwidth_hz", "center_frequency_hz",
                "max_power_dbm", "noise_dbm", "d_ap_irs_m", "d_irs_user_m",
                "ref_attenuation_db", "pathloss_exponent_ap_irs",
                "pathloss_exponent_irs_user", "pathloss_exponent_ap_user", "n_taps")
_CIRCUIT_KEYS = ("l1_h", "l2_h", "r_ohm", "z0_ohm", "c_min_f", "c_max_f")
_MODEL_KEYS = ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3")
_OPTIMIZER_KEYS = ("eps_rate", "max_outer", "max_sweeps")
_VALIDATION_KEYS = ("f_min_hz", "f_max_hz", "n_points", "target_phases_deg")


def _build_system(raw):
    sec = _section(raw, "system", _SYSTEM_KEYS)
    base = _desk_system()
    kwargs = {}
    for key, arg, conv in (
            ("n_elements", "n_elements", _as_int),
            ("n_subcarriers", "n_subcarriers", _as_int),
            ("bandwidth_hz", "bandwidth", _as_float),
            ("center_frequency_hz", "center_frequency", _as_float),
            ("d_ap_irs_m", "d_ap_irs", _as_float),
            ("d_irs_user_m", "d_irs_user", _as_float),
            ("ref_attenuation_db", "ref_attenuation_db", _as_float),
            ("n_taps", "n_taps", _as_int)):
        if key in sec:
            kwargs[arg] = conv(sec, key)
    if "max_power_dbm" in sec:
        kwargs["max_power"] = float(dbm_to_watts(_as_float(sec, "max_power_dbm")))
    if "noise_dbm" in sec:
        kwargs["noise_variance"] = float(dbm_to_watts(_as_float(sec, "noise_dbm")))
    exps = dataclasses.asdict(base.exponents)
    for key, arg in (("pathloss_exponent_ap_irs", "ap_irs"),
                     ("pathloss_exponent_irs_user", "irs_user"),
                     ("pathloss_exponent_ap_user", "ap_user")):
        if key in sec:
            exps[arg] = _as_float(sec, key)
    kwargs["exponents"] = PathLossExponents(**exps)
    return dataclasses.replace(base, **kwargs)


def _build_circuit(raw):
    sec = _section(raw, "circuit", _CIRCUIT_KEYS)
    kwargs = {}
    for key, arg in (("l1_h", "l1"), ("l2_h", "l2"), ("r_ohm", "r"),
                     ("z0_ohm", "z0"), ("c_min_f", "c_min"), ("c_max_f", "c_max")):
        if key in sec:
            kwargs[arg] = _as_float(sec, key)
    return CircuitParams(**kwargs)


def _build_model(raw):
    sec = _section(raw, "model", _MODEL_KEYS)
    return ModelParams(**{key: _as_float(sec, key) for key in sec})


def _build_optimizer(raw):
    sec = _section(raw, "optimizer", _OPTIMIZER_KEYS)
    kwargs = {}
    if "eps_rate" in sec:
        kwargs["eps_rate"] = _as_float(sec, "eps_rate")
    for key in ("max_outer", "max_sweeps"):
        if key in sec:
            kwargs[key] = _as_int(sec, key)
    return OptimizerSettings(**kwargs)


def _build_validation(raw):
    sec = _section(raw, "validation", _VALIDATION_KEYS)
    kwargs = {}
    if "f_min_hz" in sec:
        kwargs["f_min"] = _as_float(sec, "f_min_hz")
    if "f_max_hz" in sec:
        kwargs["f_max"] = _as_float(sec, "f_max_hz")
    if "n_points" in sec:
        kwargs["n_points"] = _as_int(sec, "n_points")
    if "target_phases_deg" in sec:
        kwargs["target_phases_deg"] = _as_tuple(sec, "target_phases_deg", _as_float)
    return ValidationSettings(**kwargs)


def config_from_dict(raw):
    """Build an ExperimentConfig from a nested mapping of overrides."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = sorted(set(raw) - set(_TOP_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level keys: {unknown}")
    kwargs = {}
    if "scenario" in raw:
        kwargs["scenario"] = str(raw["scenario"])
    if "seed" in raw:
        kwargs["seed"] = _as_int(raw, "seed")
    if "n_drops" in raw:
        kwargs["n_drops"] = _as_int(raw, "n_drops")
    if "output_csv" in raw and raw["output_csv"] is not None:
        kwargs["output_csv"] = str(raw["output_csv"])
    if "codebook_bits" in raw:
        kwargs["codebook_bits"] = _as_int(raw, "codebook_bits")
    if "power_sweep_dbm" in raw:
        kwargs["power_sweep_dbm"] = _as_tuple(raw, "power_sweep_dbm", _as_float)
    if "element_sweep" in raw:
        kwargs["element_sweep"] = _as_tuple(raw, "element_sweep", _as_int)
    try:
        return ExperimentConfig(
            system=_build_system(raw),
            circuit=_build_circuit(raw),
            model=_build_model(raw),
            optimizer=_build_optimizer(raw),
            validation=_build_validation(raw),
            **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path):
    """Read and validate a YAML experiment configuration."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
