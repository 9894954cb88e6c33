"""Experiment configuration: defaults, YAML loading, validation.

Config files are nested YAML mappings mirroring the settings dataclasses below,
which are the one list of keys: a key is its field's name or, in `_UNIT_KEYS`,
that name with its unit (bandwidth_hz, d_ap_irs_m), and a float read in dBm is
held in watts.  Any other key is rejected so typos fail loudly instead of
silently keeping a default.  Numbers must be finite (forms like "100e6", which
YAML reads as strings, are accepted), integers are exact, and booleans are not numbers.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np
import yaml

from .channel import SystemConfig, dbm_to_watts
from .circuit import CircuitParams
from .experiments import RUNNERS, SCHEMES
from .optimizer import OptimizerSettings
from .reflection_model import ModelParams, codebook


class ConfigError(Exception):
    """Configuration file is unreadable, malformed or inconsistent."""


SCENARIOS = tuple(RUNNERS)  # a tuple: error messages print it, sampled_from takes it

# Largest working array a config may ask for, in values.  The largest per drop is
# the coordinate-descent kernel's (N, 2**bits, K) complex candidate table (2**26
# of them is 1 GiB); N * n_taps * K also bounds the channel draw's (N, n_taps)
# and (n_taps, K) arrays.  The rate sweeps' per-drop results (n_drops per sweep
# point and scheme) are capped on their own, as is model validation's targets x
# grid points, which sizes its four curves and its complex (T, F) sweep temporaries.
MAX_WORKING_VALUES = 2 ** 26

# Ceiling on the mean received gain, power (W) and SNR, with every element in
# phase at the largest budget and element count.  A Rayleigh power exceeds its
# mean t-fold with probability about exp(-t), so 1e200 leaves the squared gains
# and the rates 1e108 of headroom for the tails below the float range (1.8e308).
MAX_MEAN_RECEIVED = 1e200


@dataclasses.dataclass(frozen=True)
class ValidationSettings:
    """Frequency grid and target phases for the model-validation scenario."""

    f_min: float = 2.3e9
    f_max: float = 2.5e9
    n_points: int = 201
    target_phases_deg: tuple[float, ...] = (0.0, 60.0, -60.0, 120.0, -120.0)

    def __post_init__(self):
        if not 0.0 < self.f_min <= self.f_max:
            raise ValueError("need 0 < f_min <= f_max")
        if self.n_points < 1:
            raise ValueError("need at least one grid point")
        n_targets = len(self.target_phases_deg)
        if n_targets == 0:
            raise ValueError("need at least one target phase")
        size = n_targets * self.n_points  # values in each curve and sweep temporary
        if size > MAX_WORKING_VALUES:
            raise ValueError(f"{n_targets} target phases x {self.n_points} grid points = {size} "
                             f"values exceed the cap of {MAX_WORKING_VALUES}")


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
    power_sweep_dbm: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    element_sweep: tuple[int, ...] = (16, 32, 64)
    system: SystemConfig = dataclasses.field(default_factory=_desk_system)
    circuit: CircuitParams = dataclasses.field(default_factory=CircuitParams)
    model: ModelParams = dataclasses.field(default_factory=ModelParams)
    optimizer: OptimizerSettings = dataclasses.field(default_factory=OptimizerSettings)
    validation: ValidationSettings = dataclasses.field(default_factory=ValidationSettings)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_drops < 1:
            raise ValueError("need at least one drop")
        if not len(self.power_sweep_dbm):
            raise ValueError("power sweep cannot be empty")
        with np.errstate(over="ignore"):
            budgets = dbm_to_watts(self.power_sweep_dbm)
        if not np.all((budgets > 0.0) & (budgets < np.inf)):
            raise ValueError("every power_sweep_dbm point must be a finite budget above 0 W")
        if not len(self.element_sweep):
            raise ValueError("element sweep cannot be empty")
        if any(n < 0 for n in self.element_sweep):
            raise ValueError("element counts cannot be negative")
        codebook(self.codebook_bits)  # raises ValueError outside 1..8 bits
        n_points = max(len(self.power_sweep_dbm), len(self.element_sweep))
        results = self.n_drops * n_points * len(SCHEMES)
        if results > MAX_WORKING_VALUES:
            raise ValueError(f"{self.n_drops} drops x {n_points} sweep points x {len(SCHEMES)} "
                             f"schemes = {results} rates exceed the cap of {MAX_WORKING_VALUES}")
        n_max = max(1, self.system.n_elements, *self.element_sweep)
        per_element = max(2 ** self.codebook_bits, self.system.n_taps)
        size = n_max * per_element * self.system.n_subcarriers
        if size > MAX_WORKING_VALUES:
            raise ValueError(f"{n_max} elements x {per_element} codebook entries or taps x "
                             f"{self.system.n_subcarriers} subcarriers = {size} values "
                             f"exceed the cap of {MAX_WORKING_VALUES}")
        g_ai, g_iu, *g_au = self.system.mean_link_gains()
        with np.errstate(over="ignore"):
            received = max(g_au) + n_max ** 2 * g_ai * g_iu
            power = max(self.system.max_power, budgets.max()) * received
            snr = power / self.system.noise_variance
        if not max(received, power, snr) <= MAX_MEAN_RECEIVED:
            raise ValueError(f"mean received gain {received:.3g}, power {power:.3g} W or SNR "
                             f"{snr:.3g} exceeds the ceiling of {MAX_MEAN_RECEIVED:g}")


def _number(value):
    """A finite float; float() also takes strings such as "100e6"."""
    try:
        num = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        num = math.nan
    if not math.isfinite(num):
        raise ValueError(f"must be a finite number, got {value!r}")
    return num


def _integer(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value  # exact, also beyond the 2**53 a float holds
    num = _number(value)
    if not num.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(num)


def _watts(dbm):
    with np.errstate(over="ignore"):  # an overflow to inf is rejected by _number
        return _number(dbm_to_watts(_number(dbm)))


def _text(value):
    if value is not None and not isinstance(value, str):
        raise ValueError(f"must be a string or null, got {value!r}")
    return value


def _list_of(convert):
    def convert_list(value):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list, got {value!r}")
        return tuple(convert(item) for item in value)
    return convert_list


# field -> YAML key, where the key adds the field's unit (or, for the path-loss
# exponents, its quantity); every other key is its field's name
_UNIT_KEYS = {
    "bandwidth": "bandwidth_hz", "center_frequency": "center_frequency_hz",
    "max_power": "max_power_dbm", "noise_variance": "noise_dbm", "d_ap_irs": "d_ap_irs_m",
    "d_irs_user": "d_irs_user_m", "exponent_ap_irs": "pathloss_exponent_ap_irs",
    "exponent_irs_user": "pathloss_exponent_irs_user",
    "exponent_ap_user": "pathloss_exponent_ap_user", "l1": "l1_h", "l2": "l2_h", "r": "r_ohm",
    "z0": "z0_ohm", "c_min": "c_min_f", "c_max": "c_max_f", "f_min": "f_min_hz",
    "f_max": "f_max_hz",
}
_CONVERTERS = {int: _integer, float: _number, str: _text, str | None: _text,
               tuple[int, ...]: _list_of(_integer), tuple[float, ...]: _list_of(_number)}


def _table(cls):
    """YAML key -> (field, converter) of the settings dataclass `cls`, in field
    order; a field that holds a dataclass has its section's table as converter."""
    hints = typing.get_type_hints(cls)
    table = {}
    for field in dataclasses.fields(cls):
        kind, key = hints[field.name], _UNIT_KEYS.get(field.name, field.name)
        if dataclasses.is_dataclass(kind):
            convert = _table(kind)
        elif kind not in _CONVERTERS:  # fails at import, not when the key is set
            raise TypeError(f"no converter for {cls.__name__}.{field.name}: {kind}")
        else:
            convert = _watts if kind is float and key.endswith("_dbm") else _CONVERTERS[kind]
        table[key] = (field.name, convert)
    return table


_TOP = _table(ExperimentConfig)


def _apply(base, mapping, table, where="configuration root"):
    """`base` with every key of `mapping` converted and set as `table` says."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(mapping) - set(table), key=str)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    changes = {}
    for key, value in mapping.items():
        field, convert = table[key]
        if isinstance(convert, dict):  # an empty section (`system:`) reads as null
            value = _apply(getattr(base, field), {} if value is None else value, convert,
                           f"section {key!r}")
        else:
            try:
                value = convert(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r} in {where} {exc}") from exc
        changes[field] = value
    try:
        return dataclasses.replace(base, **changes)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def config_from_dict(raw):
    """Build an ExperimentConfig from a nested mapping of overrides."""
    return _apply(ExperimentConfig(), raw, _TOP)


class _Loader(yaml.SafeLoader):
    """The safe loader, except that a mapping may not repeat an explicit key;
    merge keys (`<<`) still supply defaults that explicit keys override."""

    def construct_mapping(self, node, deep=False):
        explicit = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)  # rejects unhashable keys
        seen = set()
        for key_node in explicit:
            key = self.construct_object(key_node)  # built above, so this is a lookup
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found repeated key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


def load_config(path, overrides=None):
    """Read and validate a YAML experiment configuration, then set the
    top-level keys of `overrides` (the `run` flags) on the checked result."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    # nesting beyond the parser's recursion and integers beyond Python's digit limit
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cfg = config_from_dict({} if raw is None else raw)
    return _apply(cfg, overrides, _TOP, "command-line overrides") if overrides else cfg
