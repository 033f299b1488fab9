"""Scenario configuration: the config type, its parser and its canonical echo.

Pure Python, like :mod:`cellless.curves`, :mod:`cellless.report` and
:mod:`cellless.cli`: a command that runs no trial loads no numpy.
"""

import math
import operator
import sys
from dataclasses import dataclass, field, fields
from enum import IntEnum
from pathlib import Path

from .errors import ConfigError


class BsPowerState(IntEnum):
    """Power states of a base station, cheapest first; each is its own int code."""

    SLEEPING = 0
    LISTENING = 1
    READY = 2
    TRANSFERRING = 3


_FADING_MARGIN = 2.0 ** 64   # headroom for a fading draw, see ScenarioConfig


def _number(value) -> float:
    # float() would parse a string and take a bool as 0 or 1
    if isinstance(value, (bool, str, bytes)):
        raise TypeError
    return float(value)


def _typed(name: str, kind, value):
    """A field value as its annotation types it: an exact int, a float, or floats."""
    try:
        if kind is int:
            if isinstance(value, bool):
                raise TypeError
            # exact: a float, even a whole one, is refused rather than truncated
            return operator.index(value)
        if kind is float:
            return _number(value)
        if isinstance(value, tuple):
            return tuple(_number(v) for v in value)
    except TypeError:
        kind_text = {int: "an integer", float: "a number"}.get(kind, "a tuple of numbers")
        raise ConfigError(f"{name} must be {kind_text}, not {value!r}") from None
    return value    # a tuple field given something else: the checks below name it


def _param(default, help_text: str):
    # the help text is the field's CLI --help line
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class ScenarioConfig:
    """All tunable constants of a simulation run."""

    area_side_m: float = _param(50.0, "side of the square deployment area in meters")
    n_bs: int = _param(50, "number of base stations")
    n_busy_bs: int = _param(30, "BSs pre-committed to other users' groups (interferers)")
    n_candidates: int = _param(10, "nearest BSs eligible for the typical user's group")
    max_group_size: int = _param(3, "cooperative group size cap")
    state_power_mw: tuple = _param((10.0, 50.0, 80.0, 200.0),
                                   "consumed mW as 'sleeping,listening,ready,transferring'")
    bs_tx_power_mw: float = _param(200.0, "downlink radiated power of a transferring BS in mW")
    mt_tx_power_mw: float = _param(100.0, "baseline uplink terminal power in mW")
    path_loss_exponent: float = _param(4.0, "log-distance path loss exponent (unitless)")
    reference_distance_m: float = _param(1.0, "path loss reference distance in meters")
    noise_power_mw: float = _param(1e-7, "noise power over the normalized band in mW")
    min_distance_m: float = _param(0.5, "placement exclusion radius in meters")
    n_trials: int = _param(10000, "Monte Carlo trial count")
    seed: int = _param(1, "root seed, 64-bit unsigned integer")

    def __post_init__(self):
        # one value per field, typed by its annotation, so that equal configs
        # echo and hash alike and a fractional count or seed is refused
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        if self.n_bs < 1:
            raise ConfigError("n_bs must be at least 1")
        if not 0 <= self.n_busy_bs <= self.n_bs:
            raise ConfigError("n_busy_bs must lie in [0, n_bs]")
        if not 1 <= self.n_candidates <= self.n_bs:
            raise ConfigError("n_candidates must lie in [1, n_bs]")
        if not 1 <= self.max_group_size <= self.n_candidates:
            raise ConfigError("max_group_size must lie in [1, n_candidates]")
        for f in fields(self):
            if f.type is float and not 0 < getattr(self, f.name) < math.inf:
                raise ConfigError(f"{f.name} must be finite and strictly positive")
        # A gain is a path loss in (0, 1] times a unit-mean exponential fading
        # draw, which falls outside [2**-64, 2**64] with probability about
        # 2**-64. These rules keep that margin: the weakest path loss (the
        # farthest BS-terminal pair lies a diagonal apart) times the smallest
        # such draw stays a normal double, the transmit power summed over
        # every BS at the largest such gain stays finite, and so does the
        # uplink SNR of a terminal received by every BS at that gain.
        farthest = max(math.sqrt(2.0) * self.area_side_m, self.reference_distance_m)
        if ((farthest / self.reference_distance_m) ** -self.path_loss_exponent
                < sys.float_info.min * _FADING_MARGIN):
            raise ConfigError("path loss underflows across the area: lower "
                              "path_loss_exponent or area_side_m")
        if self.bs_tx_power_mw * self.n_bs * _FADING_MARGIN > sys.float_info.max:
            raise ConfigError("bs_tx_power_mw overflows the downlink power sum: "
                              "lower bs_tx_power_mw")
        if (self.mt_tx_power_mw * self.n_bs * _FADING_MARGIN / self.noise_power_mw
                > sys.float_info.max):
            raise ConfigError("mt_tx_power_mw / noise_power_mw overflows the uplink "
                              "SNR: lower mt_tx_power_mw or raise noise_power_mw")
        powers = self.state_power_mw
        if not (isinstance(powers, tuple) and len(powers) == len(BsPowerState)):
            raise ConfigError(f"state_power_mw needs a tuple of {len(BsPowerState)} values "
                              "(sleeping,listening,ready,transferring)")
        if not all(math.isfinite(p) for p in powers):
            raise ConfigError("state powers must be finite")
        if powers[0] <= 0:
            raise ConfigError("state powers must be strictly positive")
        if not all(a < b for a, b in zip(powers, powers[1:])):
            raise ConfigError(
                "state powers must increase sleeping < listening < ready < transferring")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


# a field's annotation is the kind of its config text; a tuple is comma-separated floats
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind is tuple:
            return tuple(float(part) for part in text.split(","))
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from exc


def load_config(path=None, overrides=None) -> ScenarioConfig:
    """Build a config from defaults, then a 'key = value' UTF-8 file, then overrides.

    A byte-order mark at the start of the file is dropped.

    File values and ``str`` overrides (CLI flags) share one parser; other
    overrides are used as is. Unknown keys, and keys repeated in the file,
    are fatal: silent typos in simulation configs corrupt results.
    """
    values = {}
    if path is not None:
        try:
            # utf-8-sig drops a leading byte-order mark, which would
            # otherwise become part of the first key
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        set_on = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            if set_on.setdefault(key, lineno) != lineno:
                raise ConfigError(f"{path}:{lineno}: '{key}' already set on line {set_on[key]}")
            values[key] = _parse_value(key, raw.strip())
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _parse_value(key, value) if isinstance(value, str) else value
    return ScenarioConfig(**values)


def config_lines(cfg: ScenarioConfig) -> list:
    """Canonical 'key = value' echo of a config, one line per field.

    The same text feeds the report hash and the CSV metadata header, so it
    must round-trip through `load_config` and change whenever any field does.
    """
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}")
    return lines
