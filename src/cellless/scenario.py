"""Scenario configuration, random deployments, and reproducible randomness.

All randomness flows through :class:`RandomStream` substreams keyed by
(seed, label, trial). Substreams are counter-based (Philox), so trials can
run in any order or be split across workers and still reproduce identical
numbers bit for bit.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, PlacementFailure


class BsPowerState(Enum):
    """Power states of a base station, cheapest first."""

    SLEEPING = "sleeping"
    LISTENING = "listening"
    READY = "ready"
    TRANSFERRING = "transferring"


STATE_ORDER = tuple(BsPowerState)

_INT_FIELDS = ("n_bs", "n_busy_bs", "n_candidates", "max_group_size", "n_trials", "seed")
_FLOAT_FIELDS = ("area_side_m", "bs_tx_power_mw", "mt_tx_power_mw", "path_loss_exponent",
                 "reference_distance_m", "noise_power_mw", "min_distance_m")


def _default_state_powers() -> dict:
    return {
        BsPowerState.SLEEPING: 10.0,
        BsPowerState.LISTENING: 50.0,
        BsPowerState.READY: 80.0,
        BsPowerState.TRANSFERRING: 200.0,
    }


@dataclass(frozen=True)
class ScenarioConfig:
    """All tunable constants of a simulation run."""

    area_side_m: float = 50.0
    n_bs: int = 50
    n_busy_bs: int = 30        # BSs pre-committed to other users' groups (interferers)
    n_candidates: int = 10     # nearest BSs eligible for the typical user's group
    max_group_size: int = 3
    state_power_mw: dict = field(default_factory=_default_state_powers)
    bs_tx_power_mw: float = 200.0
    mt_tx_power_mw: float = 100.0
    path_loss_exponent: float = 4.0
    reference_distance_m: float = 1.0
    noise_power_mw: float = 1e-7
    min_distance_m: float = 0.5   # placement exclusion radius, keeps gains finite
    n_trials: int = 10000
    seed: int = 1

    def __post_init__(self):
        if self.n_bs < 1:
            raise ConfigError("n_bs must be at least 1")
        if not 0 <= self.n_busy_bs <= self.n_bs:
            raise ConfigError("n_busy_bs must lie in [0, n_bs]")
        if not 1 <= self.n_candidates <= self.n_bs:
            raise ConfigError("n_candidates must lie in [1, n_bs]")
        if not 1 <= self.max_group_size <= self.n_candidates:
            raise ConfigError("max_group_size must lie in [1, n_candidates]")
        for name in _FLOAT_FIELDS:
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and strictly positive")
        if set(self.state_power_mw) != set(STATE_ORDER):
            raise ConfigError("state_power_mw needs exactly the four power states")
        powers = [self.state_power_mw[s] for s in STATE_ORDER]
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


def parse_state_powers(text: str) -> dict:
    """Parse 'sleeping,listening,ready,transferring' mW values, e.g. '10,50,80,200'."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 4:
        raise ConfigError("state_power_mw needs four comma-separated values "
                          "(sleeping,listening,ready,transferring)")
    try:
        return dict(zip(STATE_ORDER, (float(p) for p in parts)))
    except ValueError as exc:
        raise ConfigError(f"state_power_mw: {exc}") from exc


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_FIELDS:
            return int(raw)
        if key in _FLOAT_FIELDS:
            return float(raw)
        if key == "state_power_mw":
            return parse_state_powers(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from exc
    raise ConfigError(f"unknown config key '{key}'")


_FIELD_NAMES = tuple(f.name for f in fields(ScenarioConfig))


def load_config(path=None, overrides=None) -> ScenarioConfig:
    """Build a config from defaults, then a 'key = value' file, then overrides.

    Unknown keys are fatal in both the file and the overrides; silent typos
    in simulation configs corrupt results.
    """
    values = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in _FIELD_NAMES:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            values[key] = _parse_value(key, raw.strip())
    for key, value in (overrides or {}).items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = value
    return ScenarioConfig(**values)


def config_lines(cfg: ScenarioConfig) -> list:
    """Canonical 'key = value' echo of a config, one line per field.

    The same text feeds the report hash and the CSV metadata header, so it
    must round-trip through `load_config` and change whenever any field does.
    """
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "state_power_mw":
            text = ",".join(repr(value[s]) for s in STATE_ORDER)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return lines


def _label_key(label: str) -> int:
    # sha256 rather than hash(): the latter is salted per process
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class RandomStream:
    """Addressable counter-based substream of the run's root seed.

    The Philox key is (seed, hashed label) and the trial index lands in the
    high counter words, so the same (seed, label, trial) triple always
    yields the same draw sequence, distinct triples never overlap, and no
    state is shared between substreams. ``rng()`` returns a fresh generator
    positioned at the start of the substream.
    """

    seed: int
    label: str
    trial: int = 0

    def for_trial(self, trial: int) -> "RandomStream":
        return RandomStream(self.seed, self.label, trial)

    def child(self, suffix: str) -> "RandomStream":
        return RandomStream(self.seed, f"{self.label}/{suffix}", self.trial)

    def rng(self) -> np.random.Generator:
        bitgen = np.random.Philox(counter=[0, 0, self.trial, 0],
                                  key=[self.seed, _label_key(self.label)])
        return np.random.Generator(bitgen)


@dataclass(frozen=True)
class Deployment:
    """Immutable snapshot of geometry, BS power states, and serving load."""

    bs_positions: np.ndarray        # (n_bs, 2) meters
    mt_positions: np.ndarray        # (n_mt, 2) meters, typical user at row 0
    bs_states: tuple
    bs_load: tuple                  # terminals currently served, per BS

    def __post_init__(self):
        bs_pos = np.asarray(self.bs_positions, dtype=float)
        mt_pos = np.asarray(self.mt_positions, dtype=float)
        object.__setattr__(self, "bs_positions", bs_pos)
        object.__setattr__(self, "mt_positions", mt_pos)
        object.__setattr__(self, "bs_states", tuple(self.bs_states))
        object.__setattr__(self, "bs_load", tuple(self.bs_load))
        if len(self.bs_states) != len(bs_pos) or len(self.bs_load) != len(bs_pos):
            raise ValueError("per-BS fields must have one entry per base station")
        transferring = []
        for state, load in zip(self.bs_states, self.bs_load):
            is_transferring = state is BsPowerState.TRANSFERRING
            if load > 0 and not is_transferring:
                raise ValueError("a loaded BS must be in the transferring state")
            transferring.append(is_transferring)
        mask = np.array(transferring, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "transferring_mask", mask)
        bs_pos.setflags(write=False)
        mt_pos.setflags(write=False)

    @property
    def n_bs(self) -> int:
        return len(self.bs_states)

    @property
    def n_mt(self) -> int:
        return len(self.mt_positions)

    def bs_distances(self, mt_index: int) -> np.ndarray:
        """Euclidean distance from every BS to one terminal."""
        delta = self.bs_positions - self.mt_positions[mt_index]
        return np.hypot(delta[:, 0], delta[:, 1])


def generate_deployment(cfg: ScenarioConfig, stream: RandomStream, n_mt: int = 1) -> Deployment:
    """Draw one random deployment.

    BS positions are i.i.d. uniform on the square, rejection-resampled so
    every BS keeps ``min_distance_m`` clearance from the other BSs and from
    every terminal. The typical user sits at the exact center; additional
    terminals are uniform. ``n_busy_bs`` stations are marked transferring
    with one served terminal each (pure interferers); the rest start ready.
    """
    rng = stream.rng()
    area = cfg.area_side_m
    center = np.array([[area / 2.0, area / 2.0]])
    if n_mt > 1:
        extra = rng.uniform(0.0, area, size=(n_mt - 1, 2))
        mt_positions = np.vstack([center, extra])
    else:
        mt_positions = center

    min_sq = cfg.min_distance_m ** 2
    limit = 10 * cfg.n_bs ** 2
    attempts = 0
    acc_x: list = []
    acc_y: list = []
    while len(acc_x) < cfg.n_bs:
        need = min(cfg.n_bs - len(acc_x), limit - attempts)
        if need <= 0:
            raise PlacementFailure(
                f"gave up placing {cfg.n_bs} BSs with {cfg.min_distance_m} m "
                f"spacing after {limit} attempts")
        batch = rng.uniform(0.0, area, size=(need, 2))
        attempts += need
        d_mt = ((batch[:, None, :] - mt_positions[None, :, :]) ** 2).sum(axis=2)
        mt_ok = (d_mt >= min_sq).all(axis=1).tolist()
        # proposals are thinned in draw order against everything accepted so far
        for ok, (x, y) in zip(mt_ok, batch.tolist()):
            if not ok:
                continue
            for px, py in zip(acc_x, acc_y):
                if (px - x) ** 2 + (py - y) ** 2 < min_sq:
                    break
            else:
                acc_x.append(x)
                acc_y.append(y)
    placed = np.column_stack([acc_x, acc_y])

    states = [BsPowerState.READY] * cfg.n_bs
    loads = [0] * cfg.n_bs
    for b in rng.choice(cfg.n_bs, size=cfg.n_busy_bs, replace=False):
        states[b] = BsPowerState.TRANSFERRING
        loads[b] = 1
    return Deployment(placed, mt_positions, tuple(states), tuple(loads))


def nearest_candidates(dep: Deployment, mt_index: int, k: int) -> list:
    """The k BSs closest to a terminal, nearest first.

    Distance ties break toward the lower BS index, so orderings are
    reproducible and prefix-stable in k.
    """
    if not 0 <= k <= dep.n_bs:
        raise ValueError("k must lie in [0, n_bs]")
    order = np.argsort(dep.bs_distances(mt_index), kind="stable")
    return [int(b) for b in order[:k]]


def total_power_mw(dep: Deployment, cfg: ScenarioConfig) -> float:
    """Power drawn by the whole deployment in its current states."""
    return float(sum(cfg.state_power_mw[s] for s in dep.bs_states))
