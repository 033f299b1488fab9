"""Scenario configuration, random deployments, and reproducible randomness.

All randomness flows through :class:`RandomStream` substreams keyed by
(seed, label, trial). Substreams are counter-based (Philox), so trials can
run in any order or be split across workers and still reproduce identical
numbers bit for bit.
"""

import hashlib
import math
import sys
from dataclasses import dataclass, fields
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, PlacementFailure


class BsPowerState(IntEnum):
    """Power states of a base station, cheapest first; each is its own int code."""

    SLEEPING = 0
    LISTENING = 1
    READY = 2
    TRANSFERRING = 3


_FADING_MARGIN = 2.0 ** 64   # headroom for a fading draw, see ScenarioConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """All tunable constants of a simulation run."""

    area_side_m: float = 50.0
    n_bs: int = 50
    n_busy_bs: int = 30        # BSs pre-committed to other users' groups (interferers)
    n_candidates: int = 10     # nearest BSs eligible for the typical user's group
    max_group_size: int = 3
    state_power_mw: tuple = (10.0, 50.0, 80.0, 200.0)  # mW drawn per state, by state code
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

    File values and ``str`` overrides (CLI flags) share one parser; other
    overrides are used as is. Unknown keys, and keys repeated in the file,
    are fatal: silent typos in simulation configs corrupt results.
    """
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
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


def _label_key(label: str) -> int:
    # sha256 rather than hash(): the latter is salted per process
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _philox_key(seed: int, label: str) -> np.ndarray:
    """The two Philox key words of a (seed, label) substream.

    The seed word is exact. The label word keeps the value the key has always
    had: numpy built ``[seed, hash]`` as float64 when the hash was at least
    2**63, so such a hash keeps only its 53 leading significant bits. The few
    hashes that round up to 2**64 wrap to 0.
    """
    word = _label_key(label)
    if word >= 2 ** 63:
        word = int(float(word)) % 2 ** 64
    return np.array([seed, word], dtype=np.uint64)


@dataclass(frozen=True)
class RandomStream:
    """Addressable counter-based substream of the run's root seed.

    The Philox key is (seed, hashed label) and the trial index lands in the
    high counter words, so the same (seed, label, trial) triple always
    yields the same draw sequence, distinct triples never overlap, and no
    state is shared between substreams. The label word of the key is the
    first 64 bits of the label's sha256, rounded to 53 significant bits when
    it is at least 2**63 (see ``_philox_key``); the seed word is exact.
    ``rng()`` returns a fresh generator positioned at the start of the
    substream; ``rngs()`` walks many trials with one reused generator.
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
                                  key=_philox_key(self.seed, self.label))
        return np.random.Generator(bitgen)

    def rngs(self, trials):
        """Yield, for each trial index in ``trials``, a generator positioned
        where ``self.for_trial(trial).rng()`` starts.

        One generator is built and yielded every time: before each yield its
        Philox state is reset to the trial's counter with an emptied buffer,
        which gives the same draws as a new generator (Philox is counter
        based) for a fraction of the cost. Finish a trial's draws before
        taking the next one; the previous trial's position is gone.
        """
        key = _philox_key(self.seed, self.label)
        bitgen = np.random.Philox(key=key)
        gen = np.random.Generator(bitgen)
        counter = np.zeros(4, dtype=np.uint64)
        state = {"bit_generator": "Philox",
                 "state": {"counter": counter, "key": key},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for trial in trials:
            counter[2] = trial
            bitgen.state = state
            yield gen


def _readonly_copy(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``; an array the caller passed stays writable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _integers(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    # a fraction lands here as a float array
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {arr.dtype}")
    return arr


class Placement(NamedTuple):
    """One random draw of :func:`generate_deployment`: geometry and busy set only.

    The arrays are fresh and unchecked. A kernel that needs no controller
    state reads them as they are; :meth:`Deployment.from_placement` turns
    them into the at-rest state. A named tuple, not a frozen dataclass: one
    is built per trial, and it builds in half the time (0.7 against 1.4 µs),
    while defining the class costs 0.15 ms of start-up, not 1.2 ms (Python
    3.11, ``timeit``).
    """

    bs_positions: np.ndarray        # (n_bs, 2) meters
    mt_positions: np.ndarray        # (n_mt, 2) meters, typical user at row 0
    busy: np.ndarray                # (n_bs,) bool, stations serving other users


@dataclass(frozen=True)
class Deployment:
    """Immutable snapshot of geometry, BS power states, and serving load.

    Every field is a read-only array copied from what the constructor was
    given, and every construction runs the full check below. ``bs_states``
    holds one int8 ``BsPowerState`` code per BS (``BsPowerState(code)``
    decodes it), ``bs_load`` counts the terminals each BS serves, and
    ``transferring_mask`` marks the BSs whose code is transferring. A random
    deployment starts as a :class:`Placement`; :meth:`from_placement` builds
    its state, and the controller derives every later state from that.
    """

    bs_positions: np.ndarray        # (n_bs, 2) meters
    mt_positions: np.ndarray        # (n_mt, 2) meters, typical user at row 0
    bs_states: np.ndarray           # (n_bs,) int8 BsPowerState codes
    bs_load: np.ndarray             # (n_bs,) terminals currently served

    def __post_init__(self):
        bs_pos = _readonly_copy(self.bs_positions, float)
        codes = _integers(self.bs_states, "bs_states")
        load = _readonly_copy(_integers(self.bs_load, "bs_load"), np.int64)
        if codes.shape != (len(bs_pos),) or load.shape != (len(bs_pos),):
            raise ValueError("per-BS fields must have one entry per base station")
        states = _readonly_copy(codes, np.int8)
        # a negative code reads as 128 or more through uint8, and a wide code
        # that the int8 copy wrapped no longer equals its copy
        if (np.count_nonzero(states.view(np.uint8) >= len(BsPowerState))
                or (codes.dtype != np.int8 and np.count_nonzero(states != codes))):
            raise ValueError(f"state codes must lie in [0, {len(BsPowerState)})")
        loaded = load > 0
        if np.count_nonzero(loaded) != np.count_nonzero(load):    # a load below 0
            raise ValueError("a BS load must be non-negative")
        mask = states == BsPowerState.TRANSFERRING.value
        if np.count_nonzero(mask < loaded):     # loaded, not transferring
            raise ValueError("a loaded BS must be in the transferring state")
        mask.setflags(write=False)
        object.__setattr__(self, "bs_positions", bs_pos)
        object.__setattr__(self, "mt_positions", _readonly_copy(self.mt_positions, float))
        object.__setattr__(self, "bs_states", states)
        object.__setattr__(self, "bs_load", load)
        object.__setattr__(self, "transferring_mask", mask)

    @classmethod
    def from_placement(cls, placement: Placement) -> "Deployment":
        """The at-rest state of a drawn placement.

        Each busy station transfers with one served terminal (a pure
        interferer); every other station is ready with no load.
        """
        busy = placement.busy
        # numpy gets .value, never a member: np.full(50, member) took 5.2 µs, not 1.9 (numpy 2.4)
        states = np.full(len(busy), BsPowerState.READY.value, dtype=np.int8)
        states[busy] = BsPowerState.TRANSFERRING.value
        return cls(placement.bs_positions, placement.mt_positions, states,
                   busy.astype(np.int64))

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


def generate_deployment(cfg: ScenarioConfig, rng: np.random.Generator,
                        n_mt: int = 1) -> Placement:
    """Draw one random deployment's placement from ``rng``.

    ``rng`` is a substream's generator at its start, e.g. ``stream.rng()`` or
    one taken from ``stream.rngs(...)``; placement draws from it in a fixed
    order, so the same substream always gives the same deployment.

    BS positions are i.i.d. uniform on the square, rejection-resampled so
    every BS keeps ``min_distance_m`` clearance from the other BSs and from
    every terminal. Proposals are drawn in batches of the BSs still missing
    and thinned a batch at a time; the result is bit-identical to thinning
    one proposal at a time in draw order, where a proposal survives iff it
    clears every terminal, every BS placed in earlier batches and every
    earlier survivor of its own batch. One clash matrix per batch tests the
    proposals against every point taken so far and against each other; only
    those that clash inside their batch need settling in draw order. A batch
    whose matrix holds exactly ``need`` clashes survives whole: each proposal
    clashes with itself (distance 0 < ``min_distance_m ** 2``, positive as
    the config requires), so those are the batch's diagonal. (Were the square
    to underflow to 0, nothing would clash and the settle step would run and
    change nothing.) The typical user sits at the exact center; additional
    terminals are uniform. ``n_busy_bs`` stations, picked by one
    ``rng.choice``, are marked busy.

    Only the draw happens here, and no :class:`Deployment` is built: the
    block kernels read the placement's arrays directly, and callers that
    need controller state pass it to :meth:`Deployment.from_placement`.
    """
    area = cfg.area_side_m
    center = np.array([[area / 2.0, area / 2.0]])
    if n_mt > 1:
        # uniform(0, area) computes 0.0 + area * u: random() scaled in place
        # gives the same doubles at half the cost
        extra = rng.random((n_mt - 1, 2))
        extra *= area
        mt_positions = np.vstack([center, extra])
    else:
        mt_positions = center

    min_sq = cfg.min_distance_m ** 2
    limit = 10 * cfg.n_bs ** 2
    attempts = 0
    taken = mt_positions            # every terminal, then each BS placed so far
    goal = len(mt_positions) + cfg.n_bs
    while len(taken) < goal:
        need = min(goal - len(taken), limit - attempts)
        if need <= 0:
            raise PlacementFailure(
                f"gave up placing {cfg.n_bs} BSs with {cfg.min_distance_m} m "
                f"spacing after {limit} attempts")
        batch = rng.random((need, 2))
        batch *= area
        attempts += need
        pts = np.concatenate([taken, batch])
        # every squared distance is rounded as the scalar (px - x) ** 2 +
        # (py - y) ** 2 would round it: two squares, then one sum; one axis
        # at a time, under half the 3-D broadcast's time on a full batch
        d2 = np.subtract.outer(batch[:, 0], pts[:, 0])
        dy = np.subtract.outer(batch[:, 1], pts[:, 1])
        d2 *= d2
        dy *= dy
        d2 += dy
        clash = d2 < min_sq
        if np.count_nonzero(clash) == need:   # the batch's diagonal alone
            taken = pts
            continue
        n_taken = len(taken)
        ok = ~clash[:, :n_taken].any(axis=1)
        inner = clash[:, n_taken:]
        np.fill_diagonal(inner, False)
        # only a proposal that clashes inside its batch depends on which
        # earlier proposals survived; settle those in draw order
        for i in np.flatnonzero(ok & inner.any(axis=1)):
            if (ok[:i] & inner[i, :i]).any():
                ok[i] = False
        taken = np.concatenate([taken, batch[ok]])
    busy = np.zeros(cfg.n_bs, dtype=bool)
    busy[rng.choice(cfg.n_bs, size=cfg.n_busy_bs, replace=False)] = True
    return Placement(taken[len(mt_positions):], mt_positions, busy)


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
    """Power drawn by the whole deployment in its current states.

    The per-BS powers are added one at a time in BS order by Python's
    ``sum``; the last digits of the bs-energy ledger check depend on that order.
    """
    return float(sum(cfg.state_power_mw[code] for code in dep.bs_states.tolist()))
