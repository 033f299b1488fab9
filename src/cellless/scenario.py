"""Random deployments and reproducible randomness.

The config they draw from lives in :mod:`cellless.config`. All randomness
flows through :class:`RandomStream` substreams keyed by (seed, label,
trial). Substreams are counter-based (Philox), so trials can run in any
order or be split across workers and still reproduce identical numbers
bit for bit.
"""

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import BsPowerState, ScenarioConfig
from .errors import PlacementFailure


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
    ``rng.choice`` (none when ``n_busy_bs`` is 0), are marked busy. That
    ``choice`` is the last draw, so a call with ``n_busy_bs`` 0 leaves
    ``rng`` where it would start: the block path places with ``n_busy_bs``
    0 and decodes the busy sets from the following raw words
    (:func:`decode_busy`), and this call is the reference it is pinned to.

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
    if cfg.n_busy_bs:
        # an empty choice draws no word, yet costs about a third of a
        # single-BS placement
        busy[rng.choice(cfg.n_bs, size=cfg.n_busy_bs, replace=False)] = True
    return Placement(taken[len(mt_positions):], mt_positions, busy)


def busy_decodable(n: int, m: int) -> bool:
    """Whether :func:`decode_busy` reproduces ``rng.choice(n, m, replace=False)``.

    ``choice`` runs Floyd's sampling unless ``n > 10_000`` and ``m > n // 50``,
    where it shuffles the tail of ``arange(n)`` instead, which the decode
    cannot reproduce. Its draws are Lemire's bounded 32-bit ones only while
    every bound ``j + 1`` stays below ``2**32``.
    """
    return 1 <= m <= n and n - 1 < 2 ** 32 - 1 and not (n > 10_000 and m > n // 50)


def decode_busy(words: np.ndarray, n: int, m: int):
    """Floyd's sampling of ``m`` of ``n`` stations, decoded from raw Philox words.

    Row ``r`` of ``words`` (a ``(rows, k)`` uint64 array) holds the words that
    ``rng.choice(n, m, replace=False)`` would read from the generator's raw
    stream, ``k = ceil((m - [m == n]) / 2)``: numpy's first step draws over
    [0, 0] when ``m == n`` and reads no word. Each word gives its low 32
    bits, then its high 32 bits, as Philox's ``next_uint32`` does. At step
    ``j = n - m ... n - 1`` Lemire's draw is ``t = (u * (j + 1)) >> 32``, and
    Floyd adds ``t`` unless it is already chosen, in which case it adds ``j``
    (Bentley & Floyd, CACM 30(9), 1987; Lemire, ACM TOMACS 29(1), 2019).

    Returns ``(chosen, flagged)``: the ``(rows, m)`` indices, in step order,
    and a ``(rows,)`` bool flag. numpy draws again when a product's low half
    is below ``2**32 % (j + 1)``; a row is flagged when some low half is at
    most ``j``, a superset of those rejections, so every unflagged row holds
    the set ``choice`` picks (not its final shuffle's order). Valid where
    :func:`busy_decodable` holds.
    """
    rows = len(words)
    skip = int(m == n)
    # little-endian 32-bit halves: the low half of each word comes first on any host
    u = np.ascontiguousarray(words, dtype="<u8").view("<u4")[:, :m - skip]
    j = np.arange(n - m + skip, n, dtype=np.uint64)
    product = u * (j + np.uint64(1))
    flagged = (product.astype(np.uint32) <= j.astype(np.uint32)).any(axis=1)
    drawn = np.zeros((rows, m), dtype=np.uint64)
    drawn[:, skip:] = product >> np.uint64(32)
    step = np.arange(m, dtype=np.uint64)
    # a draw repeats an earlier one when it follows an equal draw in the order
    # of (draw, step); that key stays below n * m < 2**64
    keys = drawn * np.uint64(m) + step
    keys.sort(axis=1)
    ranked = keys // np.uint64(m)
    at = (keys - ranked * np.uint64(m)).view(np.int64) + np.arange(0, rows * m, m)[:, None]
    taken = np.zeros(rows * m, dtype=bool)      # flat: draw already chosen
    taken[at[:, 1:]] = ranked[:, 1:] == ranked[:, :-1]
    # a draw is also already chosen when it equals an earlier step's j whose
    # own draw was: a rule that only looks back, so iterating it from the
    # repeats reaches its fixpoint; a draw below n - m wraps above every step
    earlier = drawn - np.uint64(n - m)
    later = np.flatnonzero(earlier < step)
    source = earlier.view(np.int64).ravel()[later] + (later - later % m)
    while True:
        grown = taken[later] | taken[source]
        if np.array_equal(grown, taken[later]):
            break
        taken[later] = grown
    chosen = np.where(taken.reshape(rows, m), step + np.uint64(n - m), drawn)
    return chosen.view(np.int64), flagged


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
