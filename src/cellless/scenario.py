"""Random deployments, their path loss, and reproducible randomness.

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

from .config import ScenarioConfig
from .errors import DomainError, PlacementFailure


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


class Placement(NamedTuple):
    """One random draw of :func:`generate_deployment`: geometry and busy set only.

    ``busy`` is the mask :func:`busy_mask` picks from the trial's raw words
    (all False when ``n_busy_bs`` is 0). The arrays are fresh and unchecked.
    A kernel that needs no controller state reads them as they are;
    :meth:`controller.Deployment.from_placement` turns them into the at-rest
    state. A named tuple, not a frozen dataclass:
    one is built per trial, and it builds in half the time (0.7 against 1.4
    µs), while defining the class costs 0.15 ms of start-up, not 1.2 ms
    (Python 3.11, ``timeit``).
    """

    bs_positions: np.ndarray        # (n_bs, 2) meters
    mt_positions: np.ndarray        # (n_mt, 2) meters, typical user at row 0
    busy: np.ndarray                # (n_bs,) bool, stations serving other users


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
    terminals are uniform. The busy set is the last draw: ``n_bs`` raw
    words, of which :func:`busy_mask` marks the ``n_busy_bs`` smallest busy.
    With ``n_busy_bs`` 0 no word is drawn, so such a call leaves ``rng``
    where the busy draw would start: the block path places with
    ``n_busy_bs`` 0, reads the same words itself and applies
    :func:`busy_mask` once per block.

    Only the draw happens here, and no :class:`controller.Deployment` is
    built: the block kernels read the placement's arrays directly, and
    callers that need controller state pass it to its ``from_placement``.
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
    if cfg.n_busy_bs:
        busy = busy_mask(rng.bit_generator.random_raw(cfg.n_bs), cfg.n_busy_bs)
    else:
        busy = np.zeros(cfg.n_bs, dtype=bool)
    return Placement(taken[len(mt_positions):], mt_positions, busy)


def busy_mask(words: np.ndarray, n_busy: int) -> np.ndarray:
    """The busy stations that raw Philox words pick: the ``n_busy`` smallest.

    ``words`` holds one uint64 word per station along its last axis, the
    ``n_bs`` words that ``random_raw`` reads right after a trial's placement;
    a ``(trials, n_bs)`` array gives one mask per row. The stations with the
    ``n_busy`` smallest words are busy, and of two equal words the lower
    index wins (a stable argsort). Ranking i.i.d. uniform keys picks every
    ``n_busy``-subset with the same probability (Knuth, *TAOCP* vol. 2,
    §3.4.2), and the rule uses no numpy ``Generator`` algorithm, so the set
    depends on the Philox stream alone. Returns a bool array of the shape of
    ``words``.
    """
    mask = np.zeros(words.shape, dtype=bool)
    lowest = np.argsort(words, axis=-1, kind="stable")[..., :n_busy]
    np.put_along_axis(mask, lowest, True, axis=-1)
    return mask


def check_gains(gains: np.ndarray) -> None:
    """Raise ``ValueError`` unless every gain is positive and finite."""
    if not np.all(np.isfinite(gains)) or np.any(gains <= 0.0):
        raise ValueError("gains must be positive and finite")


def path_loss(distance_m, cfg: ScenarioConfig):
    """Unitless gain (d / d_ref)^-alpha, clamped to 1 inside d_ref.

    Accepts scalars or arrays. Distances below the placement exclusion
    radius are rejected; they would make gains blow up.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < cfg.min_distance_m):
        raise DomainError(
            f"distance below the {cfg.min_distance_m} m exclusion radius")
    gain = (np.maximum(d, cfg.reference_distance_m)
            / cfg.reference_distance_m) ** -cfg.path_loss_exponent
    return float(gain) if gain.ndim == 0 else gain
