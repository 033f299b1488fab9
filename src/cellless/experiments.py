"""Monte Carlo experiment curves and the block kernels that compute them.

Three experiments are provided:

* coverage probability of the cooperative cell-less scheme against the
  single-nearest-BS cellular baseline, on common random numbers;
* fractional BS power saving as stations are put to sleep, for several
  cooperative group sizes; no draw changes this power ledger, so it is
  computed in closed form (:func:`bs_energy_ledger`);
* fractional terminal power saving when uplink joint reception lets the
  terminal back its transmit power off while holding the baseline rate.

Every trial derives its randomness from a (seed, experiment, trial)
substream and aggregation walks trials in index order, so outputs are
bit-identical for any worker count. With several workers the calling
process runs the first chunk of trials and forks one child per other
chunk, at most one process per CPU in all (see :func:`_scan_trials`).

Each ``run_*`` function checks and normalises its sweeps by one rule,
:func:`_checked_sweep`, before any trial, so a library caller and the
command line get the same curve and the same refusals.

``run_coverage`` and ``run_mt_energy`` run their trials in blocks of
``BLOCK_TRIALS``: each trial draws its placement and fading from its own
substreams, and everything after the draws is computed once per block on
stacked ``(trials, n_bs)`` arrays. The block path reads each placement's
arrays and builds no :class:`Deployment`, and it needs no controller: the
greedy group with an infinite demand is the strongest candidates up to the
size cap, a sort. The readable scalar references these kernels are checked
against, the exhaustive oracles and the ``validate`` suites live in
:mod:`cellless.validation`, which this module does not import.
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import check_gains, path_loss
from .errors import InfeasibleConfig
from .scenario import (BsPowerState, RandomStream, ScenarioConfig, _number, _typed,
                       generate_deployment)

DEFAULT_THRESHOLDS_DB = tuple(float(t) for t in range(-15, 6))
DEFAULT_SLEEPING_COUNTS = tuple(range(0, 11))
DEFAULT_BS_GROUP_SIZES = (2, 3, 4)
DEFAULT_MT_GROUP_SIZES = (1, 2, 3, 4, 5)

# Trials stacked per block, so the stacked arrays do not grow with the chunk.
# Stacking a whole 1 500-trial chunk raised a coverage run's peak RSS from
# 38.8 to 41.6 MB; with 256-trial blocks it stays at the per-trial loop's
# 38.8 MB, at about the same speed.
BLOCK_TRIALS = 256


def binomial_ci95(p: float, n: int) -> float:
    """Half-width of the normal-approximation 95% CI of a proportion."""
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


def mean_ci95(samples: np.ndarray) -> float:
    """Half-width of the normal-approximation 95% CI of a sample mean."""
    n = len(samples)
    if n < 2:
        return 0.0
    return 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(n)


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability versus SINR threshold for both network flavors."""

    thresholds_db: tuple
    cellular_prob: tuple
    cellless_prob: tuple
    cellular_ci95: tuple
    cellless_ci95: tuple
    n_trials: int

    def __post_init__(self):
        for name in ("thresholds_db", "cellular_prob", "cellless_prob",
                     "cellular_ci95", "cellless_ci95"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        k = len(self.thresholds_db)
        if any(len(getattr(self, n)) != k for n in
               ("cellular_prob", "cellless_prob", "cellular_ci95", "cellless_ci95")):
            raise ValueError("curve columns must have one entry per threshold")
        t = self.thresholds_db
        if not all(map(math.isfinite, t)) or not all(a < b for a, b in zip(t, t[1:])):
            raise ValueError("thresholds must be finite and strictly ascending")
        for probs in (self.cellular_prob, self.cellless_prob):
            if any(not 0.0 <= p <= 1.0 for p in probs):
                raise ValueError("coverage probabilities must lie in [0, 1]")
            if any(a < b for a, b in zip(probs, probs[1:])):
                raise ValueError("coverage must be non-increasing in the threshold")


@dataclass(frozen=True)
class BsEnergyCurve:
    """Mean fractional BS power saving per (sleeping count, group size)."""

    sleeping_counts: tuple
    group_sizes: tuple
    saving_fraction: dict    # group size -> per-sleeping-count means
    ci95: dict
    n_users: int
    n_trials: int

    def __post_init__(self):
        object.__setattr__(self, "sleeping_counts", tuple(int(s) for s in self.sleeping_counts))
        object.__setattr__(self, "group_sizes", tuple(int(k) for k in self.group_sizes))
        saving = {int(k): tuple(float(v) for v in row) for k, row in self.saving_fraction.items()}
        ci = {int(k): tuple(float(v) for v in row) for k, row in self.ci95.items()}
        object.__setattr__(self, "saving_fraction", saving)
        object.__setattr__(self, "ci95", ci)
        if set(saving) != set(self.group_sizes) or set(ci) != set(self.group_sizes):
            raise ValueError("savings must be keyed by the group sizes")
        for k in self.group_sizes:
            if len(saving[k]) != len(self.sleeping_counts):
                raise ValueError("each group size needs one entry per sleeping count")
            if any(not 0.0 <= v <= 1.0 for v in saving[k]):
                raise ValueError("savings must lie in [0, 1]")


@dataclass(frozen=True)
class MtEnergyCurve:
    """Mean fractional terminal power saving per joint-reception group size."""

    group_sizes: tuple
    saving_fraction: tuple
    ci95: tuple
    n_trials: int

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", tuple(int(n) for n in self.group_sizes))
        object.__setattr__(self, "saving_fraction",
                           tuple(float(v) for v in self.saving_fraction))
        object.__setattr__(self, "ci95", tuple(float(v) for v in self.ci95))
        if len(self.saving_fraction) != len(self.group_sizes):
            raise ValueError("one saving per group size required")
        if any(not 0.0 <= v <= 1.0 for v in self.saving_fraction):
            raise ValueError("savings must lie in [0, 1]")
        for n, v in zip(self.group_sizes, self.saving_fraction):
            if n == 1 and v != 0.0:
                raise ValueError("a single-receiver group cannot save power")


def _checked_sweep(name: str, values, default, whole: bool = True) -> tuple:
    """``values`` (``default`` if None) as a sorted, deduplicated, non-empty tuple.

    Each value is a finite number by the config's rule, so a bool or a string
    is refused; with ``whole`` it is an int, and ``3.0`` is 3. A violation
    raises :class:`InfeasibleConfig` naming the sweep and the value.
    """
    points = set()
    for value in default if values is None else values:
        try:
            number = _number(value)
        except (TypeError, OverflowError):
            raise InfeasibleConfig(f"{name} takes numbers, not {value!r}") from None
        if not math.isfinite(number):
            raise InfeasibleConfig(f"{name} takes finite numbers, not {number!r}")
        if whole and not number.is_integer():
            raise InfeasibleConfig(f"{name} takes whole numbers, not {number!r}")
        points.add(int(number) if whole else number)
    if not points:
        raise InfeasibleConfig(f"{name} is empty")
    return tuple(sorted(points))


def _scan_trials(block, n_trials: int, workers: int, start: int = 0):
    """Run block(a, b) over trials [start, start + n_trials), joined by trial.

    The trials split into contiguous chunks, at most ``workers`` and at most
    one per CPU, and each chunk into blocks of ``BLOCK_TRIALS``. A block
    returns an array, or a tuple of arrays, with one row per trial; results
    join in trial order, so any worker count yields bit-identical output.
    The calling process runs the first chunk and forks one child per other
    chunk, so the scan runs at most one process per CPU in all. Each child
    pickles its rows, or the exception it raised, to a pipe and leaves by
    ``os._exit``; a child's exception is raised again here with its type and
    message, and a child that ends without a result raises ``RuntimeError``.
    On an error the children still running are killed; every child is
    reaped before the call returns. Without ``os.fork`` every chunk runs in
    the calling process.
    """
    stop = start + n_trials

    def run(a, b):
        return [block(x, min(x + BLOCK_TRIALS, b)) for x in range(a, b, BLOCK_TRIALS)]

    n_chunks = min(workers, n_trials, os.cpu_count() or 1)
    if n_chunks <= 1 or not hasattr(os, "fork"):
        parts = run(start, stop)
    else:
        # n_chunks <= n_trials, so no chunk is empty
        bounds = np.linspace(start, stop, n_chunks + 1).astype(int).tolist()
        children = []       # (pid, read end, trials) of each child not yet reaped
        try:
            for a, b in zip(bounds[1:-1], bounds[2:]):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    try:
                        os.close(read_fd)
                        try:
                            reply = pickle.dumps((True, run(a, b)))
                        except BaseException as exc:
                            reply = pickle.dumps((False, exc))
                        with os.fdopen(write_fd, "wb") as pipe:
                            pipe.write(reply)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write_fd)
                children.append((pid, os.fdopen(read_fd, "rb"), f"[{a}, {b})"))
            parts = run(bounds[0], bounds[1])
            while children:
                pid, pipe, trials = children[0]
                with pipe:
                    reply = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if not reply:
                    raise RuntimeError(
                        f"trial process {pid} (trials {trials}) ended without a result, "
                        f"exit status {os.waitstatus_to_exitcode(status)}")
                ok, rows = pickle.loads(reply)
                if not ok:
                    raise rows
                parts += rows
        finally:
            for pid, pipe, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


def draw_block(cfg: ScenarioConfig, label: str, start: int, stop: int):
    """Typical-user distances, gains and busy masks of trials [start, stop).

    Each trial makes the draws :func:`validation.draw_instance` makes, from the same
    "deploy" and "fading" substreams of ``label`` in the same order, so each
    row is bit-identical to that trial's deployment and channel: ``busy``
    is the transferring mask of its :class:`Deployment`. Only the
    placement's positions and busy mask are copied into the block; no
    ``Deployment`` is built. Returns ``(dist, gains, busy)``, each of shape
    ``(stop - start, n_bs)``.
    """
    trials = range(start, stop)
    base = RandomStream(cfg.seed, label)
    deploy = base.child("deploy").rngs(trials)
    fading = base.child("fading").rngs(trials)
    positions = np.empty((len(trials), cfg.n_bs, 2))
    busy = np.empty((len(trials), cfg.n_bs), dtype=bool)
    fade = np.empty((len(trials), cfg.n_bs))
    for i, (deploy_rng, fading_rng) in enumerate(zip(deploy, fading)):
        placed = generate_deployment(cfg, deploy_rng)
        positions[i] = placed.bs_positions
        busy[i] = placed.busy
        fade[i] = fading_rng.exponential(1.0, size=(cfg.n_bs, 1))[:, 0]
    # the typical user sits at the center, as generate_deployment puts it
    center = cfg.area_side_m / 2.0
    dist = np.hypot(positions[..., 0] - center, positions[..., 1] - center)
    gains = path_loss(dist, cfg) * fade
    check_gains(gains)
    return dist, gains, busy


def _ranked_by_gain(bs: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Each row of ``bs`` reordered strongest gain first, ties to the lower index."""
    g = np.take_along_axis(gains, bs, axis=1)
    return np.take_along_axis(bs, np.lexsort((bs, -g), axis=-1), axis=1)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def coverage_block(cfg: ScenarioConfig, start: int, stop: int):
    """Both arms of coverage trials [start, stop) on stacked arrays.

    Returns ``(nearest, members, sinr)``: the nearest BS per trial, the
    cooperative group per trial in selection order (as
    ``form_group(0, math.inf, ..., share_busy=True)`` picks it), and the
    (cellular, cell-less) SINR per trial. The masked row sums add in another
    order than :func:`downlink_sinr`, so an SINR may differ from
    :func:`validation.coverage_trial`'s in the last bits. Each is a copy, not a view
    of the block's sort: the scan holds every block's result at once.
    """
    dist, gains, busy = draw_block(cfg, "coverage", start, stop)
    candidates = np.argsort(dist, axis=1, kind="stable")[:, :cfg.n_candidates]
    nearest = candidates[:, 0].copy()
    # coverage deployments hold no sleeping BS, so under share_busy every
    # candidate is eligible
    members = _ranked_by_gain(candidates, gains)[:, :cfg.max_group_size].copy()
    alone = np.zeros(gains.shape, dtype=bool)
    np.put_along_axis(alone, candidates[:, :1], True, axis=1)
    grouped = np.zeros(gains.shape, dtype=bool)
    np.put_along_axis(grouped, members, True, axis=1)
    power = cfg.bs_tx_power_mw
    sinr = np.empty((len(gains), 2))
    # overflow to inf or nan, as the scalar path's Python floats do silently
    with np.errstate(over="ignore", invalid="ignore"):
        for arm, serving in enumerate((alone, grouped)):
            signal = power * np.where(serving, gains, 0.0).sum(axis=1)
            interference = power * np.where(busy & ~serving, gains, 0.0).sum(axis=1)
            sinr[:, arm] = signal / (interference + cfg.noise_power_mw)
    return nearest, members, sinr


def run_coverage(cfg: ScenarioConfig, thresholds_db=None, workers: int = 1,
                 event_log=None) -> CoverageCurve:
    """Coverage probability versus SINR threshold.

    Per trial, the cellular arm associates the typical user with its single
    nearest BS while the cell-less arm serves it with a cooperative group
    filled greedily to the size cap from the strongest candidates, enlisting
    busy stations whose interference then counts as signal; both arms see
    the same deployment and fading. Coverage at a threshold is the fraction
    of trials whose SINR clears it, so each curve is non-increasing exactly.
    Thresholds are finite, sorted and deduplicated. ``event_log`` gets one
    line per trial's group, in trial order.
    """
    thresholds = _checked_sweep("thresholds_db", thresholds_db, DEFAULT_THRESHOLDS_DB,
                                whole=False)
    _, members, sinr = _scan_trials(partial(coverage_block, cfg), cfg.n_trials, workers)
    n = cfg.n_trials
    if event_log is not None:
        # form_group's rate < demand with an infinite demand: false exactly
        # when the group SINR is inf or nan
        for trial, (row, group_sinr) in enumerate(zip(members.tolist(), sinr[:, 1].tolist())):
            listed = ",".join(map(str, row))
            event_log.write(f"trial={trial} mt=0 members={listed} "
                            f"best_effort={str(group_sinr < math.inf).lower()}\n")
    cuts = [10.0 ** (t / 10.0) for t in thresholds]
    cellular = [np.count_nonzero(sinr[:, 0] >= c) / n for c in cuts]
    cellless = [np.count_nonzero(sinr[:, 1] >= c) / n for c in cuts]
    return CoverageCurve(
        thresholds_db=thresholds,
        cellular_prob=tuple(cellular),
        cellless_prob=tuple(cellless),
        cellular_ci95=tuple(binomial_ci95(p, n) for p in cellular),
        cellless_ci95=tuple(binomial_ci95(p, n) for p in cellless),
        n_trials=n,
    )


# ---------------------------------------------------------------------------
# BS energy saving
# ---------------------------------------------------------------------------

def bs_energy_ledger(cfg: ScenarioConfig, s: int, k: int, n_users: int) -> float:
    """Fractional BS power saving with ``s`` sleepers, in closed form.

    ``n_users`` groups of ``k`` members transfer and every other BS listens
    in the baseline; each sleeper draws P_sleep instead of P_listen, so

        saving = s (P_listen - P_sleep)
                 / (n_users k P_transfer + (n_bs - n_users k) P_listen).

    Placement, fading and grouping only decide which stations transfer or
    sleep, never how many, so no draw enters.
    """
    power = cfg.state_power_mw
    p_listen = power[BsPowerState.LISTENING]
    busy = n_users * k
    p_base = busy * power[BsPowerState.TRANSFERRING] + (cfg.n_bs - busy) * p_listen
    return s * (p_listen - power[BsPowerState.SLEEPING]) / p_base


def run_bs_energy(cfg: ScenarioConfig, sleeping_counts=None, group_sizes=None,
                  n_users: int = 10) -> BsEnergyCurve:
    """Fractional BS power saving over sleeping counts and group sizes.

    Every trial of :func:`validation.bs_energy_trial` yields the same exact ledger, so
    the curve is :func:`bs_energy_ledger` itself and every CI half-width is
    zero; ``n_trials`` is only echoed. The ``validate`` suite checks
    simulated trials against it. Both sweeps take whole numbers, and
    ``n_users`` an exact integer, as the config's int fields do.
    """
    sleeping_counts = _checked_sweep("sleeping_counts", sleeping_counts, DEFAULT_SLEEPING_COUNTS)
    group_sizes = _checked_sweep("group_sizes", group_sizes, DEFAULT_BS_GROUP_SIZES)
    n_users = _typed("n_users", int, n_users)
    if n_users < 1:
        raise InfeasibleConfig("n_users must be at least 1")
    if sleeping_counts[0] < 0:
        raise InfeasibleConfig("sleeping counts must be non-negative")
    most_asleep = sleeping_counts[-1]     # the sweep is sorted and not empty
    for k in group_sizes:
        if k < 1:
            raise InfeasibleConfig("group sizes must be at least 1")
        need = n_users * k + most_asleep
        if need > cfg.n_bs:
            raise InfeasibleConfig(
                f"{n_users} groups of {k} plus {most_asleep} sleepers "
                f"need {need} BSs but only {cfg.n_bs} exist")
    saving = {k: tuple(bs_energy_ledger(cfg, s, k, n_users) for s in sleeping_counts)
              for k in group_sizes}
    ci = {k: (0.0,) * len(sleeping_counts) for k in group_sizes}
    return BsEnergyCurve(sleeping_counts, group_sizes, saving, ci,
                         n_users, cfg.n_trials)


# ---------------------------------------------------------------------------
# terminal energy saving
# ---------------------------------------------------------------------------

def mt_energy_block(cfg: ScenarioConfig, group_sizes, start: int, stop: int) -> np.ndarray:
    """Rows of :func:`validation.mt_energy_trial` for trials [start, stop), bit for bit.

    The joint order is the nearest candidate, then the others strongest gain
    first; ``np.cumsum`` adds along each row in sequence, as the scalar
    prefix sum does.
    """
    dist, gains, _ = draw_block(cfg, "mt-energy", start, stop)
    candidates = np.argsort(dist, axis=1, kind="stable")[:, :cfg.n_candidates]
    order = np.concatenate([candidates[:, :1],
                            _ranked_by_gain(candidates[:, 1:], gains)], axis=1)
    prefix = np.cumsum(np.take_along_axis(gains, order, axis=1), axis=1)
    return 1.0 - prefix[:, :1] / prefix[:, np.asarray(group_sizes, dtype=int) - 1]


def run_mt_energy(cfg: ScenarioConfig, group_sizes=None, workers: int = 1) -> MtEnergyCurve:
    """Mean fractional terminal power saving per joint-reception group size."""
    group_sizes = _checked_sweep("group_sizes", group_sizes, DEFAULT_MT_GROUP_SIZES)
    for n in group_sizes:
        if not 1 <= n <= cfg.n_candidates:
            raise InfeasibleConfig(
                f"group size {n} outside [1, n_candidates={cfg.n_candidates}]")
    samples = _scan_trials(partial(mt_energy_block, cfg, group_sizes), cfg.n_trials, workers)
    saving = tuple(float(np.mean(samples[:, i])) for i in range(len(group_sizes)))
    ci = tuple(mean_ci95(samples[:, i]) for i in range(len(group_sizes)))
    return MtEnergyCurve(group_sizes, saving, ci, cfg.n_trials)
