"""The Monte Carlo engine: block kernels over stacked trials, and the trial scan.

:mod:`cellless.curves` checks each experiment's sweeps and builds its curve;
this module runs the trials and returns statistics, not rows:
:func:`coverage_counts` gives the covered-trial count of each arm at each
cut, and :func:`mt_energy_moments` the mean terminal saving and its CI per
group size. The BS saving has a closed form and runs no trial.

Every trial derives its randomness from a (seed, experiment, trial)
substream and aggregation walks trials in index order, so outputs are
bit-identical for any worker count. With several workers the calling
process runs the first chunk of trials and forks one child per other
chunk, at most one process per CPU in all (see :func:`_scan_trials`).

Trials run in blocks of ``BLOCK_TRIALS``: each trial draws its placement
and fading from its own substreams, and everything after the draws is
computed once per block on stacked ``(trials, n_bs)`` arrays. The block
path reads each placement's arrays and builds no :class:`Deployment`, and
it needs no controller: the greedy group with an infinite demand is the
strongest candidates up to the size cap, a sort. The readable scalar
references these kernels are checked against, the exhaustive oracles and
the ``validate`` suites live in :mod:`cellless.validation`, which this
module does not import.
"""

import math
import os
import pickle
import signal
from dataclasses import replace
from functools import partial

import numpy as np

from .channel import check_gains, path_loss
from .config import ScenarioConfig
from .scenario import RandomStream, busy_decodable, decode_busy, generate_deployment

# Trials stacked per block, so the stacked arrays do not grow with the chunk.
# Stacking a whole 1 500-trial chunk raised a coverage run's peak RSS from
# 38.8 to 41.6 MB; with 256-trial blocks it stays at the per-trial loop's
# 38.8 MB, at about the same speed.
BLOCK_TRIALS = 256


def mean_ci95(samples: np.ndarray) -> float:
    """Half-width of the normal-approximation 95% CI of a sample mean."""
    n = len(samples)
    if n < 2:
        return 0.0
    return 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(n)


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

    Where :func:`busy_decodable` holds, each trial places its stations with
    ``n_busy_bs`` 0, which leaves its generator where ``choice`` would
    start, and keeps the raw words that ``choice`` would read; one
    :func:`decode_busy` pass then picks the whole block's busy sets. A row
    the decode flags takes its busy set from the trial's own
    :func:`generate_deployment`, and so does every row of any other config.
    """
    trials = range(start, stop)
    base = RandomStream(cfg.seed, label)
    deploy_stream = base.child("deploy")
    deploy = deploy_stream.rngs(trials)
    fading = base.child("fading").rngs(trials)
    n_bs, n_busy = cfg.n_bs, cfg.n_busy_bs
    decode = busy_decodable(n_bs, n_busy)
    # m == n draws its first step over [0, 0] from no word
    n_words = (n_busy - (n_busy == n_bs) + 1) // 2 if decode else 0
    placing = replace(cfg, n_busy_bs=0) if decode else cfg
    positions = np.empty((len(trials), n_bs, 2))
    busy = np.zeros((len(trials), n_bs), dtype=bool)
    words = np.empty((len(trials), n_words), dtype=np.uint64)
    fade = np.empty((len(trials), n_bs))
    for i, (deploy_rng, fading_rng) in enumerate(zip(deploy, fading)):
        placed = generate_deployment(placing, deploy_rng)
        positions[i] = placed.bs_positions
        if decode:
            words[i] = deploy_rng.bit_generator.random_raw(n_words)
        else:
            busy[i] = placed.busy
        fading_rng.standard_exponential(out=fade[i])
    if decode:
        chosen, flagged = decode_busy(words, n_bs, n_busy)
        np.put_along_axis(busy, chosen, True, axis=1)
        for i in np.flatnonzero(flagged).tolist():
            busy[i] = generate_deployment(cfg, deploy_stream.for_trial(start + i).rng()).busy
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


def coverage_counts(cfg: ScenarioConfig, cuts, workers: int, event_log) -> tuple:
    """Covered-trial counts of (cellular, cell-less) at each linear SINR cut.

    Each arm's entry holds, per cut in ``cuts``, the number of trials whose
    SINR is at least the cut, as a Python int. ``event_log`` gets one line
    per trial's group, in trial order, unless it is None.
    """
    _, members, sinr = _scan_trials(partial(coverage_block, cfg), cfg.n_trials, workers)
    if event_log is not None:
        # form_group's rate < demand with an infinite demand: false exactly
        # when the group SINR is inf or nan
        for trial, (row, group_sinr) in enumerate(zip(members.tolist(), sinr[:, 1].tolist())):
            listed = ",".join(map(str, row))
            event_log.write(f"trial={trial} mt=0 members={listed} "
                            f"best_effort={str(group_sinr < math.inf).lower()}\n")
    return tuple(tuple(int(np.count_nonzero(sinr[:, arm] >= c)) for c in cuts)
                 for arm in (0, 1))


# ---------------------------------------------------------------------------
# terminal energy saving
# ---------------------------------------------------------------------------

def mt_energy_block(cfg: ScenarioConfig, group_sizes, start: int, stop: int) -> np.ndarray:
    """Rows of :func:`validation.mt_energy_trial` for trials [start, stop), bit for bit.

    The joint order is the nearest candidate, then the others strongest gain
    first; ``np.cumsum`` adds along each row in sequence, as the scalar
    prefix sum does. No busy set is read, so the trials place with
    ``n_busy_bs`` 0 and draw none: the busy draw is the last of the "deploy"
    substream, so positions and fading stay the trial's own.
    """
    dist, gains, _ = draw_block(replace(cfg, n_busy_bs=0), "mt-energy", start, stop)
    candidates = np.argsort(dist, axis=1, kind="stable")[:, :cfg.n_candidates]
    order = np.concatenate([candidates[:, :1],
                            _ranked_by_gain(candidates[:, 1:], gains)], axis=1)
    prefix = np.cumsum(np.take_along_axis(gains, order, axis=1), axis=1)
    return 1.0 - prefix[:, :1] / prefix[:, np.asarray(group_sizes, dtype=int) - 1]


def mt_energy_moments(cfg: ScenarioConfig, group_sizes, workers: int) -> tuple:
    """(mean saving, CI half-width) tuples of the terminal saving, one entry per group size."""
    samples = _scan_trials(partial(mt_energy_block, cfg, group_sizes), cfg.n_trials, workers)
    saving = tuple(float(np.mean(samples[:, i])) for i in range(len(group_sizes)))
    ci = tuple(mean_ci95(samples[:, i]) for i in range(len(group_sizes)))
    return saving, ci
