"""Monte Carlo experiment kernels and their brute-force verification oracles.

Three experiments are provided:

* coverage probability of the cooperative cell-less scheme against the
  single-nearest-BS cellular baseline, on common random numbers;
* fractional BS power saving as stations are put to sleep, for several
  cooperative group sizes; no draw changes this power ledger, so it is
  computed in closed form and the simulated trial only cross-checks it;
* fractional terminal power saving when uplink joint reception lets the
  terminal back its transmit power off while holding the baseline rate.

Every trial derives its randomness from a (seed, experiment, trial)
substream and aggregation walks trials in index order, so outputs are
bit-identical for any worker count. With several workers the calling
process runs the first chunk of trials and forks one child per other
chunk, at most one process per CPU in all (see :func:`_scan_trials`).

``run_coverage`` and ``run_mt_energy`` run their trials in blocks of
``BLOCK_TRIALS``: each trial draws its placement and fading from its own
substreams, and everything after the draws is computed once per block on
stacked ``(trials, n_bs)`` arrays. The block path reads each placement's
arrays and builds no :class:`Deployment`. The per-trial functions
(:func:`coverage_trial`, :func:`mt_energy_trial`) are the readable scalar
references the block kernels are checked against; they, the BS energy
trial and the validation suites build the controller state of each draw
with :meth:`Deployment.from_placement`.
"""

import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .channel import (check_gains, downlink_sinr, path_loss, sample_channel,
                      spectral_efficiency, uplink_joint_snr)
from .controller import (IDLE_STATES, CoopGroup, form_group, group_rate, nearest_awake,
                         start_service, transition_many)
from .errors import BusyBs, IllegalTransition, InfeasibleConfig
from .scenario import (BsPowerState, Deployment, RandomStream, ScenarioConfig,
                       generate_deployment, nearest_candidates, total_power_mw)

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
        if list(self.thresholds_db) != sorted(self.thresholds_db):
            raise ValueError("thresholds must ascend")
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


def draw_instance(cfg: ScenarioConfig, base: RandomStream):
    """Deployment from ``base``'s "deploy" child, channel from its "fading" child."""
    dep = Deployment.from_placement(generate_deployment(cfg, base.child("deploy").rng()))
    return dep, sample_channel(dep, cfg, base.child("fading"))


def draw_block(cfg: ScenarioConfig, label: str, start: int, stop: int):
    """Typical-user distances, gains and busy masks of trials [start, stop).

    Each trial makes the draws :func:`draw_instance` makes, from the same
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


def joint_reception_order(dep: Deployment, ch, cfg: ScenarioConfig) -> list:
    """The typical user's candidates: the nearest, then the rest strongest gain first.

    The nearest BS is the lone receiver of the non-joint baseline, so it
    anchors every joint-reception group; each group is a prefix of this list.
    """
    candidates = nearest_candidates(dep, 0, cfg.n_candidates)
    gains = ch.gains[:, 0]
    return candidates[:1] + sorted(candidates[1:], key=lambda b: (-gains[b], b))


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def coverage_instance(cfg: ScenarioConfig, trial: int):
    """Deployment and channel draw shared by both arms of one coverage trial."""
    return draw_instance(cfg, RandomStream(cfg.seed, "coverage", trial))


def coverage_trial(cfg: ScenarioConfig, trial: int) -> tuple:
    """(cellular, cell-less) downlink SINR for one trial on common draws.

    The readable scalar reference of :func:`coverage_block`.
    """
    dep, ch = coverage_instance(cfg, trial)
    nearest = nearest_candidates(dep, 0, 1)[0]
    # share_busy: the group converts nearby busy interferers into signal
    group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
    return (downlink_sinr(0, [nearest], dep, ch, cfg),
            downlink_sinr(0, group.member_bs, dep, ch, cfg))


def coverage_block(cfg: ScenarioConfig, start: int, stop: int):
    """Both arms of coverage trials [start, stop) on stacked arrays.

    Returns ``(nearest, members, sinr)``: the nearest BS per trial, the
    cooperative group per trial in selection order (as
    ``form_group(0, math.inf, ..., share_busy=True)`` picks it), and the
    (cellular, cell-less) SINR per trial. The masked row sums add in another
    order than :func:`downlink_sinr`, so an SINR may differ from
    :func:`coverage_trial`'s in the last bits. Each is a copy, not a view
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
    Thresholds are sorted and deduplicated. ``event_log`` gets one line per
    trial's group, in trial order.
    """
    if thresholds_db is None:
        thresholds_db = DEFAULT_THRESHOLDS_DB
    thresholds = sorted({float(t) for t in thresholds_db})
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
        thresholds_db=tuple(thresholds),
        cellular_prob=tuple(cellular),
        cellless_prob=tuple(cellless),
        cellular_ci95=tuple(binomial_ci95(p, n) for p in cellular),
        cellless_ci95=tuple(binomial_ci95(p, n) for p in cellless),
        n_trials=n,
    )


# ---------------------------------------------------------------------------
# BS energy saving
# ---------------------------------------------------------------------------

def bs_energy_trial(cfg: ScenarioConfig, sleeping_counts, group_sizes,
                    n_users: int, trial: int) -> np.ndarray:
    """Fractional BS power saving for one trial, per (group size, sleeping count).

    All terminals get a fixed-size group formed over every idle BS (the
    candidate ring is widened to the whole deployment so each group reaches
    exactly its size); members transfer, a random draw of the off-duty BSs
    sleeps, the rest listen. The baseline keeps the would-be sleepers
    listening, so the saving depends only on the power ledger: this trial is
    the simulated reference that :func:`bs_energy_ledger` is checked against.
    """
    base = RandomStream(cfg.seed, "bs-energy", trial)
    place_cfg = replace(cfg, n_busy_bs=0)
    dep0 = Deployment.from_placement(
        generate_deployment(place_cfg, base.child("deploy").rng(), n_mt=n_users))
    ch = sample_channel(dep0, cfg, base.child("fading"))
    # one permutation per trial: the first s entries sleep, nesting the sweeps
    perm = base.child("sleep").rng().permutation(cfg.n_bs)

    out = np.empty((len(group_sizes), len(sleeping_counts)))
    for ki, k in enumerate(group_sizes):
        form_cfg = replace(cfg, n_busy_bs=0, n_candidates=cfg.n_bs, max_group_size=k)
        dep = dep0
        for mt in range(n_users):
            dep = start_service(dep, form_group(mt, math.inf, dep, ch, form_cfg))
        off_duty = perm[dep.bs_states[perm] != BsPowerState.TRANSFERRING.value].tolist()
        # baseline keeps every off-duty BS listening; sleepers step down from there
        baseline = transition_many(dep, off_duty, BsPowerState.LISTENING)
        p_base = total_power_mw(baseline, cfg)
        for si, s in enumerate(sleeping_counts):
            dep_s = transition_many(baseline, off_duty[:s], BsPowerState.SLEEPING)
            out[ki, si] = 1.0 - total_power_mw(dep_s, cfg) / p_base
    return out


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

    Every trial of :func:`bs_energy_trial` yields the same exact ledger, so
    the curve is :func:`bs_energy_ledger` itself and every CI half-width is
    zero; ``n_trials`` is only echoed. The ``validate`` suite checks
    simulated trials against it.
    """
    if sleeping_counts is None:
        sleeping_counts = DEFAULT_SLEEPING_COUNTS
    if group_sizes is None:
        group_sizes = DEFAULT_BS_GROUP_SIZES
    sleeping_counts = tuple(sorted({int(s) for s in sleeping_counts}))
    group_sizes = tuple(sorted({int(k) for k in group_sizes}))
    if n_users < 1:
        raise InfeasibleConfig("n_users must be at least 1")
    if sleeping_counts and sleeping_counts[0] < 0:
        raise InfeasibleConfig("sleeping counts must be non-negative")
    most_asleep = sleeping_counts[-1] if sleeping_counts else 0
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

def mt_energy_trial(cfg: ScenarioConfig, group_sizes, trial: int) -> np.ndarray:
    """Fractional terminal power saving per group size for one trial.

    The nearest BS anchors every group (it is the lone receiver of the
    non-joint baseline); further members join strongest gain first. The
    power that holds the baseline rate is the exact algebraic solution
    P = P0 * g_nearest / sum(g over group), so the size-1 saving is zero by
    construction and savings grow monotonically with the group.
    """
    dep, ch = draw_instance(cfg, RandomStream(cfg.seed, "mt-energy", trial))
    order = joint_reception_order(dep, ch, cfg)
    # sequential prefix sums keep the per-trial savings monotone exactly
    prefix = np.cumsum(ch.gains[order, 0])
    return 1.0 - prefix[0] / prefix[np.asarray(group_sizes, dtype=int) - 1]


def mt_energy_block(cfg: ScenarioConfig, group_sizes, start: int, stop: int) -> np.ndarray:
    """Rows of :func:`mt_energy_trial` for trials [start, stop), bit for bit.

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
    if group_sizes is None:
        group_sizes = DEFAULT_MT_GROUP_SIZES
    group_sizes = tuple(sorted({int(n) for n in group_sizes}))
    for n in group_sizes:
        if not 1 <= n <= cfg.n_candidates:
            raise InfeasibleConfig(
                f"group size {n} outside [1, n_candidates={cfg.n_candidates}]")
    samples = _scan_trials(partial(mt_energy_block, cfg, group_sizes), cfg.n_trials, workers)
    saving = tuple(float(np.mean(samples[:, i])) for i in range(len(group_sizes)))
    ci = tuple(mean_ci95(samples[:, i]) for i in range(len(group_sizes)))
    return MtEnergyCurve(group_sizes, saving, ci, cfg.n_trials)


# ---------------------------------------------------------------------------
# verification oracles
# ---------------------------------------------------------------------------

def oracle_min_group(candidates, demand: float, dep, ch, cfg) -> CoopGroup:
    """Exhaustive reference for the typical user's group over a small candidate set.

    Rates every idle subset up to the size cap, each once. The smallest
    subset meeting the demand wins, ties broken by higher rate, then by the
    larger exact sum of member gains, then by lexicographic members; when
    nothing qualifies, the best full-size subset is returned best-effort;
    with no idle candidate at all, the nearest awake BS serves.

    Idle members interfere with nobody, so among subsets of one size the
    true rate grows with the member-gain sum; two subsets whose float rates
    round equal are therefore told apart by that sum, added exactly.
    """
    # imported here, not at the top: only the oracle needs exact sums, and
    # the module would add about 0.3 MB and 3 ms to every command's start-up
    from fractions import Fraction

    if len(candidates) > 12:
        raise ValueError("exhaustive search is limited to 12 candidates")
    idle = sorted(b for b in candidates if BsPowerState(dep.bs_states[b]) in IDLE_STATES)
    if not idle:
        fallback = nearest_awake(dep, 0)
        return CoopGroup((fallback,), 0, demand, group_rate([fallback], 0, dep, ch, cfg), True)

    gains = ch.gains[:, 0]

    def exact_gain(members):
        return sum(Fraction(float(gains[b])) for b in members)

    def best_of(rated):
        top_rate, top_members = -1.0, None
        for rate, members in rated:
            if rate > top_rate or (
                    rate == top_rate and exact_gain(members) > exact_gain(top_members)):
                top_rate, top_members = rate, members
        return top_rate, top_members

    for size in range(1, min(cfg.max_group_size, len(idle)) + 1):
        rated = [(group_rate(m, 0, dep, ch, cfg), m) for m in itertools.combinations(idle, size)]
        feasible = [(rate, m) for rate, m in rated if rate >= demand]
        if feasible:
            rate, members = best_of(feasible)
            return CoopGroup(members, 0, demand, rate, False)
    rate, members = best_of(rated)     # the size-cap subsets
    return CoopGroup(members, 0, demand, rate, True)


def oracle_power_solve(group, target_rate: float, dep, ch, cfg) -> float:
    """Bisect the typical user's transmit power that reaches a target uplink rate.

    Independent numeric route for the algebraic power solution. The bracket
    comes from the problem: ``hi`` starts at the baseline power
    ``mt_tx_power_mw`` and doubles while its rate falls short, then halves
    while the half still reaches the target, which leaves ``hi / 2`` short.
    Bisection then runs until the midpoint equals an end, and returns the
    end that reaches the target.
    """
    if not 0 < target_rate < math.inf:
        raise ValueError("target_rate must be positive and finite")

    def rate(p):
        return spectral_efficiency(uplink_joint_snr(p, group, dep, ch, cfg))

    # the rate grows with p, to inf once the SNR overflows, and is 0 at
    # p = 0, so both loops end
    hi = cfg.mt_tx_power_mw
    while rate(hi) < target_rate:
        hi *= 2.0
    if hi == math.inf:
        raise ValueError("no finite transmit power reaches target_rate")
    while rate(0.5 * hi) >= target_rate:
        hi *= 0.5
    lo = 0.5 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):     # the bracket is two adjacent floats
            return hi
        if rate(mid) < target_rate:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# built-in validation suites
# ---------------------------------------------------------------------------

def grouping_validation_instance(cfg: ScenarioConfig, index: int):
    """Random (deployment, channel, demand) instance for oracle comparison."""
    base = RandomStream(cfg.seed, "validate/grouping", index)
    dep, ch = draw_instance(cfg, base)
    demand = float(base.child("demand").rng().uniform(0.0, 8.0))
    return dep, ch, demand


def power_validation_instance(cfg: ScenarioConfig, index: int):
    """Random joint-reception instance: (group, baseline target, closed form)."""
    base = RandomStream(cfg.seed, "validate/power", index)
    dep, ch = draw_instance(cfg, base)
    order = joint_reception_order(dep, ch, cfg)
    n = int(base.child("size").rng().integers(1, cfg.n_candidates + 1))
    group = order[:n]
    target = spectral_efficiency(
        uplink_joint_snr(cfg.mt_tx_power_mw, order[:1], dep, ch, cfg))
    gains = ch.gains[:, 0]
    closed = cfg.mt_tx_power_mw * gains[order[0]] / float(np.sum(gains[group]))
    return dep, ch, group, target, closed


def grouping_check(cfg: ScenarioConfig, n_instances: int) -> tuple:
    """The greedy controller against the exhaustive oracle: a validation row."""
    mismatches = []
    for i in range(n_instances):
        dep, ch, demand = grouping_validation_instance(cfg, i)
        got = form_group(0, demand, dep, ch, cfg)
        want = oracle_min_group(nearest_candidates(dep, 0, cfg.n_candidates),
                                demand, dep, ch, cfg)
        if set(got.member_bs) != set(want.member_bs):
            mismatches.append(i)
    return ("grouping-oracle", not mismatches,
            f"{n_instances - len(mismatches)}/{n_instances} matched")


def power_check(cfg: ScenarioConfig, n_instances: int) -> tuple:
    """The closed-form terminal power against bisection: a validation row."""
    worst = 0.0
    for i in range(n_instances):
        dep, ch, group, target, closed = power_validation_instance(cfg, i)
        if not target > 0:
            # no power reaches a zero rate target, so the bisection has no root
            return ("power-solve", False, f"instance {i}: baseline rate rounds to 0")
        solved = oracle_power_solve(group, target, dep, ch, cfg)
        worst = max(worst, float(abs(solved - closed) / closed))
    return ("power-solve", worst < 1e-9, f"max relative error {worst:.3e}")


def run_validation(cfg: ScenarioConfig, n_instances: int = 1000) -> list:
    """Run the built-in oracle suites; returns (name, passed, detail) rows."""
    results = [grouping_check(cfg, n_instances), power_check(cfg, n_instances)]
    results.append(("state-machine", _state_machine_ok(), "16 transition pairs checked"))

    curve = run_bs_energy(cfg)
    ledger = np.array([curve.saving_fraction[k] for k in curve.group_sizes])
    worst = max(float(np.max(np.abs(ledger - bs_energy_trial(
        cfg, curve.sleeping_counts, curve.group_sizes, curve.n_users, trial))))
        for trial in range(20))
    results.append(("bs-energy-ledger", worst <= 1e-12,
                    f"20 simulated trials, max deviation {worst:.3e}"))

    small = replace(cfg, n_trials=min(cfg.n_trials, 200))
    pairs = (
        (run_coverage(small, workers=1), run_coverage(small, workers=2)),
        (run_mt_energy(small, workers=1), run_mt_energy(small, workers=2)),
    )
    same = all(a == b for a, b in pairs)
    results.append(("determinism", same,
                    "identical curves for 1 and 2 workers"))
    return results


def _state_machine_ok() -> bool:
    """Every (state, target) pair against the rule the controller documents.

    The expected set is derived here, not read from the controller's table:
    a step is legal iff the two states' codes are adjacent, or it is ready ->
    sleeping. A legal step must land on its target.
    """
    pos = np.array([[1.0, 1.0]])
    mts = np.array([[5.0, 5.0]])
    for current in BsPowerState:
        for target in BsPowerState:
            legal = (abs(current - target) == 1
                     or (current, target) == (BsPowerState.READY, BsPowerState.SLEEPING))
            dep = Deployment(pos, mts, (current.value,), (0,))
            try:
                landed = transition_many(dep, [0], target).bs_states[0] == target.value
                ok = legal and landed
            except IllegalTransition:
                ok = not legal
            if not ok:
                return False
    # a loaded BS must refuse every step
    loaded = Deployment(pos, mts, (BsPowerState.TRANSFERRING.value,), (1,))
    for target in BsPowerState:
        try:
            transition_many(loaded, [0], target)
            return False
        except BusyBs:
            pass
    return True
