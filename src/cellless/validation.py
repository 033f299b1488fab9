"""Scalar references, exhaustive oracles and the built-in validation suites.

Nothing here produces a curve. The block kernels of :mod:`cellless.experiments`
and the closed-form ledger of :mod:`cellless.curves` are what the ``coverage``,
``mt-energy`` and ``bs-energy`` commands run; this module holds what those
and the controller are checked against:

* the readable scalar references (:func:`coverage_trial`,
  :func:`mt_energy_trial`, :func:`bs_energy_trial`), which draw each trial
  from the same substreams as the block kernels and run it on the scalar
  network model of :mod:`cellless.controller`, starting from
  :meth:`~cellless.controller.Deployment.from_placement`;
* the oracles: an exhaustive subset search for the greedy group
  (:func:`oracle_min_group`) and a bisection for the algebraic terminal
  power (:func:`oracle_power_solve`);
* the suites that ``cellless validate`` runs (:func:`run_validation`).

Only ``validate`` and the tests import this module, so the curve commands
load neither it nor :mod:`cellless.controller`.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from .config import BsPowerState, ScenarioConfig
from .controller import (IDLE_STATES, CoopGroup, Deployment, downlink_sinr, form_group,
                         group_rate, nearest_awake, nearest_candidates, sample_channel,
                         spectral_efficiency, start_service, total_power_mw, transition_many,
                         uplink_joint_snr)
from .curves import run_bs_energy, run_coverage, run_mt_energy
from .errors import BusyBs, IllegalTransition, InfeasibleConfig
from .scenario import RandomStream, generate_deployment

# the most candidates oracle_min_group searches: at most 2 ** 12 subsets
ORACLE_MAX_CANDIDATES = 12


def draw_instance(cfg: ScenarioConfig, base: RandomStream):
    """Deployment from ``base``'s "deploy" child, channel from its "fading" child."""
    dep = Deployment.from_placement(generate_deployment(cfg, base.child("deploy").rng()))
    return dep, sample_channel(dep, cfg, base.child("fading"))


def joint_reception_order(dep: Deployment, ch, cfg: ScenarioConfig) -> list:
    """The typical user's candidates: the nearest, then the rest strongest gain first.

    The nearest BS is the lone receiver of the non-joint baseline, so it
    anchors every joint-reception group; each group is a prefix of this list.
    """
    candidates = nearest_candidates(dep, 0, cfg.n_candidates)
    gains = ch.gains[:, 0]
    return candidates[:1] + sorted(candidates[1:], key=lambda b: (-gains[b], b))


# ---------------------------------------------------------------------------
# scalar references of the experiments
# ---------------------------------------------------------------------------

def coverage_trial(cfg: ScenarioConfig, trial: int) -> tuple:
    """(cellular, cell-less) downlink SINR for one trial on common draws.

    The readable scalar reference of :func:`coverage_block`.
    """
    dep, ch = draw_instance(cfg, RandomStream(cfg.seed, "coverage", trial))
    nearest = nearest_candidates(dep, 0, 1)[0]
    # share_busy: the group converts nearby busy interferers into signal
    group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
    return (downlink_sinr(0, [nearest], dep, ch, cfg),
            downlink_sinr(0, group.member_bs, dep, ch, cfg))


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

    if len(candidates) > ORACLE_MAX_CANDIDATES:
        raise ValueError(f"exhaustive search is limited to {ORACLE_MAX_CANDIDATES} candidates")
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
    """Run the built-in oracle suites; returns (name, passed, detail) rows.

    A config whose candidate set the grouping oracle cannot search raises
    :class:`InfeasibleConfig` before any suite runs. Where the config does not
    fit a curve's default sweep, its row runs one that fits (the ledger names it).
    """
    if cfg.n_candidates > ORACLE_MAX_CANDIDATES:
        raise InfeasibleConfig(
            f"validate checks grouping against an exhaustive search of at most "
            f"{ORACLE_MAX_CANDIDATES} candidates, not n_candidates={cfg.n_candidates}")
    results = [grouping_check(cfg, n_instances), power_check(cfg, n_instances)]
    results.append(("state-machine", _state_machine_ok(), "16 transition pairs checked"))

    try:
        curve, sweep = run_bs_energy(cfg), ""
    except InfeasibleConfig:
        top = min(4, cfg.n_bs)
        curve = run_bs_energy(cfg, range(cfg.n_bs - top + 1), range(1, top + 1), n_users=1)
        sweep = f" of 1 user, group sizes 1..{top}, 0..{cfg.n_bs - top} sleepers"
    ledger = np.array([curve.saving_fraction[k] for k in curve.group_sizes])
    worst = max(float(np.max(np.abs(ledger - bs_energy_trial(
        cfg, curve.sleeping_counts, curve.group_sizes, curve.n_users, trial))))
        for trial in range(20))
    results.append(("bs-energy-ledger", worst <= 1e-12,
                    f"20 simulated trials{sweep}, max deviation {worst:.3e}"))

    small = replace(cfg, n_trials=min(cfg.n_trials, 200))
    sizes = range(1, min(5, cfg.n_candidates) + 1)
    pairs = (
        (run_coverage(small, workers=1), run_coverage(small, workers=2)),
        (run_mt_energy(small, sizes, workers=1), run_mt_energy(small, sizes, workers=2)),
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
