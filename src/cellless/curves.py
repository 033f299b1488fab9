"""The paper's three curves: their types, their sweep contract and their front doors.

* coverage probability of the cooperative cell-less scheme against the
  single-nearest-BS cellular baseline, on common random numbers;
* fractional BS power saving as stations are put to sleep, for several
  cooperative group sizes; no draw changes this power ledger, so it is
  computed in closed form (:func:`bs_energy_ledger`);
* fractional terminal power saving when uplink joint reception lets the
  terminal back its transmit power off while holding the baseline rate.

Each ``run_*`` function checks and normalises its sweeps by one rule,
:func:`_checked_sweep`, and checks the sweep against the scenario, before
any trial, so a library caller and the command line get the same curve and
the same refusals. ``run_coverage`` and ``run_mt_energy`` then call the
Monte Carlo engine in :mod:`cellless.experiments`, which returns counts and
moments, not rows.

This module is pure Python, like :mod:`cellless.config`, :mod:`cellless.report`
and :mod:`cellless.cli`: ``bs-energy`` never loads numpy. The engine is
imported where a run needs it; the command line loads it before the config,
so that its import is start-up, not part of a run.
"""

import math
from dataclasses import dataclass

from .config import BsPowerState, ScenarioConfig, _number, _typed
from .errors import ConfigError, InfeasibleConfig

DEFAULT_THRESHOLDS_DB = tuple(float(t) for t in range(-15, 6))
DEFAULT_SLEEPING_COUNTS = tuple(range(0, 11))
DEFAULT_BS_GROUP_SIZES = (2, 3, 4)
DEFAULT_MT_GROUP_SIZES = (1, 2, 3, 4, 5)


def binomial_ci95(p: float, n: int) -> float:
    """Half-width of the normal-approximation 95% CI of a proportion."""
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


def _exact_int(name: str, value) -> int:
    """``value`` by the config's int rule (a bool or a fraction is refused), or ValueError."""
    try:
        return _typed(name, int, value)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None


def _ascending_ints(name: str, values) -> tuple:
    """A curve's count sweep: exact ints, strictly ascending, or ValueError."""
    counts = tuple(_exact_int(name, v) for v in values)
    if not all(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError(f"{name} must be strictly ascending")
    return counts


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
        object.__setattr__(self, "sleeping_counts",
                           _ascending_ints("sleeping_counts", self.sleeping_counts))
        object.__setattr__(self, "group_sizes", _ascending_ints("group_sizes", self.group_sizes))
        n_users = _exact_int("n_users", self.n_users)
        if n_users < 1:
            raise ValueError("n_users must be at least 1")
        object.__setattr__(self, "n_users", n_users)
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
        object.__setattr__(self, "group_sizes", _ascending_ints("group_sizes", self.group_sizes))
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
    is refused; with ``whole`` it is an int, and ``3.0`` is 3. A violation,
    or a sweep that is not iterable, raises :class:`InfeasibleConfig` naming
    the sweep and the value.
    """
    try:
        values = iter(default if values is None else values)
    except TypeError:
        raise InfeasibleConfig(f"{name} takes a sequence of numbers, not {values!r}") from None
    points = set()
    for value in values:
        try:
            number = _number(value)
        except TypeError:
            raise InfeasibleConfig(f"{name} takes numbers, not {value!r}") from None
        except OverflowError:
            # an int or a fraction beyond the float range; its repr may be too
            # long to print
            raise InfeasibleConfig(
                f"{name} takes finite numbers, not one beyond the float range") from None
        if not math.isfinite(number):
            raise InfeasibleConfig(f"{name} takes finite numbers, not {number!r}")
        if whole and not number.is_integer():
            raise InfeasibleConfig(f"{name} takes whole numbers, not {number!r}")
        points.add(int(number) if whole else number)
    if not points:
        raise InfeasibleConfig(f"{name} is empty")
    return tuple(sorted(points))


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def _linear_cut(threshold_db: float) -> float:
    """10 ** (threshold_db / 10); inf where that overflows, which no finite SINR clears."""
    try:
        return 10.0 ** (threshold_db / 10.0)
    except OverflowError:
        return math.inf


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
    cuts = [_linear_cut(t) for t in thresholds]
    from . import experiments

    counts = experiments.coverage_counts(cfg, cuts, workers, event_log)
    n = cfg.n_trials
    cellular, cellless = ([c / n for c in arm] for arm in counts)
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

def run_mt_energy(cfg: ScenarioConfig, group_sizes=None, workers: int = 1) -> MtEnergyCurve:
    """Mean fractional terminal power saving per joint-reception group size."""
    group_sizes = _checked_sweep("group_sizes", group_sizes, DEFAULT_MT_GROUP_SIZES)
    for n in group_sizes:
        if not 1 <= n <= cfg.n_candidates:
            raise InfeasibleConfig(
                f"group size {n} outside [1, n_candidates={cfg.n_candidates}]")
    from . import experiments

    saving, ci = experiments.mt_energy_moments(cfg, group_sizes, workers)
    return MtEnergyCurve(group_sizes, saving, ci, cfg.n_trials)
