import io
import math
import os
import re
import time
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellless import (BsEnergyCurve, BsPowerState, ChannelSample, ConfigError,
                      CoverageCurve, Deployment, InfeasibleConfig, MtEnergyCurve,
                      PlacementFailure, RandomStream, ScenarioConfig, bs_energy_ledger,
                      curves, experiments, generate_deployment, nearest_candidates,
                      run_bs_energy, run_coverage, run_mt_energy, scenario)
from cellless.controller import form_group
from cellless.curves import DEFAULT_THRESHOLDS_DB, binomial_ci95
from cellless.experiments import coverage_block, mean_ci95, mt_energy_block
from cellless.validation import bs_energy_trial, coverage_trial, draw_instance, mt_energy_trial

EPS = np.finfo(float).eps
CUTS = [10.0 ** (t / 10.0) for t in DEFAULT_THRESHOLDS_DB]


def _coverage_instance(cfg, trial):
    """The deployment and channel that both arms of a coverage trial share."""
    return draw_instance(cfg, RandomStream(cfg.seed, "coverage", trial))


def _scalar_coverage(cfg, trials):
    """Per trial through the scalar path: nearest BS, event-log line, SINRs."""
    rows = []
    for trial in trials:
        dep, ch = _coverage_instance(cfg, trial)
        group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
        members = ",".join(str(b) for b in group.member_bs)
        line = (f"trial={trial} mt={group.served_mt} members={members} "
                f"best_effort={str(group.best_effort).lower()}")
        rows.append((nearest_candidates(dep, 0, 1)[0], line, coverage_trial(cfg, trial)))
    return rows


def _assert_sinrs_match(cfg, got, want):
    # two reassociated sums of at most n_bs positive terms, then one division
    rtol = 4 * cfg.n_bs * EPS
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * w, (g, w)
        assert [g >= c for c in CUTS] == [w >= c for c in CUTS]


def _scanned(cfg, start, stop):
    """Members and SINRs of coverage trials [start, stop) through the block scan."""
    _, members, sinr = experiments._scan_trials(partial(coverage_block, cfg),
                                                stop - start, 1, start)
    return members, sinr


def _mt_sizes(cfg):
    return tuple(range(1, min(5, cfg.n_candidates) + 1))


class TestCoverage:
    @pytest.fixture(scope="class")
    def curve(self):
        from cellless import ScenarioConfig
        cfg = ScenarioConfig(n_trials=400)
        return run_coverage(cfg, thresholds_db=[-100.0] + list(range(-15, 6)) + [60.0])

    def test_extreme_thresholds(self, curve):
        assert curve.cellular_prob[0] >= 0.99 and curve.cellless_prob[0] >= 0.99
        assert curve.cellular_prob[-1] <= 0.01 and curve.cellless_prob[-1] <= 0.01

    def test_exact_monotonicity(self, curve):
        assert all(a >= b for a, b in zip(curve.cellular_prob, curve.cellular_prob[1:]))
        assert all(a >= b for a, b in zip(curve.cellless_prob, curve.cellless_prob[1:]))

    def test_ci_half_widths(self, curve):
        n = curve.n_trials
        for p, ci in zip(curve.cellular_prob, curve.cellular_ci95):
            assert ci == pytest.approx(1.96 * math.sqrt(p * (1 - p) / n), abs=1e-12)

    def test_thresholds_are_sorted_and_deduplicated(self, cfg):
        small = replace(cfg, n_trials=30)
        want = run_coverage(small, thresholds_db=[-5.0, 0.0])
        assert run_coverage(small, thresholds_db=[0.0, -5.0, 0.0, -5]) == want
        assert want.thresholds_db == (-5.0, 0.0)

    def test_group_supersedes_single_association(self, cfg):
        # common draws: whenever the idle nearest BS joins the group, the
        # cooperative arm can only do better
        checked = 0
        for trial in range(150):
            dep, ch = _coverage_instance(cfg, trial)
            nearest = nearest_candidates(dep, 0, 1)[0]
            group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
            cellular, cellless = coverage_trial(cfg, trial)
            if (dep.bs_states[nearest] == BsPowerState.READY
                    and nearest in group.member_bs):
                assert cellless >= cellular
                checked += 1
        assert checked > 20

    def test_event_log_lines(self, cfg, tmp_path):
        path = tmp_path / "events.log"
        small = replace(cfg, n_trials=25)
        with open(path, "w") as fh:
            run_coverage(small, thresholds_db=[0.0], event_log=fh)
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        assert lines[0].startswith("trial=0 mt=0 members=")
        assert lines[0].endswith(" best_effort=true")


class TestBlockKernels:
    """The block kernels against the scalar references, trial by trial."""

    N_EDGE = 513

    @pytest.fixture(scope="class")
    def oracle(self):
        from cellless import ScenarioConfig
        cfg = ScenarioConfig(n_bs=12, n_busy_bs=5, n_candidates=6, seed=7)
        coverage = _scalar_coverage(cfg, range(self.N_EDGE))
        mt = np.array([mt_energy_trial(cfg, _mt_sizes(cfg), t) for t in range(self.N_EDGE)])
        return cfg, coverage, mt

    @pytest.mark.parametrize("overrides", [
        {},
        {"n_busy_bs": 0},                                   # no interferer at all
        {"n_busy_bs": 50},
        {"n_candidates": 50, "max_group_size": 5},
        {"n_bs": 1, "n_busy_bs": 1, "n_candidates": 1, "max_group_size": 1},
    ])
    def test_blocks_match_scalar_trials(self, overrides):
        from cellless import ScenarioConfig
        cfg = ScenarioConfig(seed=9, **overrides)
        start, stop = 3, 43
        nearest, members, sinr = coverage_block(cfg, start, stop)
        for i, trial in enumerate(range(start, stop)):
            dep, ch = _coverage_instance(cfg, trial)
            assert nearest[i] == nearest_candidates(dep, 0, 1)[0]
            group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
            assert tuple(members[i]) == group.member_bs
            _assert_sinrs_match(cfg, sinr[i], coverage_trial(cfg, trial))
        sizes = _mt_sizes(cfg)
        want = np.array([mt_energy_trial(cfg, sizes, t) for t in range(start, stop)])
        assert mt_energy_block(cfg, sizes, start, stop).tobytes() == want.tobytes()

    @pytest.mark.parametrize("overrides", [
        {},
        {"n_busy_bs": 50},                                  # every station busy
        {"n_bs": 1, "n_busy_bs": 1, "n_candidates": 1, "max_group_size": 1},
    ])
    def test_block_busy_masks_match_per_trial_placements(self, overrides):
        # the block applies busy_mask once to every trial's words; each row
        # must be the mask that the trial's own placement draws
        cfg = ScenarioConfig(seed=4, **overrides)
        busy = experiments.draw_block(cfg, "coverage", 5, 45)[2]
        deploy = RandomStream(cfg.seed, "coverage").child("deploy")
        want = [generate_deployment(cfg, rng).busy for rng in deploy.rngs(range(5, 45))]
        assert busy.dtype == bool and busy.tobytes() == np.array(want).tobytes()
        assert np.all(busy.sum(axis=1) == cfg.n_busy_bs)

    def test_mt_energy_draws_no_busy_set(self, monkeypatch):
        # the terminal saving never reads a busy set, so none is drawn
        def refuse(*args):
            raise AssertionError("a busy set was drawn")

        cfg = ScenarioConfig(seed=4)
        sizes = _mt_sizes(cfg)
        want = np.array([mt_energy_trial(cfg, sizes, t) for t in range(5, 45)])
        monkeypatch.setattr(experiments, "busy_mask", refuse)
        monkeypatch.setattr(scenario, "busy_mask", refuse)
        assert mt_energy_block(cfg, sizes, 5, 45).tobytes() == want.tobytes()

    def test_coverage_block_peak_allocation(self, cfg):
        # one default block holds its draws, one (trials, n_bs) index array
        # for the busy sets and the kernel's sorts; per-block temporaries
        # beyond those push the traced peak over the bound
        coverage_block(cfg, 0, experiments.BLOCK_TRIALS)
        tracemalloc.start()
        try:
            coverage_block(cfg, 0, experiments.BLOCK_TRIALS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800_000, (
            f"a {experiments.BLOCK_TRIALS}-trial coverage block peaked at {peak} bytes: "
            "the kernel allocates more per block than its draws and sorts need")

    def test_block_edges(self, oracle):
        cfg, coverage, mt = oracle
        sizes = _mt_sizes(cfg)
        # 513 trials: two full blocks and a one-trial block
        log = io.StringIO()
        run_coverage(replace(cfg, n_trials=self.N_EDGE), event_log=log)
        assert log.getvalue().splitlines() == [line for _, line, _ in coverage]
        members, whole = _scanned(cfg, 0, self.N_EDGE)
        for got, (_, _, want) in zip(whole, coverage):
            _assert_sinrs_match(cfg, got, want)
        mt_block = partial(mt_energy_block, cfg, sizes)
        assert experiments._scan_trials(mt_block, self.N_EDGE, 1).tobytes() == mt.tobytes()
        # shorter scans and one that starts mid-block give the same rows
        for start, stop in ((0, 1), (0, 256), (0, 257), (100, self.N_EDGE)):
            part, sinr = _scanned(cfg, start, stop)
            assert sinr.tobytes() == whole[start:stop].tobytes()
            assert part.tobytes() == members[start:stop].tobytes()
            rows = experiments._scan_trials(mt_block, stop - start, 1, start)
            assert rows.tobytes() == mt[start:stop].tobytes()

    def test_block_holds_no_views(self, cfg):
        # a view would keep the block's whole (trials, n_bs) sort alive while
        # the scan holds every block's result
        for arr in coverage_block(cfg, 0, 4):
            assert arr.base is None

    def test_block_path_builds_no_deployment(self, monkeypatch):
        # every Deployment runs its check, so one that refuses to be built
        # stops any path that builds one: the scalar reference does
        def refuse(dep):
            raise AssertionError("a Deployment was built")

        monkeypatch.setattr(Deployment, "__post_init__", refuse)
        cfg = ScenarioConfig(n_trials=5)
        with pytest.raises(AssertionError, match="a Deployment was built"):
            coverage_trial(cfg, 0)
        sinr = coverage_block(cfg, 0, 5)[2]
        assert sinr.shape == (5, 2) and np.all(sinr > 0)
        assert mt_energy_block(cfg, (1, 2, 3), 0, 5).shape == (5, 3)

    def test_worker_count_at_block_edges(self, oracle):
        cfg = replace(oracle[0], n_trials=self.N_EDGE)
        logs = [io.StringIO(), io.StringIO()]
        curves = [run_coverage(cfg, workers=w, event_log=log) for w, log in zip((1, 2), logs)]
        assert curves[0] == curves[1]
        assert logs[0].getvalue() == logs[1].getvalue()

    def test_overflowing_sinr_logs_the_scalar_rule(self, cfg):
        # with no interferer, P * sum(g) / noise overflows to inf in some
        # trials, where form_group's rate < demand is false; any
        # RuntimeWarning fails here. Coverage never reads the terminal
        # power; it is lowered only so that the uplink rule accepts the noise.
        big = replace(cfg, noise_power_mw=1e-307, mt_tx_power_mw=1e-20, n_busy_bs=0,
                      n_trials=60)
        log = io.StringIO()
        run_coverage(big, event_log=log)
        lines = log.getvalue().splitlines()
        assert lines == [line for _, line, _ in _scalar_coverage(big, range(60))]
        assert any(line.endswith("best_effort=false") for line in lines)
        assert any(line.endswith("best_effort=true") for line in lines)


class TestBsEnergy:
    def test_exact_power_ledger(self, cfg):
        """Ledger check: baseline 10*2*200 + 30*50 = 5500 mW, ten sleepers
        shave 10*(50-10) = 400 mW, so the saving is 400/5500."""
        small = replace(cfg, n_trials=20)
        curve = run_bs_energy(small, sleeping_counts=range(11))
        assert curve.saving_fraction[2][10] == pytest.approx(400 / 5500, abs=1e-14)
        assert curve.saving_fraction[2][0] == 0.0
        for k in curve.group_sizes:
            p_base = 10 * k * 200.0 + (50 - 10 * k) * 50.0
            for s, got in zip(curve.sleeping_counts, curve.saving_fraction[k]):
                assert got == pytest.approx(s * 40.0 / p_base, abs=1e-14)

    def test_linear_and_ordered_per_trial(self, cfg):
        sleeping = tuple(range(11))
        sample = bs_energy_trial(cfg, sleeping, (2, 3, 4), 10, trial=5)
        for ki in range(3):
            diffs = np.diff(sample[ki])
            assert np.all(diffs > 0)
            assert np.allclose(diffs, diffs[0], atol=1e-14)
        for si in range(1, 11):
            assert sample[0, si] > sample[1, si] > sample[2, si]

    def test_infeasible_combination_rejected(self, cfg):
        with pytest.raises(InfeasibleConfig):
            run_bs_energy(replace(cfg, n_trials=2), sleeping_counts=[11],
                          group_sizes=[4], n_users=10)
        with pytest.raises(InfeasibleConfig, match="plus 0 sleepers need 60 BSs"):
            run_bs_energy(cfg, sleeping_counts=[0], group_sizes=[6], n_users=10)

    def test_means_have_zero_spread(self, cfg):
        curve = run_bs_energy(replace(cfg, n_trials=10))
        assert max(max(curve.ci95[k]) for k in curve.group_sizes) == 0.0

    @pytest.mark.parametrize("powers", [
        None, (7.3, 41.9, 88.1, 213.7)])
    def test_simulated_trials_match_ledger(self, cfg, powers):
        if powers is not None:
            cfg = replace(cfg, state_power_mw=powers)
        sleeping, sizes = tuple(range(11)), (2, 3, 4)
        ledger = [[bs_energy_ledger(cfg, s, k, 10) for s in sleeping] for k in sizes]
        for trial in range(3):
            sample = bs_energy_trial(cfg, sleeping, sizes, 10, trial)
            assert np.max(np.abs(sample - ledger)) <= 1e-12


class TestMtEnergy:
    def test_single_receiver_saves_nothing_exactly(self, cfg):
        for trial in range(50):
            savings = mt_energy_trial(cfg, (1, 2, 3), trial)
            assert savings[0] == 0.0

    def test_savings_non_decreasing_per_trial(self, cfg):
        for trial in range(200):
            savings = mt_energy_trial(cfg, (1, 2, 3, 4, 5), trial)
            assert np.all(np.diff(savings) >= 0)

    def test_curve_grows_with_group(self, cfg):
        curve = run_mt_energy(replace(cfg, n_trials=300))
        assert curve.saving_fraction[0] == 0.0
        assert all(a < b for a, b in zip(curve.saving_fraction,
                                         curve.saving_fraction[1:]))

    def test_oversized_group_rejected(self, cfg):
        with pytest.raises(InfeasibleConfig):
            run_mt_energy(replace(cfg, n_trials=2), group_sizes=[11])
        with pytest.raises(InfeasibleConfig):
            run_mt_energy(replace(cfg, n_trials=2), group_sizes=[0])


class TestDeterminism:
    def test_same_seed_same_curves(self, cfg):
        small = replace(cfg, n_trials=120)
        assert run_coverage(small) == run_coverage(small)
        assert run_mt_energy(small) == run_mt_energy(small)

    def test_worker_count_never_changes_results(self, cfg):
        small = replace(cfg, n_trials=90)
        assert run_coverage(small, workers=1) == run_coverage(small, workers=3)
        assert run_mt_energy(small, workers=1) == run_mt_energy(small, workers=2)

    def test_pool_is_bounded_by_chunks_and_cpus(self, cfg, monkeypatch):
        small = replace(cfg, n_trials=6)
        serial = run_mt_energy(small)
        forks = _count_forks(monkeypatch, cpus=4)
        # the calling process runs the first chunk: one child fewer than chunks
        for n_trials, workers, children in ((6, 10_000, 3), (6, 3, 2), (2, 8, 1), (6, 1, 0)):
            del forks[:]
            part = replace(small, n_trials=n_trials)
            assert run_mt_energy(part, workers=workers) == run_mt_energy(part)
            assert len(forks) == children
        for cpus in (1, None):      # one CPU, or an unknown count, runs in-process
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run_mt_energy(small, workers=8) == serial
        assert len(forks) == 0
        _assert_no_children()

    def test_scan_without_fork_runs_in_process(self, cfg, monkeypatch):
        small = replace(cfg, n_trials=6)
        serial = run_mt_energy(small)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert run_mt_energy(small, workers=4) == serial


def _count_forks(monkeypatch, cpus):
    """Pids of the children forked from now on, with ``os.cpu_count()`` set to ``cpus``."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SCAN_CFG = ScenarioConfig(n_bs=12, n_busy_bs=5, n_candidates=6, max_group_size=3, seed=7)
SCAN_BLOCKS = (partial(coverage_block, SCAN_CFG),
               partial(mt_energy_block, SCAN_CFG, _mt_sizes(SCAN_CFG)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_trials=st.integers(1, 40), workers=st.integers(1, 4),
       start=st.integers(0, 10 ** 6), block_trials=st.integers(1, 9))
def test_scan_is_invariant_to_workers_and_block_bounds(n_trials, workers, start, block_trials):
    serial = [experiments._scan_trials(block, n_trials, 1, start) for block in SCAN_BLOCKS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 4)
        mp.setattr(experiments, "BLOCK_TRIALS", block_trials)
        scanned = [experiments._scan_trials(block, n_trials, workers, start)
                   for block in SCAN_BLOCKS]
    coverage, mt = serial
    assert len(scanned[0]) == len(coverage)
    for got, want in zip(scanned[0], coverage):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert scanned[1].shape == mt.shape and scanned[1].tobytes() == mt.tobytes()


class TestScanFailures:
    """Trials [0, 10) at two workers: this process runs [0, 5), one child [5, 10)."""

    def test_child_exception_is_raised_again(self, monkeypatch):
        forks = _count_forks(monkeypatch, cpus=2)

        def block(a, b):
            if a <= 7 < b:
                raise PlacementFailure("trial 7 could not be placed")
            return np.arange(a, b)

        with pytest.raises(PlacementFailure) as exc:
            experiments._scan_trials(block, 10, 2)
        assert type(exc.value) is PlacementFailure
        assert str(exc.value) == "trial 7 could not be placed"
        assert len(forks) == 1
        _assert_no_children()

    def test_child_that_ends_without_a_result_is_named(self, monkeypatch):
        forks = _count_forks(monkeypatch, cpus=2)
        parent = os.getpid()

        def block(a, b):
            if os.getpid() != parent:
                os._exit(3)
            return np.arange(a, b)

        with pytest.raises(RuntimeError) as exc:
            experiments._scan_trials(block, 10, 2)
        assert str(exc.value) == (f"trial process {forks[0]} (trials [5, 10)) ended "
                                  "without a result, exit status 3")
        _assert_no_children()

    def test_error_here_kills_the_running_children(self, monkeypatch):
        forks = _count_forks(monkeypatch, cpus=2)
        parent = os.getpid()

        def block(a, b):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("first chunk failed")

        started = time.monotonic()
        with pytest.raises(ValueError, match="^first chunk failed$"):
            experiments._scan_trials(block, 10, 2)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        _assert_no_children()


# every sweep a run_* function takes; all but the first take whole numbers only
SWEEPS = [(run_coverage, "thresholds_db"), (run_bs_energy, "sleeping_counts"),
          (run_bs_energy, "group_sizes"), (run_mt_energy, "group_sizes")]
SWEEP_IDS = [f"{run.__name__}-{name}" for run, name in SWEEPS]


class TestSweepContract:
    @pytest.fixture
    def no_trials(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("a trial ran")

        # the names the run_* functions look up when they call
        monkeypatch.setattr(experiments, "coverage_counts", reached)
        monkeypatch.setattr(experiments, "mt_energy_moments", reached)
        monkeypatch.setattr(curves, "bs_energy_ledger", reached)

    @pytest.mark.parametrize("run,name", SWEEPS, ids=SWEEP_IDS)
    @pytest.mark.parametrize("values,message", [
        ([2, True], "takes numbers, not True"),
        ([2, "3"], "takes numbers, not '3'"),
        ([2, None], "takes numbers, not None"),
        ([2, math.nan], "takes finite numbers, not nan"),
        ([2, np.float64(math.inf)], "takes finite numbers, not inf"),
        ([-math.inf, 2], "takes finite numbers, not -inf"),
        ([], "is empty"),
        (5, "takes a sequence of numbers, not 5"),
        ([2, 10 ** 400], "takes finite numbers, not one beyond the float range"),
    ])
    def test_refused_before_any_trial(self, cfg, no_trials, run, name, values, message):
        with pytest.raises(InfeasibleConfig, match=f"^{name} {re.escape(message)}$"):
            run(cfg, **{name: values})

    @pytest.mark.parametrize("run,name", SWEEPS[1:], ids=SWEEP_IDS[1:])
    @pytest.mark.parametrize("bad", [0.5, 2.7, np.float64(1.5)])
    def test_fraction_refused_where_counts_are_whole(self, cfg, no_trials, run, name, bad):
        with pytest.raises(InfeasibleConfig,
                           match=f"^{name} takes whole numbers, not {float(bad)!r}$"):
            run(cfg, **{name: [2, bad]})

    @pytest.mark.parametrize("n_users", [True, 2.5, "10", None])
    def test_n_users_must_be_an_exact_integer(self, cfg, no_trials, n_users):
        with pytest.raises(ConfigError, match="^n_users must be an integer, not "):
            run_bs_energy(cfg, n_users=n_users)

    def test_whole_values_given_any_way_run_as_ints(self, cfg):
        small = replace(cfg, n_trials=30)
        want = run_bs_energy(small, sleeping_counts=(0, 1, 2), group_sizes=(2, 3))
        for sleeping, sizes in [(range(3), [3, 2]), (np.arange(3), np.array([2, 3, 2])),
                                ([2.0, 0, np.int64(1)], [3.0, np.float64(2.0)])]:
            got = run_bs_energy(small, sleeping_counts=sleeping, group_sizes=sizes)
            assert got == want
            assert all(type(v) is int for v in got.sleeping_counts + got.group_sizes)
        want = run_mt_energy(small, group_sizes=(1, 2, 3))
        assert run_mt_energy(small, group_sizes=[3.0, np.int64(1), 2, 3]) == want
        assert run_mt_energy(small, group_sizes=range(1, 4)) == want

    def test_mixed_threshold_types_with_duplicates(self, cfg):
        small = replace(cfg, n_trials=30)
        want = run_coverage(small, thresholds_db=[-5.0, -2.5, 0.0])
        got = run_coverage(small, thresholds_db=[0, -2.5, np.float64(-5.0), 0.0, np.int64(-5)])
        assert got == want and got.thresholds_db == (-5.0, -2.5, 0.0)


class TestCurveTypes:
    @pytest.mark.parametrize("thresholds", [
        (math.nan, 0.0), (0.0, math.nan), (math.nan,), (0.0, 0.0)])
    def test_coverage_rejects_nan_or_repeated_thresholds(self, thresholds):
        k = len(thresholds)
        with pytest.raises(ValueError, match="thresholds must be finite and strictly ascending"):
            CoverageCurve(thresholds, (0.5,) * k, (0.5,) * k, (0.0,) * k, (0.0,) * k, 10)

    def test_coverage_rejects_rising_probabilities(self):
        with pytest.raises(ValueError):
            CoverageCurve((0.0, 1.0), (0.4, 0.6), (0.5, 0.5),
                          (0.0, 0.0), (0.0, 0.0), 10)

    def test_coverage_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CoverageCurve((0.0,), (1.4,), (0.5,), (0.0,), (0.0,), 10)

    def test_mt_curve_rejects_saving_at_size_one(self):
        with pytest.raises(ValueError):
            MtEnergyCurve((1, 2), (0.1, 0.2), (0.0, 0.0), 10)

    def test_bs_curve_rejects_key_mismatch(self):
        with pytest.raises(ValueError):
            BsEnergyCurve((0, 1), (2, 3), {2: (0.0, 0.1)}, {2: (0.0, 0.0)}, 10, 5)

    @pytest.mark.parametrize("sizes,message", [
        ((2.7, True), "group_sizes must be an integer, not 2.7"),
        ((True, 2), "group_sizes must be an integer, not True"),
        ((2.0, 3), "group_sizes must be an integer, not 2.0"),
        ((3, 2), "group_sizes must be strictly ascending"),
        ((2, 2), "group_sizes must be strictly ascending"),
    ])
    def test_mt_curve_takes_ascending_integer_sizes(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MtEnergyCurve(sizes, (0.1, 0.0), (0.0, 0.0), 10)

    @pytest.mark.parametrize("sleeping,n_users,message", [
        ((0.5, 0.5), True, "sleeping_counts must be an integer, not 0.5"),
        ((0, 1), True, "n_users must be an integer, not True"),
        ((1, 0), 5, "sleeping_counts must be strictly ascending"),
        ((0, 0), 5, "sleeping_counts must be strictly ascending"),
        ((0, 1), 2.0, "n_users must be an integer, not 2.0"),
        ((0, 1), 0, "n_users must be at least 1"),
    ])
    def test_bs_curve_takes_ascending_integer_counts_and_users(self, sleeping, n_users, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BsEnergyCurve(sleeping, (2,), {2: (0.0, 0.0)}, {2: (0.0, 0.0)}, n_users, 5)

    def test_hand_built_curves_store_exact_ints(self):
        mt = MtEnergyCurve((np.int64(1), 2), (0.0, 0.1), (0.0, 0.0), 10)
        bs = BsEnergyCurve(range(2), (np.int64(2),), {2: (0.0, 0.1)}, {2: (0.0, 0.0)},
                           np.int64(5), 10)
        assert all(type(v) is int for v in mt.group_sizes + bs.sleeping_counts
                   + bs.group_sizes + (bs.n_users,))


class TestConfidenceIntervals:
    def test_binomial_half_width_at_one_half(self):
        # 1.96 * sqrt(0.25 / 100) = 1.96 * 0.05
        assert binomial_ci95(0.5, 100) == pytest.approx(0.098, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_binomial_half_width_vanishes_at_the_edges(self, p):
        assert binomial_ci95(p, 100) == 0.0

    @pytest.mark.parametrize("samples", [[], [3.5]])
    def test_mean_half_width_needs_two_samples(self, samples):
        assert mean_ci95(np.array(samples)) == 0.0

    def test_mean_half_width_of_a_small_sample(self):
        # mean 2.5, squared deviations sum to 5, s = sqrt(5 / 3), n = 4
        want = 1.96 * math.sqrt(5.0 / 3.0) / 2.0
        assert mean_ci95(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(want, rel=1e-12)
        assert mean_ci95(np.array([7.0, 7.0, 7.0])) == 0.0


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_draw_block_and_channel_sample_share_the_gains_check(monkeypatch, bad):
    with pytest.raises(ValueError, match="^gains must be positive and finite$"):
        ChannelSample(np.full((3, 1), bad))
    monkeypatch.setattr(experiments, "path_loss", lambda dist, cfg: np.full(dist.shape, bad))
    with pytest.raises(ValueError, match="^gains must be positive and finite$"):
        experiments.draw_block(ScenarioConfig(n_trials=2), "coverage", 0, 2)
