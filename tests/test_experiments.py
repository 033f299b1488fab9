import io
import itertools
import json
import math
import os
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellless import (BsEnergyCurve, BsPowerState, ChannelSample, CoverageCurve, Deployment,
                      InfeasibleConfig, MtEnergyCurve, PlacementFailure, ScenarioConfig,
                      bs_energy_ledger,
                      controller, experiments, form_group, group_rate, mt_energy_trial,
                      nearest_candidates, oracle_min_group, oracle_power_solve,
                      run_bs_energy, run_coverage, run_mt_energy, run_validation,
                      spectral_efficiency, uplink_joint_snr)
from cellless.experiments import (DEFAULT_THRESHOLDS_DB, _state_machine_ok, binomial_ci95,
                                  bs_energy_trial, coverage_block, coverage_instance,
                                  coverage_trial, grouping_check, mean_ci95,
                                  mt_energy_block, power_check, power_validation_instance)
from conftest import line_deployment, make_channel

EPS = np.finfo(float).eps
CUTS = [10.0 ** (t / 10.0) for t in DEFAULT_THRESHOLDS_DB]


def _scalar_coverage(cfg, trials):
    """Per trial through the scalar path: nearest BS, event-log line, SINRs."""
    rows = []
    for trial in trials:
        dep, ch = coverage_instance(cfg, trial)
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
            dep, ch = coverage_instance(cfg, trial)
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
            dep, ch = coverage_instance(cfg, trial)
            assert nearest[i] == nearest_candidates(dep, 0, 1)[0]
            group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
            assert tuple(members[i]) == group.member_bs
            _assert_sinrs_match(cfg, sinr[i], coverage_trial(cfg, trial))
        sizes = _mt_sizes(cfg)
        want = np.array([mt_energy_trial(cfg, sizes, t) for t in range(start, stop)])
        assert mt_energy_block(cfg, sizes, start, stop).tobytes() == want.tobytes()

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
            run_bs_energy(cfg, sleeping_counts=[], group_sizes=[6], n_users=10)

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


class TestPowerSolve:
    def test_recovers_baseline_power(self, cfg):
        dep = line_deployment([2.0, 3.0])
        ch = make_channel([4e-4, 2e-4])
        target = spectral_efficiency(uplink_joint_snr(100.0, [0], dep, ch, cfg))
        solved = oracle_power_solve([0], target, dep, ch, cfg)
        assert solved == pytest.approx(100.0, rel=1e-9)

    def test_doubled_gains_halve_power(self, cfg):
        dep = line_deployment([2.0, 3.0])
        target = 4.0
        p_one = oracle_power_solve([0, 1], target, dep, make_channel([4e-4, 2e-4]), cfg)
        p_two = oracle_power_solve([0, 1], target, dep, make_channel([8e-4, 4e-4]), cfg)
        assert p_two == pytest.approx(p_one / 2.0, rel=1e-9)

    def test_agrees_with_closed_form(self, cfg):
        worst = 0.0
        for i in range(200):
            dep, ch, group, target, closed = power_validation_instance(cfg, i)
            solved = oracle_power_solve(group, target, dep, ch, cfg)
            worst = max(worst, abs(solved - closed) / closed)
        assert worst < 1e-9

    def test_non_positive_target_rejected(self, cfg):
        dep = line_deployment([2.0])
        with pytest.raises(ValueError):
            oracle_power_solve([0], 0.0, dep, make_channel([1e-4]), cfg)

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    def test_unbounded_target_rejected(self, cfg, target):
        # no power reaches an infinite rate, and the bracket would never close
        dep = line_deployment([2.0])
        with pytest.raises(ValueError):
            oracle_power_solve([0], target, dep, make_channel([1e-4]), cfg)

    def test_unreachable_target_rejected(self, cfg):
        # at 1e-3 SNR per mW the largest double reaches about 1014 bit/s/Hz
        dep = line_deployment([2.0])
        ch = make_channel([1e-10])
        with pytest.raises(ValueError, match="no finite transmit power"):
            oracle_power_solve([0], 2000.0, dep, ch, cfg)

    @pytest.mark.parametrize("overrides", [
        {},
        {"mt_tx_power_mw": 1e-300},
        {"mt_tx_power_mw": 1e-9},
        {"mt_tx_power_mw": 1e-5},
        {"mt_tx_power_mw": 1e7},
        {"mt_tx_power_mw": 1e12},
        # 1e-300 overflows the uplink SNR at the default terminal power
        {"noise_power_mw": 1e-280},
    ])
    def test_bracket_follows_the_problem(self, overrides):
        # a fixed [1e-6, 1e6] mW bracket returned its edge outside that range
        name, passed, detail = power_check(ScenarioConfig(**overrides), 200)
        assert passed, f"{name}: {detail}"


class TestOracleMinGroup:
    def test_zero_demand_single_strongest(self, cfg):
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        ch = make_channel([1e-4, 9e-4, 2e-4, 6e-4, 8e-5, 3e-4, 1e-4, 7e-5, 6e-5, 5e-5])
        group = oracle_min_group(list(range(10)), 0.0, dep, ch, cfg)
        assert group.member_bs == (1,)

    def test_no_idle_candidate_falls_back(self, cfg):
        busy = (BsPowerState.TRANSFERRING,) * 10
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                              states=busy, loads=(1,) * 10)
        ch = make_channel([1e-4] * 10)
        group = oracle_min_group(list(range(10)), 1.0, dep, ch, cfg)
        assert group.member_bs == (0,)
        assert group.best_effort

    def test_rates_each_subset_once(self, cfg, monkeypatch):
        rated = []

        def counting_rate(members, *args):
            rated.append(tuple(members))
            return group_rate(members, *args)

        monkeypatch.setattr(experiments, "group_rate", counting_rate)
        dep = line_deployment([2, 3, 4, 5, 6])
        ch = make_channel([1e-3, 9e-4, 8e-4, 7e-4, 6e-4])

        def subsets(*sizes):
            return sorted(m for n in sizes for m in itertools.combinations(range(5), n))

        # an unmeetable demand rates every subset up to the size cap of 3
        assert oracle_min_group(list(range(5)), 1e9, dep, ch, cfg).best_effort
        assert sorted(rated) == subsets(1, 2, 3)
        # a demand first met at size 2 stops there
        rated.clear()
        demand = (group_rate([0], 0, dep, ch, cfg) + group_rate([0, 1], 0, dep, ch, cfg)) / 2
        assert oracle_min_group(list(range(5)), demand, dep, ch, cfg).member_bs == (0, 1)
        assert sorted(rated) == subsets(1, 2)

    def test_too_many_candidates_rejected(self, cfg):
        dep = line_deployment(list(range(2, 16)))
        ch = make_channel([1e-4] * 14)
        with pytest.raises(ValueError):
            oracle_min_group(list(range(13)), 1.0, dep, ch, cfg)


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


class TestCurveTypes:
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


def test_validation_reports_a_zero_rate_target(cfg):
    # at exponent 150 a 1e-300 mW terminal's baseline SNR underflows to 0
    rows = run_validation(replace(cfg, path_loss_exponent=150.0, mt_tx_power_mw=1e-300,
                                  n_trials=20), n_instances=20)
    assert ("power-solve", False, "instance 0: baseline rate rounds to 0") in rows


def test_validation_rows_are_plain_python(cfg):
    rows = run_validation(replace(cfg, n_trials=20), n_instances=20)
    assert all((type(name), type(passed), type(detail)) == (str, bool, str)
               for name, passed, detail in rows)
    assert json.loads(json.dumps(rows)) == [list(row) for row in rows]


def test_validation_suites_pass(cfg):
    small = replace(cfg, n_trials=60)
    rows = run_validation(small, n_instances=60)
    assert [name for name, _, _ in rows] == [
        "grouping-oracle", "power-solve", "state-machine", "bs-energy-ledger",
        "determinism"]
    assert all(passed for _, passed, _ in rows)


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


@pytest.mark.parametrize("exponent", [2.0, 8.0, 20.0, 40.0, 150.0])
def test_oracles_hold_at_extreme_path_loss(exponent):
    cfg = ScenarioConfig(path_loss_exponent=exponent)
    for name, passed, detail in (grouping_check(cfg, 200), power_check(cfg, 200)):
        assert passed, f"{name}: {detail}"


@pytest.mark.parametrize("corrupt", [
    lambda legal: legal - {(BsPowerState.READY, BsPowerState.SLEEPING)},
    lambda legal: legal | {(BsPowerState.SLEEPING, BsPowerState.READY)},
], ids=["drop-ready-sleeping", "add-sleeping-ready"])
def test_state_machine_row_catches_a_corrupted_table(monkeypatch, corrupt):
    assert _state_machine_ok()
    monkeypatch.setattr(controller, "_LEGAL_TRANSITIONS",
                        corrupt(controller._LEGAL_TRANSITIONS))
    assert not _state_machine_ok()


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_draw_block_and_channel_sample_share_the_gains_check(monkeypatch, bad):
    with pytest.raises(ValueError, match="^gains must be positive and finite$"):
        ChannelSample(np.full((3, 1), bad))
    monkeypatch.setattr(experiments, "path_loss", lambda dist, cfg: np.full(dist.shape, bad))
    with pytest.raises(ValueError, match="^gains must be positive and finite$"):
        experiments.draw_block(ScenarioConfig(n_trials=2), "coverage", 0, 2)
