import math
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from cellless import (BsEnergyCurve, BsPowerState, CoverageCurve, InfeasibleConfig,
                      MtEnergyCurve, bs_energy_ledger, experiments, form_group,
                      mt_energy_trial, nearest_candidates, oracle_min_group,
                      oracle_power_solve, run_bs_energy, run_coverage,
                      run_mt_energy, run_validation, spectral_efficiency,
                      uplink_joint_snr)
from cellless.experiments import (bs_energy_trial, coverage_instance,
                                  coverage_trial, power_validation_instance)
from conftest import line_deployment, make_channel


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

    def test_unsorted_thresholds_rejected(self, cfg):
        with pytest.raises(ValueError):
            run_coverage(cfg, thresholds_db=[0.0, -5.0])

    def test_group_supersedes_single_association(self, cfg):
        # common draws: whenever the idle nearest BS joins the group, the
        # cooperative arm can only do better
        checked = 0
        for trial in range(150):
            dep, ch = coverage_instance(cfg, trial)
            nearest = nearest_candidates(dep, 0, 1)[0]
            group = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
            cellular, cellless = coverage_trial(cfg, trial)
            if dep.bs_states[nearest] is BsPowerState.READY and nearest in group.member_bs:
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

    def test_event_log_needs_single_worker(self, cfg):
        import io
        with pytest.raises(ValueError):
            run_coverage(replace(cfg, n_trials=8), event_log=io.StringIO(), workers=2)


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
        None, {BsPowerState.SLEEPING: 7.3, BsPowerState.LISTENING: 41.9,
               BsPowerState.READY: 88.1, BsPowerState.TRANSFERRING: 213.7}])
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
        pools = []

        class InlinePool:
            """Records the requested size and runs every submit at once."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.submits = 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.submits += 1
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        small = replace(cfg, n_trials=6)
        serial = run_mt_energy(small)
        assert run_mt_energy(small, workers=10_000) == serial
        assert run_mt_energy(small, workers=3) == serial
        assert [(p.max_workers, p.submits) for p in pools] == [(4, 4), (3, 3)]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert run_mt_energy(small, workers=8) == serial
        assert len(pools) == 2      # one CPU, or an unknown count, runs in-process


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


def test_validation_suites_pass(cfg):
    small = replace(cfg, n_trials=60)
    rows = run_validation(small, n_instances=60)
    assert [name for name, _, _ in rows] == [
        "grouping-oracle", "power-solve", "state-machine", "bs-energy-ledger",
        "determinism"]
    assert all(passed for _, passed, _ in rows)
