import itertools
import json
import math
from dataclasses import replace

import pytest

from cellless import BsPowerState, ScenarioConfig, spectral_efficiency, uplink_joint_snr
from cellless import controller, validation
from cellless.controller import group_rate
from cellless.validation import (_state_machine_ok, grouping_check, oracle_min_group,
                                 oracle_power_solve, power_check, power_validation_instance,
                                 run_validation)
from conftest import line_deployment, make_channel


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

        monkeypatch.setattr(validation, "group_rate", counting_rate)
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
