import math

import numpy as np
import pytest

from cellless import (BsPowerState, BusyBs, CoopGroup, DomainError, EmptyGroup,
                      IllegalTransition, NoBsAvailable, RandomStream, form_group, generate_deployment, group_rate, nearest_awake,
                      nearest_candidates, oracle_min_group, sample_channel,
                      start_service, transition, transition_many)
from conftest import line_deployment, make_channel

SLEEP = BsPowerState.SLEEPING
LISTEN = BsPowerState.LISTENING
READY = BsPowerState.READY
BUSY = BsPowerState.TRANSFERRING

LEGAL = {
    (SLEEP, LISTEN), (LISTEN, SLEEP), (LISTEN, READY), (READY, LISTEN),
    (READY, BUSY), (BUSY, READY), (READY, SLEEP),
}


def _group(members):
    return CoopGroup(tuple(members), 0, 1.0, 5.0, False)


class TestStateMachine:
    @pytest.mark.parametrize("current", list(BsPowerState))
    @pytest.mark.parametrize("target", list(BsPowerState))
    def test_exhaustive_transition_table(self, current, target):
        dep = line_deployment([2.0], states=(current,))
        if (current, target) in LEGAL:
            assert transition(dep, 0, target).bs_states[0] is target
        else:
            with pytest.raises(IllegalTransition):
                transition(dep, 0, target)

    @pytest.mark.parametrize("target", list(BsPowerState))
    def test_loaded_bs_refuses_everything(self, target):
        dep = line_deployment([2.0], states=(BUSY,), loads=(1,))
        with pytest.raises(BusyBs):
            transition(dep, 0, target)

    def test_transition_keeps_other_fields(self):
        dep = line_deployment([2.0, 3.0], states=(READY, BUSY), loads=(0, 1))
        out = transition(dep, 0, BUSY)
        assert out.bs_states == (BUSY, BUSY)
        assert out.bs_load == dep.bs_load
        assert np.array_equal(out.bs_positions, dep.bs_positions)

    def test_transition_many_matches_sequential(self):
        dep = line_deployment([2, 3, 4, 5])
        batch = transition_many(dep, [0, 2, 3], LISTEN)
        loop = dep
        for b in (0, 2, 3):
            loop = transition(loop, b, LISTEN)
        assert batch.bs_states == loop.bs_states

    def test_transition_many_rejects_illegal_member(self):
        dep = line_deployment([2, 3], states=(READY, SLEEP))
        with pytest.raises(IllegalTransition):
            transition_many(dep, [0, 1], BUSY)


class TestServiceLifecycle:
    def test_start_service_wakes_members(self):
        dep = line_deployment([2, 3, 4], states=(READY, LISTEN, SLEEP))
        out = start_service(dep, _group([0, 1, 2]))
        assert out.bs_states == (BUSY, BUSY, BUSY)
        assert out.bs_load == (1, 1, 1)

    def test_start_service_shares_a_busy_member(self):
        dep = line_deployment([2.0], states=(BUSY,), loads=(1,))
        out = start_service(dep, _group([0]))
        assert out.bs_load == (2,)


class TestFormGroup:
    def test_single_strong_idle_suffices(self, cfg):
        # economy: one candidate already meets the demand, group stays size 1
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        ch = make_channel([1e-3, 8e-4, 6e-4, 5e-4, 4e-4, 3e-4, 2e-4, 1e-4, 9e-5, 8e-5])
        group = form_group(0, 2.0, dep, ch, cfg)
        assert group.member_bs == (0,)
        assert not group.best_effort
        assert group.achieved_rate >= 2.0

    def test_all_busy_falls_back_to_nearest(self, cfg):
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                              states=(BUSY,) * 10, loads=(1,) * 10)
        ch = make_channel([1e-4, 8e-4, 6e-4, 5e-4, 4e-4, 3e-4, 2e-4, 1e-4, 9e-5, 8e-5])
        group = form_group(0, 2.0, dep, ch, cfg)
        assert group.member_bs == (0,)      # nearest, not strongest
        assert group.best_effort

    def test_unmeetable_demand_fills_three_strongest(self, cfg):
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                              states=(BUSY, BUSY, READY, READY, BUSY, READY,
                                      READY, BUSY, BUSY, READY))
        gains = [1e-3, 9e-4, 2e-4, 6e-4, 8e-5, 3e-4, 1e-4, 7e-5, 6e-5, 5e-5]
        ch = make_channel(gains)
        group = form_group(0, 30.0, dep, ch, cfg)
        assert set(group.member_bs) == {3, 5, 2}   # strongest idle gains
        assert group.member_bs == (3, 5, 2)        # selection order, gain-descending
        assert group.best_effort
        oracle = oracle_min_group(list(range(10)), 30.0, dep, ch, cfg)
        assert set(oracle.member_bs) == set(group.member_bs)

    def test_zero_demand_returns_single_strongest(self, cfg):
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        ch = make_channel([1e-4, 9e-4, 2e-4, 6e-4, 8e-5, 3e-4, 1e-4, 7e-5, 6e-5, 5e-5])
        group = form_group(0, 0.0, dep, ch, cfg)
        assert group.member_bs == (1,)
        assert not group.best_effort

    def test_infinite_demand_fills_to_cap(self, cfg):
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        ch = make_channel([1e-3, 9e-4, 8e-4, 7e-4, 6e-4, 5e-4, 4e-4, 3e-4, 2e-4, 1e-4])
        group = form_group(0, math.inf, dep, ch, cfg)
        assert group.member_bs == (0, 1, 2)
        assert group.best_effort

    def test_never_returns_sleeping(self, cfg):
        states = (SLEEP,) * 6 + (BUSY,) + (SLEEP,) * 3
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                              states=states, loads=(0,) * 6 + (1,) + (0,) * 3)
        ch = make_channel([1e-3] * 10)
        group = form_group(0, 2.0, dep, ch, cfg)
        assert group.member_bs == (6,)
        assert group.best_effort

    def test_every_bs_sleeping_raises(self, cfg):
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11], states=(SLEEP,) * 10)
        ch = make_channel([1e-3] * 10)
        with pytest.raises(NoBsAvailable):
            form_group(0, 2.0, dep, ch, cfg)
        with pytest.raises(NoBsAvailable):
            nearest_awake(dep, 0)

    def test_share_busy_enlists_strong_interferers(self, cfg):
        states = (BUSY, BUSY, READY, READY, READY, READY, READY, READY, READY, READY)
        dep = line_deployment([2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                              states=states, loads=(1, 1) + (0,) * 8)
        ch = make_channel([1e-3, 9e-4, 8e-4, 7e-4, 6e-4, 5e-4, 4e-4, 3e-4, 2e-4, 1e-4])
        shared = form_group(0, math.inf, dep, ch, cfg, share_busy=True)
        strict = form_group(0, math.inf, dep, ch, cfg)
        assert shared.member_bs == (0, 1, 2)   # busy pair converted to signal
        assert strict.member_bs == (2, 3, 4)   # idle-only greedy skips them

    def test_met_demand_round_trips(self, small_cfg):
        hits = 0
        for trial in range(100):
            base = RandomStream(small_cfg.seed, "roundtrip", trial)
            dep = generate_deployment(small_cfg, base.child("deploy"))
            ch = sample_channel(dep, small_cfg, base.child("fading"))
            demand = float(base.child("demand").rng().uniform(0.0, 6.0))
            group = form_group(0, demand, dep, ch, small_cfg)
            if not group.best_effort:
                hits += 1
                rate = group_rate(group.member_bs, 0, dep, ch, small_cfg)
                assert rate >= demand
                assert rate == group.achieved_rate
        assert hits > 10

    def test_negative_demand_rejected(self, cfg):
        dep = line_deployment([2.0])
        ch = make_channel([1e-3])
        one_bs = type(cfg)(n_bs=1, n_busy_bs=0, n_candidates=1, max_group_size=1)
        with pytest.raises(DomainError):
            form_group(0, -1.0, dep, ch, one_bs)


class TestCoopGroupType:
    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            _group([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            _group([1, 1])


def test_greedy_matches_exhaustive_oracle(small_cfg):
    """Randomized equivalence: minimal-cardinality greedy vs subset search."""
    for trial in range(300):
        base = RandomStream(small_cfg.seed, "oracle-eq", trial)
        dep = generate_deployment(small_cfg, base.child("deploy"))
        ch = sample_channel(dep, small_cfg, base.child("fading"))
        demand = float(base.child("demand").rng().uniform(0.0, 8.0))
        got = form_group(0, demand, dep, ch, small_cfg)
        candidates = nearest_candidates(dep, 0, small_cfg.n_candidates)
        want = oracle_min_group(candidates, demand, dep, ch, small_cfg)
        assert set(got.member_bs) == set(want.member_bs)
        assert got.best_effort == want.best_effort
