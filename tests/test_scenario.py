import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cellless import (BsPowerState, ConfigError, PlacementFailure, RandomStream,
                      ScenarioConfig, config_lines, generate_deployment,
                      load_config, nearest_candidates, total_power_mw)
from conftest import make_deployment


class TestScenarioConfig:
    def test_defaults_match_reference_scenario(self, cfg):
        assert cfg.area_side_m == 50.0
        assert (cfg.n_bs, cfg.n_busy_bs, cfg.n_candidates, cfg.max_group_size) == (50, 30, 10, 3)
        assert cfg.state_power_mw[BsPowerState.SLEEPING] == 10.0
        assert cfg.state_power_mw[BsPowerState.LISTENING] == 50.0
        assert cfg.state_power_mw[BsPowerState.READY] == 80.0
        assert cfg.state_power_mw[BsPowerState.TRANSFERRING] == 200.0
        assert cfg.bs_tx_power_mw == 200.0 and cfg.mt_tx_power_mw == 100.0
        assert cfg.noise_power_mw == 1e-7 and cfg.n_trials == 10000

    @pytest.mark.parametrize("bad", [
        dict(n_busy_bs=51),
        dict(n_candidates=51),
        dict(max_group_size=11),
        dict(max_group_size=0),
        dict(area_side_m=0.0),
        dict(noise_power_mw=0.0),
        dict(path_loss_exponent=-1.0),
        dict(n_trials=0),
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(area_side_m=float("inf")),
        dict(reference_distance_m=float("inf")),
        dict(path_loss_exponent=float("inf")),
        dict(min_distance_m=float("nan")),
        dict(bs_tx_power_mw=float("nan")),
        dict(noise_power_mw=float("inf")),
        dict(state_power_mw={BsPowerState.SLEEPING: 10.0, BsPowerState.LISTENING: 50.0,
                             BsPowerState.READY: 80.0,
                             BsPowerState.TRANSFERRING: float("inf")}),
        dict(state_power_mw={BsPowerState.SLEEPING: float("nan"),
                             BsPowerState.LISTENING: 50.0, BsPowerState.READY: 80.0,
                             BsPowerState.TRANSFERRING: 200.0}),
    ])
    def test_invariant_violations_rejected(self, bad):
        with pytest.raises(ConfigError):
            ScenarioConfig(**bad)

    def test_state_powers_must_increase(self):
        powers = {BsPowerState.SLEEPING: 50.0, BsPowerState.LISTENING: 50.0,
                  BsPowerState.READY: 80.0, BsPowerState.TRANSFERRING: 200.0}
        with pytest.raises(ConfigError):
            ScenarioConfig(state_power_mw=powers)


class TestConfigFile:
    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment line\n"
            "n_bs = 30\n"
            "n_busy_bs = 10   # inline comment\n"
            "n_candidates = 5\n"
            "max_group_size = 2\n"
            "state_power_mw = 5, 6, 7, 8\n"
            "\n"
            "seed = 99\n")
        cfg = load_config(path, overrides={"n_bs": 40})
        assert cfg.n_bs == 40                  # flag beats file
        assert cfg.n_busy_bs == 10 and cfg.seed == 99
        assert cfg.state_power_mw[BsPowerState.SLEEPING] == 5.0
        assert cfg.state_power_mw[BsPowerState.TRANSFERRING] == 8.0
        assert cfg.area_side_m == 50.0         # untouched default

    def test_unknown_file_key_is_fatal_and_named(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("n_bss = 50\n")
        with pytest.raises(ConfigError, match="n_bss"):
            load_config(path)

    def test_unknown_override_key_is_fatal(self):
        with pytest.raises(ConfigError, match="n_bss"):
            load_config(overrides={"n_bss": 50})

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("n_bs = many\n")
        with pytest.raises(ConfigError, match="n_bs"):
            load_config(path)

    def test_config_lines_round_trip(self, tmp_path):
        cfg = ScenarioConfig(n_bs=17, n_busy_bs=3, n_candidates=9,
                             noise_power_mw=2.5e-8, seed=123)
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(path) == cfg


class TestRandomStream:
    def test_same_triple_same_sequence(self):
        a = RandomStream(5, "exp", 3).rng().random(64)
        b = RandomStream(5, "exp", 3).rng().random(64)
        assert np.array_equal(a, b)

    def test_distinct_triples_are_independent(self):
        base = RandomStream(5, "exp", 3).rng().random(10000)
        for other in (RandomStream(5, "exp", 4), RandomStream(5, "exp2", 3),
                      RandomStream(6, "exp", 3)):
            draws = other.rng().random(10000)
            assert not np.array_equal(base, draws)
            assert abs(np.corrcoef(base, draws)[0, 1]) < 0.05

    def test_child_and_for_trial_addressing(self):
        stream = RandomStream(5, "exp")
        assert stream.child("deploy").label == "exp/deploy"
        assert stream.for_trial(7).trial == 7
        assert stream.for_trial(7).child("a") != stream.for_trial(8).child("a")


class TestGenerateDeployment:
    def test_reference_scenario_layout(self, cfg):
        dep = generate_deployment(cfg, RandomStream(cfg.seed, "t", 0))
        assert dep.n_bs == 50 and dep.n_mt == 1
        assert np.all(dep.bs_positions >= 0.0) and np.all(dep.bs_positions <= 50.0)
        assert tuple(dep.mt_positions[0]) == (25.0, 25.0)
        busy = [b for b in range(50) if dep.bs_states[b] is BsPowerState.TRANSFERRING]
        assert len(busy) == 30
        assert all(dep.bs_load[b] == 1 for b in busy)
        rest = [b for b in range(50) if b not in busy]
        assert all(dep.bs_states[b] is BsPowerState.READY and dep.bs_load[b] == 0
                   for b in rest)

    def test_exclusion_radius_holds(self, cfg):
        dep = generate_deployment(cfg, RandomStream(cfg.seed, "t", 1), n_mt=4)
        pos = dep.bs_positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= cfg.min_distance_m
        for mt in dep.mt_positions:
            d = np.hypot(*(pos - mt).T)
            assert d.min() >= cfg.min_distance_m

    def test_bit_identical_repeats(self, cfg):
        stream = RandomStream(cfg.seed, "t", 2)
        a = generate_deployment(cfg, stream)
        b = generate_deployment(cfg, stream)
        assert np.array_equal(a.bs_positions, b.bs_positions)
        assert np.array_equal(a.mt_positions, b.mt_positions)
        assert a.bs_states == b.bs_states and a.bs_load == b.bs_load

    def test_single_ready_bs(self):
        cfg = ScenarioConfig(n_bs=1, n_busy_bs=0, n_candidates=1, max_group_size=1)
        dep = generate_deployment(cfg, RandomStream(1, "t", 0))
        assert dep.bs_states == (BsPowerState.READY,)
        assert dep.bs_load == (0,)

    def test_impossible_packing_fails(self):
        # 50 points with 40 m pairwise clearance cannot fit a 50 m square
        cfg = ScenarioConfig(min_distance_m=40.0)
        with pytest.raises(PlacementFailure):
            generate_deployment(cfg, RandomStream(1, "t", 0))

    def test_extra_terminals_uniform_user_centered(self, cfg):
        dep = generate_deployment(cfg, RandomStream(cfg.seed, "t", 3), n_mt=10)
        assert dep.n_mt == 10
        assert tuple(dep.mt_positions[0]) == (25.0, 25.0)
        assert np.all(dep.mt_positions >= 0.0) and np.all(dep.mt_positions <= 50.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_bs=st.integers(1, 20), n_mt=st.integers(1, 4),
           area=st.floats(1.0, 200.0), clearance=st.floats(0.001, 0.8),
           seed=st.integers(0, 2 ** 64 - 1), trial=st.integers(0, 2 ** 32 - 1))
    def test_placement_keeps_clearance_or_fails(self, n_bs, n_mt, area, clearance,
                                                seed, trial):
        cfg = ScenarioConfig(area_side_m=area, n_bs=n_bs, n_busy_bs=0, n_candidates=1,
                             max_group_size=1, min_distance_m=area * clearance)
        try:
            dep = generate_deployment(cfg, RandomStream(seed, "prop", trial), n_mt=n_mt)
        except PlacementFailure:
            event("placement failed")
            return
        bs, mt = dep.bs_positions, dep.mt_positions
        assert bs.shape == (n_bs, 2) and mt.shape == (n_mt, 2)
        for pos in (bs, mt):
            assert np.all(pos >= 0.0) and np.all(pos <= area)
        # squared distances, computed as placement computes them
        min_sq = cfg.min_distance_m ** 2
        assert np.all(((bs[:, None, :] - mt[None, :, :]) ** 2).sum(axis=2) >= min_sq)
        d_bs = ((bs[:, None, :] - bs[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d_bs, np.inf)
        assert np.all(d_bs >= min_sq)

    def test_single_bs_draws_are_uniform(self):
        # mean of 1e5 single-BS draws within 1% of the center, per axis
        cfg = ScenarioConfig(n_bs=1, n_busy_bs=0, n_candidates=1, max_group_size=1)
        stream = RandomStream(42, "uniformity")
        total = np.zeros(2)
        n = 100000
        for trial in range(n):
            total += generate_deployment(cfg, stream.for_trial(trial)).bs_positions[0]
        mean = total / n
        assert abs(mean[0] - 25.0) < 0.25
        assert abs(mean[1] - 25.0) < 0.25


class TestNearestCandidates:
    def test_single_closest(self):
        dep = make_deployment([[25.0, 30.0], [25.0, 27.0], [25.0, 40.0]])
        assert nearest_candidates(dep, 0, 1) == [1]

    def test_distance_tie_breaks_by_index(self):
        positions = [[10.0, 10.0], [40.0, 40.0], [10.0, 40.0],
                     [30.0, 25.0],                      # id 3 at 5 m
                     [40.0, 10.0], [5.0, 25.0], [25.0, 5.0],
                     [25.0, 30.0]]                      # id 7 at 5 m
        dep = make_deployment(positions)
        assert nearest_candidates(dep, 0, 2) == [3, 7]

    def test_matches_exhaustive_sort(self, cfg):
        dep = generate_deployment(cfg, RandomStream(3, "t", 0))
        d = dep.bs_distances(0)
        want = sorted(range(cfg.n_bs), key=lambda b: (d[b], b))[:10]
        assert nearest_candidates(dep, 0, 10) == want

    def test_prefix_stable(self, cfg):
        dep = generate_deployment(cfg, RandomStream(4, "t", 0))
        full = nearest_candidates(dep, 0, 25)
        for k in (1, 5, 10):
            assert nearest_candidates(dep, 0, k) == full[:k]

    def test_k_beyond_population_rejected(self):
        dep = make_deployment([[25.0, 30.0]])
        with pytest.raises(ValueError):
            nearest_candidates(dep, 0, 2)


def test_total_power_sums_state_draw(cfg):
    dep = make_deployment(
        [[25.0, 30.0], [25.0, 20.0], [30.0, 25.0], [20.0, 25.0]],
        states=(BsPowerState.SLEEPING, BsPowerState.LISTENING,
                BsPowerState.READY, BsPowerState.TRANSFERRING))
    assert total_power_mw(dep, cfg) == 10.0 + 50.0 + 80.0 + 200.0


def test_loaded_bs_must_transfer():
    with pytest.raises(ValueError):
        make_deployment([[25.0, 30.0]], states=(BsPowerState.READY,), loads=(1,))
