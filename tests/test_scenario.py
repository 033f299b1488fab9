import itertools
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cellless import (BsPowerState, ConfigError, Deployment,
                      PlacementFailure, RandomStream, ScenarioConfig, config_hash, config_lines,
                      generate_deployment, load_config, nearest_candidates, total_power_mw)
from cellless import scenario
from cellless.scenario import _label_key, _philox_key, busy_mask
from conftest import drawn_deployment, make_deployment

#: Every substream label the experiments and the validation suites draw from.
CODE_LABELS = tuple(
    f"{experiment}/{part}"
    for experiment, parts in (("coverage", ("deploy", "fading")),
                              ("mt-energy", ("deploy", "fading")),
                              ("bs-energy", ("deploy", "fading", "sleep")),
                              ("validate/grouping", ("deploy", "fading", "demand")),
                              ("validate/power", ("deploy", "fading", "size")))
    for part in parts)


def _oracle_busy(words, m):
    """The m stations of the smallest words, ties to the lower index, as a set."""
    return set(sorted(range(len(words)), key=lambda b: (words[b], b))[:m])


def _reference_deployment(cfg, stream, n_mt=1, rng=None):
    """Sequential placement oracle: one proposal at a time, in draw order.

    Draws exactly what `generate_deployment` draws, from ``rng`` or else a
    fresh generator of ``stream``, and thins each proposal against every
    terminal and every BS accepted before it, in scalar arithmetic. The busy
    set is `_oracle_busy` of the raw words after placement. Returns the
    reference ``Deployment``, its states and loads set one busy station at a
    time, and the busy stations as a set.
    """
    if rng is None:
        rng = stream.rng()
    area = cfg.area_side_m
    center = np.array([[area / 2.0, area / 2.0]])
    if n_mt > 1:
        mt_positions = np.vstack([center, rng.uniform(0.0, area, size=(n_mt - 1, 2))])
    else:
        mt_positions = center
    min_sq = cfg.min_distance_m ** 2
    limit = 10 * cfg.n_bs ** 2
    attempts = 0
    acc = []
    while len(acc) < cfg.n_bs:
        need = min(cfg.n_bs - len(acc), limit - attempts)
        if need <= 0:
            raise PlacementFailure(
                f"gave up placing {cfg.n_bs} BSs with {cfg.min_distance_m} m "
                f"spacing after {limit} attempts")
        batch = rng.uniform(0.0, area, size=(need, 2))
        attempts += need
        for x, y in batch.tolist():
            taken = mt_positions.tolist() + acc
            if all((px - x) ** 2 + (py - y) ** 2 >= min_sq for px, py in taken):
                acc.append((x, y))
    states = [BsPowerState.READY] * cfg.n_bs
    loads = [0] * cfg.n_bs
    # no station is busy, and no word is read, when n_busy_bs is 0
    words = rng.bit_generator.random_raw(cfg.n_bs if cfg.n_busy_bs else 0)
    busy = _oracle_busy(words.tolist(), cfg.n_busy_bs)
    for b in busy:
        states[b] = BsPowerState.TRANSFERRING
        loads[b] = 1
    return Deployment(np.array(acc), mt_positions, tuple(states), tuple(loads)), busy


def _placed_as_reference(cfg, stream, n_mt):
    """Both placements fail alike (None), or they agree bit for bit.

    The placement must match the reference's positions and busy set, and
    the ``Deployment`` built from it the reference's codes and loads.
    """
    try:
        want, want_busy = _reference_deployment(cfg, stream, n_mt)
    except PlacementFailure as exc:
        with pytest.raises(PlacementFailure, match=f"^{re.escape(str(exc))}$"):
            generate_deployment(cfg, stream.rng(), n_mt)
        return None
    got = generate_deployment(cfg, stream.rng(), n_mt)
    assert got.bs_positions.tobytes() == want.bs_positions.tobytes()
    assert got.mt_positions.tobytes() == want.mt_positions.tobytes()
    assert got.busy.dtype == bool and got.busy.shape == (cfg.n_bs,)
    assert set(np.flatnonzero(got.busy).tolist()) == want_busy
    dep = Deployment.from_placement(got)
    assert np.array_equal(dep.bs_states, want.bs_states)
    assert np.array_equal(dep.bs_load, want.bs_load)
    return got


def _first_round_clashes(cfg, stream, n_mt):
    """Whether two proposals of the first placement batch clash, in scalar arithmetic.

    Draws what `generate_deployment` draws before its first batch, then the
    batch itself: ``n_bs`` proposals.
    """
    rng = stream.rng()
    if n_mt > 1:
        rng.uniform(0.0, cfg.area_side_m, size=(n_mt - 1, 2))
    batch = rng.uniform(0.0, cfg.area_side_m, size=(cfg.n_bs, 2)).tolist()
    min_sq = cfg.min_distance_m ** 2
    return any((px - x) ** 2 + (py - y) ** 2 < min_sq
               for i, (x, y) in enumerate(batch) for px, py in batch[:i])


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

    @pytest.mark.parametrize("bad,message", [
        (dict(n_busy_bs=51), "n_busy_bs must lie"),
        (dict(n_candidates=51), "n_candidates must lie"),
        (dict(max_group_size=11), "max_group_size must lie"),
        (dict(max_group_size=0), "max_group_size must lie"),
        (dict(area_side_m=0.0), "area_side_m must be finite and strictly positive"),
        (dict(noise_power_mw=0.0), "noise_power_mw must be finite"),
        (dict(path_loss_exponent=-1.0), "path_loss_exponent must be finite"),
        (dict(n_trials=0), "n_trials must be at least 1"),
        (dict(seed=-1), "seed must be a 64-bit"),
        (dict(seed=2 ** 64), "seed must be a 64-bit"),
        (dict(area_side_m=float("inf")), "area_side_m must be finite"),
        (dict(reference_distance_m=float("inf")), "reference_distance_m must be finite"),
        (dict(path_loss_exponent=float("inf")), "path_loss_exponent must be finite"),
        (dict(min_distance_m=float("nan")), "min_distance_m must be finite"),
        (dict(bs_tx_power_mw=float("nan")), "bs_tx_power_mw must be finite"),
        (dict(noise_power_mw=float("inf")), "noise_power_mw must be finite"),
        (dict(path_loss_exponent=500.0), "path loss underflows"),
        (dict(area_side_m=1e300), "path loss underflows"),
        (dict(state_power_mw=(10.0, 50.0, 80.0, float("inf"))), "state powers must be finite"),
        (dict(state_power_mw=(float("nan"), 50.0, 80.0, 200.0)), "state powers must be finite"),
        (dict(state_power_mw=(-1.0, 50.0, 80.0, 200.0)), "state powers must be strictly positive"),
        (dict(state_power_mw=(10.0, 50.0, 80.0)), "needs a tuple of 4 values"),
        # within the float range, but outside the fading margin
        (dict(path_loss_exponent=166.0), "path loss underflows"),
        (dict(bs_tx_power_mw=1e308), "bs_tx_power_mw overflows"),
        (dict(mt_tx_power_mw=1e308), "overflows the uplink SNR"),
        (dict(noise_power_mw=5e-324), "overflows the uplink SNR"),
    ])
    def test_invariant_violations_rejected(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**bad)

    def test_path_loss_rule_keeps_a_fading_margin_at_its_boundary(self):
        # the farthest pair lies exactly two reference distances apart, so the
        # weakest path loss is 2**-exponent; the rule wants 2**-1022 * 2**64
        ref = math.sqrt(2.0) * 50.0 / 2.0
        edge = ScenarioConfig(reference_distance_m=ref, path_loss_exponent=958.0)
        assert (math.sqrt(2.0) * edge.area_side_m / ref) ** -edge.path_loss_exponent == 2.0 ** -958
        with pytest.raises(ConfigError, match="path loss underflows"):
            ScenarioConfig(reference_distance_m=ref,
                           path_loss_exponent=math.nextafter(958.0, math.inf))

    @pytest.mark.parametrize("n_bs", [1, 50])
    def test_tx_power_rule_keeps_a_fading_margin_at_its_boundary(self, n_bs):
        sizes = dict(n_bs=n_bs, n_busy_bs=0, n_candidates=1, max_group_size=1)
        edge = sys.float_info.max / 2.0 ** 64 / n_bs
        while edge * n_bs * 2.0 ** 64 > sys.float_info.max:
            edge = math.nextafter(edge, 0.0)
        ScenarioConfig(bs_tx_power_mw=edge, **sizes)
        with pytest.raises(ConfigError, match="bs_tx_power_mw overflows"):
            ScenarioConfig(bs_tx_power_mw=math.nextafter(edge, math.inf), **sizes)

    @pytest.mark.parametrize("n_bs", [1, 50])
    def test_uplink_rule_keeps_a_fading_margin_at_its_boundary(self, n_bs):
        sizes = dict(n_bs=n_bs, n_busy_bs=0, n_candidates=1, max_group_size=1)

        def accepted(key, value):
            try:
                ScenarioConfig(**sizes, **{key: value})
            except ConfigError as exc:
                assert "overflows the uplink SNR" in str(exc)
                return False
            return True

        def edge(key, start, outward):
            # the accepted value next to the first rejected one, within 64
            # steps of the float grid from where the rule puts it
            value = start
            for _ in range(64):
                if not accepted(key, value):
                    value = math.nextafter(value, -outward)
                elif accepted(key, math.nextafter(value, outward)):
                    value = math.nextafter(value, outward)
                else:
                    return value
            pytest.fail(f"no {key} boundary near {start!r}")

        margin = 2.0 ** 64 * n_bs
        noise, power = ScenarioConfig().noise_power_mw, ScenarioConfig().mt_tx_power_mw
        # a larger terminal power, or a smaller noise, is rejected
        edge("mt_tx_power_mw", sys.float_info.max / margin * noise, math.inf)
        edge("noise_power_mw", power * margin / sys.float_info.max, -math.inf)

    def test_state_powers_keyed_by_code(self, cfg):
        # a state is its code, so the codes 0-3 index the same tuple
        assert cfg.state_power_mw == (10.0, 50.0, 80.0, 200.0)
        assert [cfg.state_power_mw[s] for s in BsPowerState] == list(cfg.state_power_mw)
        assert hash(cfg) == hash(ScenarioConfig())
        # the old state-keyed dict is refused, not indexed by accident
        with pytest.raises(ConfigError, match="needs a tuple of 4 values"):
            ScenarioConfig(state_power_mw=dict(zip(BsPowerState, cfg.state_power_mw)))

    def test_equal_configs_echo_and_hash_alike(self, cfg):
        # an int given for a float field echoes and hashes as the float does
        written = ScenarioConfig(area_side_m=50, state_power_mw=(10, 50, 80, 200),
                                 n_bs=np.int64(50), seed=np.uint64(1))
        assert written == cfg and hash(written) == hash(cfg)
        assert config_lines(written) == config_lines(cfg)
        assert config_hash(written) == config_hash(cfg)
        assert type(written.area_side_m) is float and type(written.n_bs) is int
        assert all(type(p) is float for p in written.state_power_mw)
        assert type(written.seed) is int

    def test_typed_values_round_trip_through_the_echo(self, tmp_path):
        cfg = ScenarioConfig(area_side_m=40, state_power_mw=(5, 6.5, 7, 8),
                             n_bs=np.int32(20), n_busy_bs=10, seed=2 ** 64 - 1)
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(path) == cfg
        assert config_lines(load_config(path)) == config_lines(cfg)

    @pytest.mark.parametrize("bad,message", [
        # the Philox key would truncate a fractional seed to another seed
        (dict(seed=1.5), "seed must be an integer, not 1.5"),
        (dict(seed=1.0), "seed must be an integer, not 1.0"),
        (dict(n_bs=50.0), "n_bs must be an integer, not 50.0"),
        (dict(n_trials=10.5), "n_trials must be an integer, not 10.5"),
        (dict(n_busy_bs=True), "n_busy_bs must be an integer, not True"),
        (dict(max_group_size="3"), "max_group_size must be an integer, not '3'"),
        (dict(area_side_m="50"), "area_side_m must be a number, not '50'"),
        (dict(noise_power_mw=True), "noise_power_mw must be a number, not True"),
        (dict(bs_tx_power_mw=None), "bs_tx_power_mw must be a number, not None"),
        (dict(state_power_mw=(10, 50, "80", 200)),
         re.escape("state_power_mw must be a tuple of numbers, not (10, 50, '80', 200)")),
        (dict(state_power_mw=(10, 50, 80, False)), "state_power_mw must be a tuple of numbers"),
    ])
    def test_untyped_values_rejected(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**bad)

    def test_state_powers_must_increase(self):
        with pytest.raises(ConfigError, match="state powers must increase"):
            ScenarioConfig(state_power_mw=(50.0, 50.0, 80.0, 200.0))


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

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_bytes(b"n_bs = 20\nseed = \xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8 text")):
            load_config(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "n_bs = 40\nseed = 3\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain)
        marked.write_bytes(b"\xef\xbb\xbfn_bs = 20\nseed = \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            load_config(marked)

    def test_key_repeated_in_file_names_both_lines(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("n_bs = 20\n# the same key again\nn_bs = 30\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}:3: 'n_bs' already set on line 1")):
            load_config(path)

    def test_text_overrides_parse_as_file_values(self):
        cfg = load_config(overrides={"n_bs": "40", "noise_power_mw": "2e-8",
                                     "state_power_mw": "5, 6,7 ,8"})
        assert (cfg.n_bs, cfg.noise_power_mw) == (40, 2e-8)
        assert cfg.state_power_mw == (5.0, 6.0, 7.0, 8.0)
        with pytest.raises(ConfigError, match="bad value for 'state_power_mw'"):
            load_config(overrides={"state_power_mw": "5,6,seven,8"})
        for text in ("5,6,7", "5,6,7,8,9"):
            with pytest.raises(ConfigError, match="needs a tuple of 4 values"):
                load_config(overrides={"state_power_mw": text})

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

    def test_key_words_match_the_list_key_below_2_53(self):
        # the key rng() built before: numpy turns the list into float64 when
        # the hash is at least 2**63, which the new helper must reproduce
        seeds = [0, 1, 7, 2 ** 32, 2 ** 53 - 1]
        seeds += np.random.default_rng(3).integers(0, 2 ** 53, size=20).tolist()
        for label in CODE_LABELS:
            for seed in seeds:
                old = np.random.Philox(key=[seed, _label_key(label)])
                want = old.state["state"]["key"]
                assert np.array_equal(_philox_key(seed, label), want), (label, seed)

    def test_seeds_beyond_2_53_stay_distinct(self):
        a = RandomStream(2 ** 60, "coverage/fading", 0).rng().random(8)
        b = RandomStream(2 ** 60 + 1, "coverage/fading", 0).rng().random(8)
        assert not np.array_equal(a, b)
        assert _philox_key(2 ** 64 - 1, "coverage/fading")[0] == 2 ** 64 - 1


class TestReusedSubstreams:
    @pytest.mark.parametrize("label", ["coverage/deploy", "coverage/fading"])
    def test_draws_equal_fresh_generators(self, label):
        # one label hashes below 2**63 and the other at or above it
        assert (_label_key("coverage/deploy") < 2 ** 63 <= _label_key("coverage/fading"))
        trials = [0, 5, 2, 2, 9, 0, 2 ** 32, 2 ** 32 + 7, 3, 2 ** 40, 1]
        stream = RandomStream(13, label)
        for trial, rng in zip(trials, stream.rngs(trials)):
            want = RandomStream(13, label, trial).rng()
            assert np.array_equal(rng.uniform(0.0, 50.0, size=7),
                                  want.uniform(0.0, 50.0, size=7))
            assert np.array_equal(rng.exponential(1.0, size=(5, 1)),
                                  want.exponential(1.0, size=(5, 1)))

    def test_buffered_state_is_cleared(self):
        # each trial ends on a 32-bit draw, which leaves half a word and a
        # partly used buffer behind; the next trial's first raw 32-bit draw
        # would return that half word if the reset kept it
        stream = RandomStream(21, "validate/power/size")
        trials = [4, 4, 1, 4]
        for trial, rng in zip(trials, stream.rngs(trials)):
            want = stream.for_trial(trial).rng()
            for draw in (lambda g: g.integers(0, 2 ** 32, dtype=np.uint32),
                         lambda g: g.random(3),
                         lambda g: g.integers(0, 7, dtype=np.uint32)):
                assert np.array_equal(draw(rng), draw(want))

    def test_one_generator_is_reused(self):
        rngs = RandomStream(1, "exp").rngs(range(3))
        assert next(rngs) is next(rngs)


class TestGenerateDeployment:
    def test_reference_scenario_layout(self, cfg):
        dep = drawn_deployment(cfg, RandomStream(cfg.seed, "t", 0).rng())
        assert dep.n_bs == 50 and dep.n_mt == 1
        assert np.all(dep.bs_positions >= 0.0) and np.all(dep.bs_positions <= 50.0)
        assert tuple(dep.mt_positions[0]) == (25.0, 25.0)
        busy = [b for b in range(50)
                if dep.bs_states[b] == BsPowerState.TRANSFERRING]
        assert len(busy) == 30
        assert all(dep.bs_load[b] == 1 for b in busy)
        rest = [b for b in range(50) if b not in busy]
        assert all(dep.bs_states[b] == BsPowerState.READY and dep.bs_load[b] == 0
                   for b in rest)

    def test_exclusion_radius_holds(self, cfg):
        dep = generate_deployment(cfg, RandomStream(cfg.seed, "t", 1).rng(), n_mt=4)
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
        a = drawn_deployment(cfg, stream.rng())
        b = drawn_deployment(cfg, stream.rng())
        assert np.array_equal(a.bs_positions, b.bs_positions)
        assert np.array_equal(a.mt_positions, b.mt_positions)
        assert np.array_equal(a.bs_states, b.bs_states)
        assert np.array_equal(a.bs_load, b.bs_load)

    def test_single_ready_bs(self):
        cfg = ScenarioConfig(n_bs=1, n_busy_bs=0, n_candidates=1, max_group_size=1)
        dep = drawn_deployment(cfg, RandomStream(1, "t", 0).rng())
        assert dep.bs_states.tolist() == [BsPowerState.READY]
        assert dep.bs_load.tolist() == [0]

    def test_impossible_packing_fails(self):
        # 50 points with 40 m pairwise clearance cannot fit a 50 m square
        cfg = ScenarioConfig(min_distance_m=40.0)
        with pytest.raises(PlacementFailure):
            generate_deployment(cfg, RandomStream(1, "t", 0).rng())

    def test_extra_terminals_uniform_user_centered(self, cfg):
        dep = drawn_deployment(cfg, RandomStream(cfg.seed, "t", 3).rng(), n_mt=10)
        assert dep.n_mt == 10
        assert tuple(dep.mt_positions[0]) == (25.0, 25.0)
        assert np.all(dep.mt_positions >= 0.0) and np.all(dep.mt_positions <= 50.0)

    @pytest.mark.parametrize("n_mt", [1, 10])
    @pytest.mark.parametrize("overrides,n_trials", [
        ({}, 200),
        ({"min_distance_m": 3.0}, 60),
        ({"min_distance_m": 5.0, "n_bs": 40}, 60),
        # the clearance squares to 0: nothing clashes, not even a proposal
        # with itself, so every batch goes through the settle step
        ({"min_distance_m": 1e-200}, 60),
    ])
    def test_batched_thinning_matches_sequential_reference(self, overrides, n_trials, n_mt):
        cfg = ScenarioConfig(**overrides)
        stream = RandomStream(11, "thinning")
        placed = [_placed_as_reference(cfg, stream.for_trial(t), n_mt)
                  for t in range(n_trials)]
        assert any(dep is not None for dep in placed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_bs=st.integers(1, 20), n_mt=st.integers(1, 4),
           area=st.floats(1.0, 200.0), clearance=st.floats(0.001, 0.8),
           seed=st.integers(0, 2 ** 64 - 1), trial=st.integers(0, 2 ** 32 - 1))
    def test_placement_keeps_clearance_or_fails(self, n_bs, n_mt, area, clearance,
                                                seed, trial):
        cfg = ScenarioConfig(area_side_m=area, n_bs=n_bs, n_busy_bs=0, n_candidates=1,
                             max_group_size=1, min_distance_m=area * clearance)
        dep = _placed_as_reference(cfg, RandomStream(seed, "prop", trial), n_mt)
        if dep is None:
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

    @pytest.mark.parametrize("n_mt", [1, 10])
    @pytest.mark.parametrize("overrides,n_trials", [
        ({}, 150),
        ({"n_bs": 10, "n_busy_bs": 5, "n_candidates": 5, "min_distance_m": 3.0}, 150),
    ])
    def test_clean_and_clashing_first_rounds_match_reference(self, overrides, n_trials,
                                                             n_mt):
        # a first batch without an inner clash skips the settle step; both
        # kinds of batch must occur here, and both must place as the reference
        cfg = ScenarioConfig(**overrides)
        stream = RandomStream(5, "first-round")
        clashes = []
        for t in range(n_trials):
            clashes.append(_first_round_clashes(cfg, stream.for_trial(t), n_mt))
            assert _placed_as_reference(cfg, stream.for_trial(t), n_mt) is not None
        assert any(clashes) and not all(clashes)

    @pytest.mark.parametrize("n_mt", [1, 10])
    @pytest.mark.parametrize("overrides,n_trials", [
        ({"n_bs": 1, "n_busy_bs": 0, "n_candidates": 1, "max_group_size": 1}, 200),
        ({"n_bs": 200}, 8),
    ])
    def test_extreme_bs_counts_match_reference(self, overrides, n_trials, n_mt):
        # one BS tests one proposal per batch, a 1 x (n_mt + 1) clash matrix;
        # 200 BSs almost always clash
        cfg = ScenarioConfig(**overrides)
        stream = RandomStream(6, "bs-count")
        for t in range(n_trials):
            assert _placed_as_reference(cfg, stream.for_trial(t), n_mt) is not None

    @pytest.mark.parametrize("n_bs", [1, 50])
    def test_no_busy_station_leaves_the_generator_where_the_reference_does(
            self, monkeypatch, n_bs):
        # with no busy station neither the placement nor the reference reads
        # a busy word, and the words a busy draw would read come next
        def refuse(*args):
            raise AssertionError("a busy set was drawn")

        cfg = ScenarioConfig(n_bs=n_bs, n_busy_bs=0, n_candidates=1, max_group_size=1)
        full = replace(cfg, n_busy_bs=n_bs)
        stream = RandomStream(8, "no-busy")
        for t in range(3):
            ref_rng = stream.for_trial(t).rng()
            _reference_deployment(cfg, stream.for_trial(t), rng=ref_rng)
            rng = stream.for_trial(t).rng()
            with monkeypatch.context() as patch:
                patch.setattr(scenario, "busy_mask", refuse)
                assert not generate_deployment(cfg, rng).busy.any()
            assert rng.random(9).tobytes() == ref_rng.random(9).tobytes()
            rng = stream.for_trial(t).rng()
            generate_deployment(cfg, rng)
            words = rng.bit_generator.random_raw(n_bs)
            busy = generate_deployment(full, stream.for_trial(t).rng()).busy
            assert busy.tobytes() == busy_mask(words, n_bs).tobytes()

    def test_single_bs_draws_are_uniform(self):
        cfg = ScenarioConfig(n_bs=1, n_busy_bs=0, n_candidates=1, max_group_size=1)
        stream = RandomStream(42, "uniformity")
        n = 100000
        pos = np.empty((n, 2))
        for i, rng in enumerate(stream.rngs(range(n))):
            pos[i] = generate_deployment(cfg, rng).bs_positions[0]
        # mean of 1e5 single-BS draws within 1% of the center, per axis
        mean = pos.mean(axis=0)
        assert abs(mean[0] - 25.0) < 0.25
        assert abs(mean[1] - 25.0) < 0.25
        # ten 5 m bins per axis. The draw is uniform on the square less the
        # 0.5 m disc around the user, which the line x = 25 (or y = 25)
        # halves between bins 4 and 5. With 9 degrees of freedom a uniform
        # draw exceeds 33.72 with probability 1e-4.
        disc = math.pi * cfg.min_distance_m ** 2
        strip = np.full(10, 5.0 * 50.0)
        strip[4:6] -= disc / 2.0
        expected = n * strip / (50.0 * 50.0 - disc)
        for axis in range(2):
            counts = np.histogram(pos[:, axis], bins=10, range=(0.0, 50.0))[0]
            chi2 = float(np.sum((counts - expected) ** 2 / expected))
            assert chi2 < 33.72, (axis, chi2)


# Philox4x64-10 from the round multipliers and key increments of Salmon et
# al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 2 ** 64 - 1


def _philox_block(counter, key):
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return [c0, c1, c2, c3]


def _philox_words(stream, n):
    """The first n raw words of ``stream.rng()``, in pure Python."""
    key = [int(k) for k in _philox_key(stream.seed, stream.label)]
    counter = [0, 0, stream.trial, 0]
    words = []
    while len(words) < n:
        # numpy steps the 256-bit counter before each block of four words
        for i in range(4):
            counter[i] = (counter[i] + 1) & _MASK64
            if counter[i]:
                break
        words += _philox_block(counter, key)
    return words[:n]


def _stream_note(what):
    return (f"{what} differs from the recorded stream under numpy {np.__version__}: "
            "NEP 19 fixes no Generator stream across numpy versions, so every "
            "coverage and mt-energy golden byte may move with it")


class TestNumpyStreams:
    """Known answers for the numpy draws the emitted bytes depend on."""

    STREAM = RandomStream(2016, "known-answer", 3)

    def test_raw_words_are_philox4x64_10(self):
        streams = (self.STREAM, RandomStream(0, "coverage/deploy", 0),
                   # a label hashed at or above 2**63, and a wide trial
                   RandomStream(2 ** 64 - 1, "coverage/fading", 2 ** 40 + 7))
        for stream in streams:
            got = stream.rng().bit_generator.random_raw(12).tolist()
            assert got == _philox_words(stream, 12), _stream_note(f"random_raw on {stream}")
        first = [0x1f93b7facff23a38, 0x9808cc0f416a6afb, 0x8c680ff07148ff7b]
        assert _philox_words(self.STREAM, 3) == first

    def test_distribution_draws(self):
        rng = self.STREAM.rng
        known = (
            ("random", rng().random(3).tolist(),
             [0.12334775803896825, 0.593884233211989, 0.5484628641145582]),
            ("standard_exponential", rng().standard_exponential(3).tolist(),
             [0.12639295182459193, 0.7628336018690854, 2.416136705611132]),
        )
        for name, got, want in known:
            assert got == want, _stream_note(name)


def _busy_words(n, rows, seed=5):
    """The first n raw words of each of ``rows`` substreams, as a (rows, n) array."""
    stream = RandomStream(seed, f"busy/{n}")
    return np.array([rng.bit_generator.random_raw(n) for rng in stream.rngs(range(rows))])


class TestBusyMask:
    @pytest.mark.parametrize("n, m", [
        (50, 30), (50, 50), (50, 1), (1, 1), (2, 2), (10_001, 9_000), (20_000, 300),
    ])
    def test_matches_the_sort_oracle(self, n, m):
        words = _busy_words(n, rows=3)
        block = busy_mask(words, m)
        assert block.dtype == bool and block.shape == (3, n)
        for row, w in zip(block, words):
            want = _oracle_busy(w.tolist(), m)
            assert set(np.flatnonzero(row).tolist()) == want
            assert busy_mask(w, m).tobytes() == row.tobytes()

    def test_ties_go_to_the_lower_index(self):
        words = np.array([7, 3, 9, 3, 3], dtype=np.uint64)
        assert busy_mask(words, 1).tolist() == [False, True, False, False, False]
        assert busy_mask(words, 2).tolist() == [False, True, False, True, False]
        flat = np.zeros((2, 4), dtype=np.uint64)
        assert busy_mask(flat, 2).tolist() == [[True, True, False, False]] * 2

    def test_every_subset_is_equally_likely(self):
        # 2 of 5 stations from 20 000 substreams: each of the 10 subsets is
        # expected 2 000 times. With 9 degrees of freedom a uniform draw
        # exceeds 33.72 with probability 1e-4.
        n, m, rows = 5, 2, 20_000
        mask = busy_mask(_busy_words(n, rows, seed=42), m)
        code = mask @ (1 << np.arange(n))
        counts = np.bincount(code, minlength=2 ** n)
        subsets = [sum(1 << b for b in pair) for pair in itertools.combinations(range(n), m)]
        assert counts.sum() == counts[subsets].sum() == rows
        expected = rows / len(subsets)
        chi2 = float(np.sum((counts[subsets] - expected) ** 2 / expected))
        assert chi2 < 33.72, chi2


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
        dep = drawn_deployment(cfg, RandomStream(3, "t", 0).rng())
        d = dep.bs_distances(0)
        want = sorted(range(cfg.n_bs), key=lambda b: (d[b], b))[:10]
        assert nearest_candidates(dep, 0, 10) == want

    def test_prefix_stable(self, cfg):
        dep = drawn_deployment(cfg, RandomStream(4, "t", 0).rng())
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


class TestDeploymentArrays:
    def test_fields_are_read_only(self, cfg):
        dep = drawn_deployment(cfg, RandomStream(cfg.seed, "t", 0).rng())
        for arr in (dep.bs_positions, dep.mt_positions, dep.bs_states, dep.bs_load,
                    dep.transferring_mask):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_states_are_int8_codes(self, cfg):
        dep = drawn_deployment(cfg, RandomStream(cfg.seed, "t", 0).rng())
        assert dep.bs_states.dtype == np.int8
        assert dep.bs_load.dtype.kind == "i" and dep.bs_load.dtype.itemsize > 1
        decoded = {BsPowerState(code) for code in dep.bs_states.tolist()}
        assert decoded == {BsPowerState.READY, BsPowerState.TRANSFERRING}
        busy = dep.bs_states == BsPowerState.TRANSFERRING
        assert np.array_equal(dep.transferring_mask, busy)
        assert np.array_equal(dep.bs_load, busy.astype(int))

    def test_code_table_follows_state_order(self):
        assert [int(s) for s in BsPowerState] == [0, 1, 2, 3]

    def test_caller_arrays_are_copied_not_frozen(self):
        pos = np.array([[25.0, 30.0], [25.0, 20.0]])
        mt = np.array([[25.0, 25.0]])
        states = np.array([BsPowerState.READY, BsPowerState.TRANSFERRING], dtype=np.int8)
        loads = np.array([0, 1])
        dep = Deployment(pos, mt, states, loads)
        for arr in (pos, mt, states, loads):
            assert arr.flags.writeable
        pos[0, 0] = 0.0
        states[0] = BsPowerState.SLEEPING
        loads[1] = 5
        assert dep.bs_positions[0, 0] == 25.0
        assert dep.bs_states[0] == BsPowerState.READY
        assert dep.bs_load[1] == 1

    @pytest.mark.parametrize("codes", [
        (4,), (-1,), np.array([300]), np.array([259]), np.array([-253])])
    def test_bad_codes_rejected(self, codes):
        # 259 and -253 would wrap to legal int8 codes
        with pytest.raises(ValueError, match="state codes must lie in"):
            Deployment([[25.0, 30.0]], [[25.0, 25.0]], codes, (0,))

    @pytest.mark.parametrize("codes", [(2.0,)])
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(ValueError, match="must hold integers"):
            Deployment([[25.0, 30.0]], [[25.0, 25.0]], codes, (0,))

    def test_loaded_listening_bs_rejected(self):
        codes = (BsPowerState.TRANSFERRING, BsPowerState.LISTENING)
        with pytest.raises(ValueError, match="a loaded BS must be in the transferring state"):
            Deployment([[25.0, 30.0], [25.0, 20.0]], [[25.0, 25.0]], codes, (1, 1))

    @pytest.mark.parametrize("state", [BsPowerState.READY, BsPowerState.TRANSFERRING],
                             ids=["ready", "transferring"])
    def test_negative_load_rejected(self, state):
        with pytest.raises(ValueError, match="a BS load must be non-negative"):
            Deployment([[25.0, 30.0]], [[25.0, 25.0]], (state,), (-3,))

    def test_per_bs_lengths_must_match(self):
        ready = BsPowerState.READY
        with pytest.raises(ValueError, match="one entry per base station"):
            Deployment([[25.0, 30.0], [25.0, 20.0]], [[25.0, 25.0]], (ready,), (0, 0))
        with pytest.raises(ValueError, match="one entry per base station"):
            Deployment([[25.0, 30.0]], [[25.0, 25.0]], (ready,), (0, 0))
