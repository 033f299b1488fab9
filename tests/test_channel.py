import numpy as np
import pytest

from cellless import (BsPowerState, DomainError, EmptyGroup, LinkBudget,
                      RandomStream, ScenarioConfig, downlink_budget,
                      downlink_sinr, draw_fading, generate_deployment,
                      path_loss, sample_channel, spectral_efficiency,
                      uplink_joint_snr)
from conftest import line_deployment, make_channel, make_deployment

BUSY = BsPowerState.TRANSFERRING
READY = BsPowerState.READY


class TestPathLoss:
    def test_reference_distance_gain_is_one(self, cfg):
        assert path_loss(1.0, cfg) == 1.0

    def test_ten_meters_fourth_power(self, cfg):
        # (10 / 1)^-4, checked by hand
        assert path_loss(10.0, cfg) == pytest.approx(1e-4, rel=1e-12)

    def test_clamped_inside_reference(self, cfg):
        assert path_loss(0.6, cfg) == 1.0

    def test_below_exclusion_radius_rejected(self, cfg):
        with pytest.raises(DomainError):
            path_loss(0.4, cfg)

    def test_monotone_non_increasing(self, cfg):
        d = np.linspace(0.5, 70.0, 200)
        g = path_loss(d, cfg)
        assert np.all(np.diff(g) <= 0)
        assert np.all(g > 0)


class TestFading:
    def test_unit_mean_and_variance(self):
        draws = draw_fading(RandomStream(11, "fading", 0), size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_repeat_draw_identical(self):
        stream = RandomStream(11, "fading", 1)
        assert draw_fading(stream) == draw_fading(stream)

    def test_sample_channel_reproducible_and_positive(self, cfg):
        dep = generate_deployment(cfg, RandomStream(cfg.seed, "t", 0))
        a = sample_channel(dep, cfg, RandomStream(cfg.seed, "f", 0))
        b = sample_channel(dep, cfg, RandomStream(cfg.seed, "f", 0))
        assert np.array_equal(a.gains, b.gains)
        assert a.gains.shape == (cfg.n_bs, 1)
        assert np.all(a.gains > 0) and np.all(np.isfinite(a.gains))


class TestDownlink:
    def test_three_bs_hand_instance(self, cfg):
        # signal 200*(1e-3 + 4e-4) = 0.28 mW, interference 200*1e-4 = 0.02 mW
        dep = line_deployment([2.0, 3.0, 4.0], states=(READY, READY, BUSY))
        ch = make_channel([1e-3, 4e-4, 1e-4])
        budget = downlink_budget(0, [0, 1], dep, ch, cfg)
        assert budget.signal_mw == pytest.approx(0.28, rel=1e-12)
        assert budget.interference_mw == pytest.approx(0.02, rel=1e-12)
        assert budget.sinr == pytest.approx(13.99993000035, rel=1e-10)

    def test_group_of_all_transferring_leaves_only_noise(self, cfg):
        dep = line_deployment([2.0, 3.0, 4.0], states=(BUSY, BUSY, BUSY),
                              loads=(1, 1, 1))
        ch = make_channel([1e-3, 4e-4, 1e-4])
        budget = downlink_budget(0, [0, 1, 2], dep, ch, cfg)
        assert budget.interference_mw == 0.0
        assert budget.sinr == pytest.approx(0.3 / 1e-7, rel=1e-12)

    def test_symmetric_pair_near_zero_db(self):
        cfg = ScenarioConfig(noise_power_mw=1e-12)
        dep = line_deployment([2.0, 3.0], states=(READY, BUSY))
        ch = make_channel([1e-3, 1e-3])
        assert downlink_sinr(0, [0], dep, ch, cfg) == pytest.approx(1.0, rel=1e-8)

    def test_empty_group_rejected(self, cfg):
        dep = line_deployment([2.0])
        ch = make_channel([1e-3])
        with pytest.raises(EmptyGroup):
            downlink_sinr(0, [], dep, ch, cfg)

    def test_duplicate_members_rejected(self, cfg):
        dep = line_deployment([2.0, 3.0])
        ch = make_channel([1e-3, 1e-4])
        with pytest.raises(ValueError):
            downlink_sinr(0, [0, 0], dep, ch, cfg)

    def test_enlisting_an_interferer_never_hurts(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gains = rng.uniform(1e-6, 1e-3, size=6)
            dep = line_deployment([2, 3, 4, 5, 6, 7],
                                  states=(READY, BUSY, BUSY, READY, BUSY, READY))
            ch = make_channel(gains)
            base = downlink_sinr(0, [0], dep, ch, cfg)
            widened = downlink_sinr(0, [0, 1], dep, ch, cfg)
            assert widened >= base


class TestUplink:
    def test_hand_instance(self, cfg):
        dep = line_deployment([2.0, 3.0, 4.0])
        ch = make_channel([2e-4, 1e-4, 1e-4])
        snr = uplink_joint_snr(100.0, [0, 1, 2], dep, ch, cfg)
        assert snr == pytest.approx(4e5, rel=1e-12)

    def test_single_receiver(self, cfg):
        dep = line_deployment([2.0])
        ch = make_channel([3.7e-4])
        snr = uplink_joint_snr(100.0, [0], dep, ch, cfg)
        assert snr == pytest.approx(100.0 * 3.7e-4 / 1e-7, rel=1e-12)

    def test_linear_in_power(self, cfg):
        dep = line_deployment([2.0, 3.0])
        ch = make_channel([2e-4, 1e-4])
        one = uplink_joint_snr(50.0, [0, 1], dep, ch, cfg)
        two = uplink_joint_snr(100.0, [0, 1], dep, ch, cfg)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_monotone_in_group_size(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gains = rng.uniform(1e-6, 1e-3, size=5)
            dep = line_deployment([2, 3, 4, 5, 6])
            ch = make_channel(gains)
            snrs = [uplink_joint_snr(100.0, list(range(1, n + 1)), dep, ch, cfg)
                    for n in range(1, 5)]
            assert all(a <= b for a, b in zip(snrs, snrs[1:]))


class TestSpectralEfficiency:
    @pytest.mark.parametrize("sinr,rate", [(0.0, 0.0), (1.0, 1.0), (15.0, 4.0)])
    def test_known_points(self, sinr, rate):
        assert spectral_efficiency(sinr) == pytest.approx(rate, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            spectral_efficiency(-0.1)


class TestLinkBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(-1.0, 0.0, 1e-7)
        with pytest.raises(ValueError):
            LinkBudget(1.0, 0.0, 0.0)

    def test_mean_received_power_tracks_path_loss(self, cfg):
        # averaged over fading, received power equals tx power times path loss
        fading = draw_fading(RandomStream(5, "chan-mean", 0), size=100_000)
        for d in (2.0, 10.0, 25.0):
            expected = cfg.bs_tx_power_mw * path_loss(d, cfg)
            measured = float(np.mean(cfg.bs_tx_power_mw * path_loss(d, cfg) * fading))
            assert abs(measured - expected) / expected < 0.01
