"""Link gains, SINR for single and joint links, and Shannon rates.

Gains follow a log-distance power law with unit-mean exponential (Rayleigh
power) fading. A cooperative group's downlink signals add noncoherently,
turning would-be interferers into useful power; uplink joint reception
combines branch SNRs (maximal-ratio combining) and is noise-limited.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyGroup
from .scenario import Deployment, RandomStream, ScenarioConfig


@dataclass(frozen=True)
class ChannelSample:
    """Per-(BS, terminal) unitless power gains for one Monte Carlo trial."""

    gains: np.ndarray  # (n_bs, n_mt), path loss times fading

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", g)
        if g.ndim != 2:
            raise ValueError("gains must be an (n_bs, n_mt) matrix")
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise ValueError("gains must be positive and finite")
        g.setflags(write=False)


@dataclass(frozen=True)
class LinkBudget:
    """Received useful power, interference, and noise, all in milliwatts."""

    signal_mw: float
    interference_mw: float
    noise_mw: float

    def __post_init__(self):
        if self.signal_mw < 0 or self.interference_mw < 0:
            raise ValueError("powers must be non-negative")
        if not self.noise_mw > 0:
            raise ValueError("noise power must be strictly positive")

    @property
    def sinr(self) -> float:
        return self.signal_mw / (self.interference_mw + self.noise_mw)


def path_loss(distance_m, cfg: ScenarioConfig):
    """Unitless gain (d / d_ref)^-alpha, clamped to 1 inside d_ref.

    Accepts scalars or arrays. Distances below the placement exclusion
    radius are rejected; they would make gains blow up.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < cfg.min_distance_m):
        raise DomainError(
            f"distance below the {cfg.min_distance_m} m exclusion radius")
    gain = (np.maximum(d, cfg.reference_distance_m)
            / cfg.reference_distance_m) ** -cfg.path_loss_exponent
    return float(gain) if gain.ndim == 0 else gain


def draw_fading(stream: RandomStream, size=None):
    """Unit-mean exponential fading factors (Rayleigh envelope power)."""
    return stream.rng().exponential(1.0, size=size)


def sample_channel(dep: Deployment, cfg: ScenarioConfig, stream: RandomStream) -> ChannelSample:
    """Path loss times fresh fading for every (BS, terminal) pair."""
    delta = dep.bs_positions[:, None, :] - dep.mt_positions[None, :, :]
    dists = np.hypot(delta[..., 0], delta[..., 1])
    return ChannelSample(path_loss(dists, cfg) * draw_fading(stream, size=dists.shape))


def _member_mask(members, n_bs: int) -> np.ndarray:
    ids = [int(b) for b in members]
    if not ids:
        raise EmptyGroup("group has no members")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate group members")
    mask = np.zeros(n_bs, dtype=bool)
    mask[ids] = True
    return mask


def downlink_budget(mt_index: int, members, dep: Deployment,
                    ch: ChannelSample, cfg: ScenarioConfig) -> LinkBudget:
    """Budget of joint downlink transmission from ``members`` to a terminal.

    Group members contribute useful power; every other transferring BS
    interferes at full transmit power. Signals add as powers (no phase
    alignment is assumed).
    """
    mask = _member_mask(members, dep.n_bs)
    g = ch.gains[:, mt_index]
    signal = cfg.bs_tx_power_mw * float(np.sum(g[mask]))
    interference = cfg.bs_tx_power_mw * float(
        np.sum(g[dep.transferring_mask & ~mask]))
    return LinkBudget(signal, interference, cfg.noise_power_mw)


def downlink_sinr(mt_index: int, members, dep: Deployment,
                  ch: ChannelSample, cfg: ScenarioConfig) -> float:
    return downlink_budget(mt_index, members, dep, ch, cfg).sinr


def uplink_joint_snr(mt_power_mw: float, members, dep: Deployment,
                     ch: ChannelSample, cfg: ScenarioConfig, mt_index: int = 0) -> float:
    """Effective SNR of joint uplink reception with maximal-ratio combining.

    Branch SNRs add over the receiving group; uplink interference is not
    modeled, so the denominator is the noise floor alone.
    """
    mask = _member_mask(members, dep.n_bs)
    signal = mt_power_mw * float(np.sum(ch.gains[:, mt_index][mask]))
    return LinkBudget(signal, 0.0, cfg.noise_power_mw).sinr


def spectral_efficiency(sinr: float) -> float:
    """Shannon spectral efficiency log2(1 + sinr) in bit/s/Hz."""
    if sinr < 0.0:
        raise DomainError("sinr must be non-negative")
    return math.log2(1.0 + sinr)
