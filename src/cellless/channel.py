"""Link gains, SINR for single and joint links, and Shannon rates.

Gains follow a log-distance power law with unit-mean exponential (Rayleigh
power) fading. A cooperative group's downlink signals add noncoherently,
turning would-be interferers into useful power; uplink joint reception
combines branch SNRs (maximal-ratio combining) and is noise-limited.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .errors import DomainError, EmptyGroup
from .scenario import Deployment, RandomStream


def check_gains(gains: np.ndarray) -> None:
    """Raise ``ValueError`` unless every gain is positive and finite."""
    if not np.all(np.isfinite(gains)) or np.any(gains <= 0.0):
        raise ValueError("gains must be positive and finite")


@dataclass(frozen=True)
class ChannelSample:
    """Per-(BS, terminal) unitless power gains for one Monte Carlo trial."""

    gains: np.ndarray  # (n_bs, n_mt), path loss times fading

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", g)
        if g.ndim != 2:
            raise ValueError("gains must be an (n_bs, n_mt) matrix")
        check_gains(g)
        g.setflags(write=False)


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


def sample_channel(dep: Deployment, cfg: ScenarioConfig, stream: RandomStream) -> ChannelSample:
    """Path loss times fresh unit-mean exponential fading for every (BS, terminal) pair."""
    delta = dep.bs_positions[:, None, :] - dep.mt_positions[None, :, :]
    dists = np.hypot(delta[..., 0], delta[..., 1])
    fading = stream.rng().exponential(1.0, size=dists.shape)
    return ChannelSample(path_loss(dists, cfg) * fading)


def _member_mask(members, n_bs: int) -> np.ndarray:
    ids = [int(b) for b in members]
    if not ids:
        raise EmptyGroup("group has no members")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate group members")
    mask = np.zeros(n_bs, dtype=bool)
    mask[ids] = True
    return mask


def downlink_sinr(mt_index: int, members, dep: Deployment,
                  ch: ChannelSample, cfg: ScenarioConfig) -> float:
    """SINR of joint downlink transmission from ``members`` to a terminal.

    Group members contribute useful power; every other transferring BS
    interferes at full transmit power. Signals add as powers (no phase
    alignment is assumed).
    """
    mask = _member_mask(members, dep.n_bs)
    g = ch.gains[:, mt_index]
    signal = cfg.bs_tx_power_mw * float(np.sum(g[mask]))
    interference = cfg.bs_tx_power_mw * float(
        np.sum(g[dep.transferring_mask & ~mask]))
    return signal / (interference + cfg.noise_power_mw)


def uplink_joint_snr(mt_power_mw: float, members, dep: Deployment,
                     ch: ChannelSample, cfg: ScenarioConfig) -> float:
    """The typical user's effective SNR under joint uplink reception.

    Maximal-ratio combining: branch SNRs add over the receiving group.
    Uplink interference is not modeled, so the denominator is the noise
    floor alone.
    """
    mask = _member_mask(members, dep.n_bs)
    signal = mt_power_mw * float(np.sum(ch.gains[:, 0][mask]))
    return signal / cfg.noise_power_mw


_LN2 = math.log(2.0)


def spectral_efficiency(sinr: float) -> float:
    """Shannon spectral efficiency log2(1 + sinr) in bit/s/Hz.

    Computed as ``log1p(sinr) / ln 2``: ``1.0 + sinr`` would round to 1, and
    the rate to 0, for any SINR below about 1e-16.
    """
    if sinr < 0.0:
        raise DomainError("sinr must be non-negative")
    return math.log1p(sinr) / _LN2
