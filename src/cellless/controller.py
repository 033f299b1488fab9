"""The scalar network model of the SDN controller.

Deployment state, the channel sample of a trial, SINR and Shannon rates,
the BS power-state machine and cooperative-group formation over idle
candidates. Gains are path loss times unit-mean exponential (Rayleigh
power) fading; a group's downlink signals add noncoherently, and uplink
joint reception combines branch SNRs and is noise-limited. Every decision
returns a new immutable deployment, so concurrent trials share no state.
No curve command runs this model: it is the readable reference that
:mod:`cellless.validation` checks the block kernels against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import BsPowerState, ScenarioConfig
from .errors import BusyBs, DomainError, EmptyGroup, IllegalTransition, NoBsAvailable
from .scenario import Placement, RandomStream, check_gains, path_loss


def _readonly_copy(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``; an array the caller passed stays writable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _integers(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    # a fraction lands here as a float array
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {arr.dtype}")
    return arr


@dataclass(frozen=True)
class Deployment:
    """Immutable snapshot of geometry, BS power states, and serving load.

    Every field is a read-only array copied from what the constructor was
    given, and every construction runs the full check below. ``bs_states``
    holds one int8 ``BsPowerState`` code per BS (``BsPowerState(code)``
    decodes it), ``bs_load`` counts the terminals each BS serves, and
    ``transferring_mask`` marks the BSs whose code is transferring. A random
    deployment starts as a :class:`Placement`; :meth:`from_placement` builds
    its state, and the controller derives every later state from that.
    """

    bs_positions: np.ndarray        # (n_bs, 2) meters
    mt_positions: np.ndarray        # (n_mt, 2) meters, typical user at row 0
    bs_states: np.ndarray           # (n_bs,) int8 BsPowerState codes
    bs_load: np.ndarray             # (n_bs,) terminals currently served

    def __post_init__(self):
        bs_pos = _readonly_copy(self.bs_positions, float)
        codes = _integers(self.bs_states, "bs_states")
        load = _readonly_copy(_integers(self.bs_load, "bs_load"), np.int64)
        if codes.shape != (len(bs_pos),) or load.shape != (len(bs_pos),):
            raise ValueError("per-BS fields must have one entry per base station")
        states = _readonly_copy(codes, np.int8)
        # a negative code reads as 128 or more through uint8, and a wide code
        # that the int8 copy wrapped no longer equals its copy
        if (np.count_nonzero(states.view(np.uint8) >= len(BsPowerState))
                or (codes.dtype != np.int8 and np.count_nonzero(states != codes))):
            raise ValueError(f"state codes must lie in [0, {len(BsPowerState)})")
        loaded = load > 0
        if np.count_nonzero(loaded) != np.count_nonzero(load):    # a load below 0
            raise ValueError("a BS load must be non-negative")
        mask = states == BsPowerState.TRANSFERRING.value
        if np.count_nonzero(mask < loaded):     # loaded, not transferring
            raise ValueError("a loaded BS must be in the transferring state")
        mask.setflags(write=False)
        object.__setattr__(self, "bs_positions", bs_pos)
        object.__setattr__(self, "mt_positions", _readonly_copy(self.mt_positions, float))
        object.__setattr__(self, "bs_states", states)
        object.__setattr__(self, "bs_load", load)
        object.__setattr__(self, "transferring_mask", mask)

    @classmethod
    def from_placement(cls, placement: Placement) -> "Deployment":
        """The at-rest state of a drawn placement.

        Each busy station transfers with one served terminal (a pure
        interferer); every other station is ready with no load.
        """
        busy = placement.busy
        # numpy gets .value, never a member: np.full(50, member) took 5.2 µs, not 1.9 (numpy 2.4)
        states = np.full(len(busy), BsPowerState.READY.value, dtype=np.int8)
        states[busy] = BsPowerState.TRANSFERRING.value
        return cls(placement.bs_positions, placement.mt_positions, states,
                   busy.astype(np.int64))

    @property
    def n_bs(self) -> int:
        return len(self.bs_states)

    @property
    def n_mt(self) -> int:
        return len(self.mt_positions)

    def bs_distances(self, mt_index: int) -> np.ndarray:
        """Euclidean distance from every BS to one terminal."""
        delta = self.bs_positions - self.mt_positions[mt_index]
        return np.hypot(delta[:, 0], delta[:, 1])


def nearest_candidates(dep: Deployment, mt_index: int, k: int) -> list:
    """The k BSs closest to a terminal, nearest first.

    Distance ties break toward the lower BS index, so orderings are
    reproducible and prefix-stable in k.
    """
    if not 0 <= k <= dep.n_bs:
        raise ValueError("k must lie in [0, n_bs]")
    order = np.argsort(dep.bs_distances(mt_index), kind="stable")
    return [int(b) for b in order[:k]]


def total_power_mw(dep: Deployment, cfg: ScenarioConfig) -> float:
    """Power drawn by the whole deployment in its current states.

    The per-BS powers are added one at a time in BS order by Python's
    ``sum``; the last digits of the bs-energy ledger check depend on that order.
    """
    return float(sum(cfg.state_power_mw[code] for code in dep.bs_states.tolist()))


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


#: States in which a BS may join a new group (once woken to transferring).
IDLE_STATES = frozenset({BsPowerState.READY, BsPowerState.LISTENING})

# IDLE_STATES looked up by state code
_IS_IDLE = np.array([s in IDLE_STATES for s in BsPowerState])

_LEGAL_TRANSITIONS = frozenset({
    (BsPowerState.SLEEPING, BsPowerState.LISTENING),
    (BsPowerState.LISTENING, BsPowerState.SLEEPING),
    (BsPowerState.LISTENING, BsPowerState.READY),
    (BsPowerState.READY, BsPowerState.LISTENING),
    (BsPowerState.READY, BsPowerState.TRANSFERRING),
    (BsPowerState.TRANSFERRING, BsPowerState.READY),
    (BsPowerState.READY, BsPowerState.SLEEPING),
})


@dataclass(frozen=True)
class CoopGroup:
    """An ordered set of BSs jointly serving one terminal on the downlink."""

    member_bs: tuple          # BS ids in selection order
    served_mt: int
    demand_rate: float        # bit/s/Hz the terminal asked for
    achieved_rate: float
    best_effort: bool         # demand unmet at the size cap, or fallback used

    def __post_init__(self):
        object.__setattr__(self, "member_bs", tuple(int(b) for b in self.member_bs))
        if not self.member_bs:
            raise EmptyGroup("a cooperative group needs at least one member")
        if len(set(self.member_bs)) != len(self.member_bs):
            raise ValueError("duplicate group members")


def transition_many(dep: Deployment, bs_ids, new_state: BsPowerState) -> Deployment:
    """Apply the same legal power-state step to several BSs with one rebuild.

    Legal steps are the adjacent ones (sleeping<->listening<->ready<->
    transferring) plus ready->sleeping. A loaded BS cannot change state at
    all: unload it first.
    """
    states = dep.bs_states.copy()
    for bs in bs_ids:
        bs = int(bs)
        if dep.bs_load[bs] > 0:
            # loaded implies transferring; any step would abandon its terminal
            raise BusyBs(f"BS {bs} still serves {dep.bs_load[bs]} terminal(s)")
        current = BsPowerState(states[bs])
        if (current, new_state) not in _LEGAL_TRANSITIONS:
            raise IllegalTransition(f"{current.name.lower()} -> {new_state.name.lower()}")
        states[bs] = new_state.value
    return Deployment(dep.bs_positions, dep.mt_positions, states, dep.bs_load)


def start_service(dep: Deployment, group: CoopGroup) -> Deployment:
    """Walk every member up to transferring and count its served terminal.

    Every state reaches transferring through legal adjacent wake-up hops
    (sleeping -> listening -> ready -> transferring), so each member is set
    to transferring directly; a member already transferring for another
    terminal just takes the extra load (the congestion exception).
    """
    members = list(group.member_bs)    # distinct, as CoopGroup checks
    states = dep.bs_states.copy()
    loads = dep.bs_load.copy()
    states[members] = BsPowerState.TRANSFERRING.value
    loads[members] += 1
    return Deployment(dep.bs_positions, dep.mt_positions, states, loads)


def group_rate(members, mt_index: int, dep: Deployment,
               ch: ChannelSample, cfg: ScenarioConfig) -> float:
    """Downlink spectral efficiency a member set delivers to one terminal."""
    return spectral_efficiency(downlink_sinr(mt_index, members, dep, ch, cfg))


def nearest_awake(dep: Deployment, mt_index: int) -> int:
    order = np.argsort(dep.bs_distances(mt_index), kind="stable")
    awake = order[dep.bs_states[order] != BsPowerState.SLEEPING.value]
    if not len(awake):
        raise NoBsAvailable("every BS is sleeping")
    return int(awake[0])


def form_group(mt_index: int, demand_rate: float, dep: Deployment,
               ch: ChannelSample, cfg: ScenarioConfig,
               share_busy: bool = False) -> CoopGroup:
    """Pick the downlink serving group for one terminal.

    Idle candidates (ready or listening, hence serving nobody) among the
    ``n_candidates`` nearest BSs join strongest gain first until the
    demanded rate is met or the size cap is hit; the group stays as small
    as the demand allows. ``math.inf`` fills the group to the cap. When no
    candidate is idle, the nearest awake BS serves best-effort regardless
    of its load.

    With ``share_busy`` the congestion exception applies: transferring
    candidates may also be enlisted (a BS may serve more than one terminal),
    which turns their interference into useful signal. Only
    sleeping stations stay out of reach.
    """
    if not demand_rate >= 0:
        raise DomainError("demand_rate must be non-negative")
    candidates = nearest_candidates(dep, mt_index, cfg.n_candidates)
    codes = dep.bs_states[candidates]
    keep = codes != BsPowerState.SLEEPING.value if share_busy else _IS_IDLE[codes]
    eligible = [b for b, k in zip(candidates, keep.tolist()) if k]

    if not eligible:
        fallback = nearest_awake(dep, mt_index)
        rate = group_rate([fallback], mt_index, dep, ch, cfg)
        return CoopGroup((fallback,), mt_index, demand_rate, rate, True)

    gains = ch.gains[:, mt_index]
    ranked = sorted(eligible, key=lambda b: (-gains[b], b))
    if demand_rate == math.inf:
        # every rate is finite, so no prefix meets an infinite demand and the
        # walk below would always end at the capped group; rate only that one
        members = ranked[:cfg.max_group_size]
        rate = group_rate(members, mt_index, dep, ch, cfg)
    else:
        members = []
        for b in ranked:
            members.append(b)
            rate = group_rate(members, mt_index, dep, ch, cfg)
            if rate >= demand_rate or len(members) == cfg.max_group_size:
                break
    return CoopGroup(tuple(members), mt_index, demand_rate, rate, rate < demand_rate)
