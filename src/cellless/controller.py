"""Centralized grouping decisions, mirroring an SDN controller.

Covers the BS power-state machine and cooperative-group formation over idle
candidates. The controller is a single logical decision point: every
decision returns a new immutable deployment, so concurrent trials share no
state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSample, downlink_sinr, spectral_efficiency
from .config import BsPowerState, ScenarioConfig
from .errors import BusyBs, DomainError, EmptyGroup, IllegalTransition, NoBsAvailable
from .scenario import Deployment, nearest_candidates


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
