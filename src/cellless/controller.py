"""Centralized grouping decisions, mirroring an SDN controller.

Covers the BS power-state machine and cooperative-group formation over idle
candidates. The controller is a single logical decision point: every
decision returns a new immutable deployment, so concurrent trials share no
state.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSample, downlink_sinr, spectral_efficiency
from .errors import BusyBs, DomainError, EmptyGroup, IllegalTransition, NoBsAvailable
from .scenario import BsPowerState, Deployment, ScenarioConfig, nearest_candidates


#: States in which a BS may join a new group (once woken to transferring).
IDLE_STATES = frozenset({BsPowerState.READY, BsPowerState.LISTENING})

_LEGAL_TRANSITIONS = frozenset({
    (BsPowerState.SLEEPING, BsPowerState.LISTENING),
    (BsPowerState.LISTENING, BsPowerState.SLEEPING),
    (BsPowerState.LISTENING, BsPowerState.READY),
    (BsPowerState.READY, BsPowerState.LISTENING),
    (BsPowerState.READY, BsPowerState.TRANSFERRING),
    (BsPowerState.TRANSFERRING, BsPowerState.READY),
    (BsPowerState.READY, BsPowerState.SLEEPING),
})

_WAKE_NEXT = {
    BsPowerState.SLEEPING: BsPowerState.LISTENING,
    BsPowerState.LISTENING: BsPowerState.READY,
    BsPowerState.READY: BsPowerState.TRANSFERRING,
}


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


def transition(dep: Deployment, bs: int, new_state: BsPowerState) -> Deployment:
    """Apply one legal power-state step to a BS, returning the new deployment.

    Legal steps are the adjacent ones (sleeping<->listening<->ready<->
    transferring) plus ready->sleeping. A loaded BS cannot change state at
    all: unload it first.
    """
    return transition_many(dep, [bs], new_state)


def transition_many(dep: Deployment, bs_ids, new_state: BsPowerState) -> Deployment:
    """Apply the same legal step to several BSs with one deployment rebuild."""
    states = list(dep.bs_states)
    for bs in bs_ids:
        bs = int(bs)
        if dep.bs_load[bs] > 0:
            # loaded implies transferring; any step would abandon its terminal
            raise BusyBs(f"BS {bs} still serves {dep.bs_load[bs]} terminal(s)")
        if (states[bs], new_state) not in _LEGAL_TRANSITIONS:
            raise IllegalTransition(f"{states[bs].value} -> {new_state.value}")
        states[bs] = new_state
    return Deployment(dep.bs_positions, dep.mt_positions, tuple(states), dep.bs_load)


def start_service(dep: Deployment, group: CoopGroup) -> Deployment:
    """Walk every member up to transferring and count its served terminal.

    Wake-up hops follow the legal adjacency chain; a member already
    transferring for another terminal just takes the extra load (the
    congestion exception).
    """
    states = list(dep.bs_states)
    loads = list(dep.bs_load)
    for bs in group.member_bs:
        while states[bs] is not BsPowerState.TRANSFERRING:
            states[bs] = _WAKE_NEXT[states[bs]]
        loads[bs] += 1
    return Deployment(dep.bs_positions, dep.mt_positions, tuple(states), tuple(loads))


def group_rate(members, mt_index: int, dep: Deployment,
               ch: ChannelSample, cfg: ScenarioConfig) -> float:
    """Downlink spectral efficiency a member set delivers to one terminal."""
    return spectral_efficiency(downlink_sinr(mt_index, members, dep, ch, cfg))


def nearest_awake(dep: Deployment, mt_index: int) -> int:
    for b in np.argsort(dep.bs_distances(mt_index), kind="stable"):
        if dep.bs_states[int(b)] is not BsPowerState.SLEEPING:
            return int(b)
    raise NoBsAvailable("every BS is sleeping")


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
    if share_busy:
        eligible = [b for b in candidates
                    if dep.bs_states[b] is not BsPowerState.SLEEPING]
    else:
        eligible = [b for b in candidates if dep.bs_states[b] in IDLE_STATES]

    if not eligible:
        fallback = nearest_awake(dep, mt_index)
        rate = group_rate([fallback], mt_index, dep, ch, cfg)
        return CoopGroup((fallback,), mt_index, demand_rate, rate, True)

    gains = ch.gains[:, mt_index]
    members = []
    rate = 0.0
    for b in sorted(eligible, key=lambda b: (-gains[b], b)):
        members.append(b)
        rate = group_rate(members, mt_index, dep, ch, cfg)
        if rate >= demand_rate or len(members) == cfg.max_group_size:
            break
    return CoopGroup(tuple(members), mt_index, demand_rate, rate, rate < demand_rate)
