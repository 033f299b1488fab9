import numpy as np
import pytest

# The engine is loaded before any test runs, as in a process that already
# ran a trial command, so cli.main never freezes this process's heap; the
# one test that unloads the engine undoes its freeze.
import cellless.experiments  # noqa: F401
from cellless import (BsPowerState, ChannelSample, Deployment, ScenarioConfig,
                      generate_deployment)


@pytest.fixture
def cfg():
    """Default scenario: 50 BSs on a 50 m square, 30 busy, 10 candidates."""
    return ScenarioConfig()


@pytest.fixture
def small_cfg():
    """Cut-down scenario for fast randomized checks."""
    return ScenarioConfig(n_bs=12, n_busy_bs=5, n_candidates=6,
                          max_group_size=3, n_trials=50, seed=7)


def make_deployment(bs_positions, states=None, loads=None, mt_positions=None):
    """Hand-built deployment; defaults to all-ready BSs and a centered user."""
    bs_positions = np.asarray(bs_positions, dtype=float)
    n = len(bs_positions)
    if states is None:
        states = (BsPowerState.READY,) * n
    if loads is None:
        loads = (0,) * n
    if mt_positions is None:
        mt_positions = [[25.0, 25.0]]
    return Deployment(bs_positions, np.asarray(mt_positions, dtype=float),
                      tuple(states), tuple(loads))


def drawn_deployment(cfg, rng, n_mt=1):
    """The at-rest ``Deployment`` of one placement drawn from ``rng``."""
    return Deployment.from_placement(generate_deployment(cfg, rng, n_mt))


def make_channel(gains_per_bs):
    """Single-terminal channel sample with hand-picked gains."""
    return ChannelSample(np.asarray(gains_per_bs, dtype=float).reshape(-1, 1))


def line_deployment(distances, states=None, loads=None):
    """BSs east of the centered user at the given distances."""
    positions = [[25.0 + d, 25.0] for d in distances]
    return make_deployment(positions, states=states, loads=loads)
