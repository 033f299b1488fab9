"""Exception types shared across the simulator."""


class CelllessError(Exception):
    """Base class for all simulator-specific errors."""


class ConfigError(CelllessError):
    """Invalid, unknown, or inconsistent configuration input."""


class PlacementFailure(CelllessError):
    """Rejection sampling could not place all base stations."""


class DomainError(CelllessError):
    """An argument violates an operation's numeric domain."""


class EmptyGroup(CelllessError):
    """A cooperative group with no members was supplied."""


class NoBsAvailable(CelllessError):
    """Every base station is sleeping; nothing can serve the terminal."""


class IllegalTransition(CelllessError):
    """Requested power-state change is not a legal adjacent step."""


class BusyBs(CelllessError):
    """A loaded base station cannot change state before unloading."""


class InfeasibleConfig(CelllessError):
    """Experiment parameters cannot be realized with this scenario."""


class IoFailure(CelllessError):
    """Writing a report artifact failed."""
