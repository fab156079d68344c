"""Exception types shared across the simulator."""


class UUVSimError(Exception):
    """Base class for all simulator errors."""


class EmptyRasterError(UUVSimError):
    """Raster map has no cells."""


class KTooLargeError(UUVSimError):
    """Cluster count is below 2 or exceeds the number of distinct intensities."""


class CoastalPlacementError(UUVSimError):
    """A station cannot be placed: off water, near the coast or outside the depth range."""


class UnreachableGoalError(UUVSimError):
    """No edge path connects the start station to the goal."""


class NoSuchEdgeError(UUVSimError):
    """Queried station pair has no edge."""


class AlreadyUsedError(UUVSimError):
    """Edge was already consumed earlier in the mission."""


class UndecodableError(UUVSimError):
    """Route genome cannot be decoded into a start-to-goal walk."""


class NoFeasibleRouteError(UUVSimError):
    """Even the minimum-time route exceeds the mission time budget."""


class NoFeasiblePathError(UUVSimError):
    """Local search exhausted its budget without a constraint-clean path."""


class ScenarioParseError(UUVSimError):
    """Scenario file is not syntactically valid."""


class ScenarioValidationError(UUVSimError):
    """Scenario file violates a documented invariant."""
