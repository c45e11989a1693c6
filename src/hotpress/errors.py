"""Exception hierarchy for the hot-pressing simulator."""


class HotPressError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HotPressError, ValueError):
    """A physical quantity left its admissible range."""


class ConvergenceError(HotPressError):
    """An iterative computation failed to converge."""


class MeshError(HotPressError, ValueError):
    """Invalid mesh construction parameters or corrupt mesh data."""


class ScenarioError(HotPressError, ValueError):
    """Scenario document failed validation.

    The message names the offending field(s).
    """


class NewtonError(ConvergenceError):
    """Newton iteration failed; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class LinearSolveError(HotPressError):
    """Sparse solve failed."""


class StepError(HotPressError):
    """A time step produced a state violating basic invariants."""
