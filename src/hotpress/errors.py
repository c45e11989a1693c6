"""Exception hierarchy for the hot-pressing simulator, and the check that
the configuration classes run on each of their numeric fields."""

import math
from numbers import Real


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


def as_float(value, name, error, valid=None, rule=None):
    """``value`` as a Python float, or ``error`` with a message that starts
    with ``name``: when it is not a real number (a bool, text or ``None``),
    when no float can hold it, or, given the range rule ``valid``, when it
    is not finite or fails the rule, as ``f"{name} {rule}"``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise error(f"{name} must lie within the range of a float") from None
    if valid is not None and not (math.isfinite(number) and valid(number)):
        raise error(f"{name} {rule}")
    return number
