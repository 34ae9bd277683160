"""Exception types shared across the package."""

from __future__ import annotations


class ArccoverError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ArccoverError, ValueError):
    """An input violates a stated precondition; carries a human-readable reason."""


class ParseError(ValidationError):
    """Cycle-notation text is malformed; the message names the offending token."""


class CapacityExceeded(ArccoverError):
    """A bounded search hit its cap.

    Recoverable by design: callers may retry with a larger cap or record the
    stage as skipped. `details` holds progress counters at the moment of the
    stop (e.g. elements discovered, frontier size). `kind` names the skip
    kind a job records for it.
    """

    kind = "capacity"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = dict(details)


class BudgetExhausted(CapacityExceeded):
    """A job's time budget ran out inside a stage; `details` holds how far
    the stage got."""

    kind = "budget"


class InternalCheckError(ArccoverError):
    """An internal consistency assertion failed; indicates a bug, not bad input."""
