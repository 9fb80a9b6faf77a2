"""Exception hierarchy for stablemix.

All errors raised by this package derive from :class:`StablemixError` so
callers can catch everything with a single except clause.  The subclasses
separate "you passed garbage" from "your inputs are valid but violate a
mathematical hypothesis" from operational failures.
"""

import numbers


class StablemixError(Exception):
    """Base class for all stablemix errors."""


class InvalidInputError(StablemixError, ValueError):
    """Malformed or non-finite input (bad shapes, NaN entries, bad config)."""


class HypothesisViolationError(StablemixError, ValueError):
    """Inputs are well formed but violate a required mathematical hypothesis,
    e.g. a spectral radius at or above one where a contraction is required."""


class HorizonExceededError(StablemixError, RuntimeError):
    """A certified index could not be located within the search horizon."""


class SingularMatrixError(StablemixError, ValueError):
    """A matrix that must be inverted is singular or too ill conditioned."""


class RangeOverflowError(StablemixError, OverflowError):
    """An intermediate quantity left the representable floating-point range."""


class InsufficientDataError(StablemixError, ValueError):
    """Not enough qualifying samples or paths to form the requested statistic."""


class GridMismatchError(InvalidInputError):
    """Two estimates evaluated on different theta grids were combined."""


class ConfigError(InvalidInputError):
    """Experiment configuration is malformed, incomplete, or has unknown keys."""


class ReproducibilityError(StablemixError, RuntimeError):
    """A replay produced statistics that differ from the recorded report."""


def converted(convert, value, name: str, error: type = InvalidInputError):
    """``convert(value)`` for a value read from JSON input, with the
    TypeError or ValueError of a malformed value raised as ``error``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} is malformed: {value!r:.60} ({exc})") from None


def integral(value) -> int:
    """``value`` as an int, for use with :func:`converted`: an integer, or
    a float with no fractional part (JSON may write ``1e5``).  A boolean,
    a fraction or anything else raises, where ``int`` would truncate."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)):
        raise TypeError("must be an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be an integer")
    return int(value)
