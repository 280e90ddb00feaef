"""Exception types shared across the package, and the argument checks that raise them.

The checks are the stack's one definition of an integer, a real number
and a finite series. Each takes the value, its name and the error to
raise: ``ConfigError`` for a settings record, ``UsageError`` for a call
argument. Range tests stay comparisons at the call site.
"""

from __future__ import annotations

import numpy as np


class SensorStackError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SensorStackError):
    """An input violates a documented precondition of an operation."""


class UsageError(SensorStackError):
    """An operation was invoked with unusable arguments."""


class ConfigError(SensorStackError):
    """A configuration value is outside its legal range."""


class FitError(SensorStackError):
    """A geometric or statistical fit could not be computed."""


class AuthError(SensorStackError):
    """Authentication or authorization failed."""


class ConflictError(SensorStackError):
    """The request conflicts with existing state."""


class ValidationError(SensorStackError):
    """A record failed field validation.

    ``fields`` lists the offending field names so callers can report
    every problem at once.
    """

    def __init__(self, message: str, fields: tuple[str, ...] = ()):
        super().__init__(message)
        self.fields = tuple(fields)


class NotFoundError(SensorStackError):
    """A referenced entity does not exist."""


class TopologyError(SensorStackError):
    """The node topology cannot satisfy a routing request."""


class IntegrityError(SensorStackError):
    """Persisted or logged data is inconsistent or truncated."""


# an isinstance test on these takes about 80 ns; one against the abstract number classes, about 570 ns
_REALS = (int, float, np.integer, np.floating)


def checked_int(value, name: str, error: type[SensorStackError]) -> int:
    """``value`` as a Python int: an int or a numpy integer, never a bool."""
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{name} must be an integer, not {type(value).__name__}")


def checked_real(value, name: str, error: type[SensorStackError]) -> float:
    """``value`` as a float: an int, a float or a numpy integer or floating, never a bool or NaN.

    Infinity passes: whether it is in range is the caller's comparison.
    An integer beyond the float range is refused rather than overflowing.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _REALS):
            raise error(f"{name} must be a number, not {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{name} is beyond the float range") from None
    if value != value:
        raise error(f"{name} must be finite")
    return value


def checked_series(value, name: str, error: type[SensorStackError]) -> np.ndarray:
    """``value`` as a non-empty 1-d float array of finite values; a float array is not copied."""
    try:
        series = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must hold numbers: {exc}") from None
    if series.ndim != 1 or len(series) == 0:
        raise error(f"{name} must be a non-empty 1-d array")
    if not np.isfinite(series).all():
        raise error(f"{name} values must be finite")
    return series
