"""Exception types shared across the package."""

from __future__ import annotations


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
