"""One-channel time series with integer-nanosecond timestamps.

A `TimeSeries` is the scalar activity signal that event sync runs on:
one value per timestamp. Streams with several channels are
`timebase.SampleStream`s; callers pick the channel they sync on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, UsageError
from ..timebase import NS_PER_SEC


def _int64_timestamps(ts: np.ndarray) -> np.ndarray:
    """``ts`` as int64: a non-integral timestamp is a UsageError rather
    than truncated, one outside int64 a DomainError rather than wrapped."""
    values = ts.tolist()
    if not all(type(t) is int or (type(t) is float and t.is_integer()) for t in values):
        raise UsageError("timestamps must be integral nanoseconds")
    try:
        return np.array([int(t) for t in values], dtype=np.int64)
    except OverflowError:
        raise DomainError("timestamps must fit in int64") from None


@dataclass(frozen=True)
class TimeSeries:
    """Timestamps (ns, strictly increasing) with one value each, shape (n,)."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        try:
            ts = np.asarray(self.timestamps)
            vals = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            # ragged nesting, or values that are not numbers
            raise UsageError(f"timestamps and values must be arrays of numbers: {exc}") from None
        if ts.ndim != 1:
            raise UsageError("timestamps must be one-dimensional")
        if len(ts) == 0:
            raise UsageError("series must not be empty")
        if ts.dtype != np.int64:
            ts = _int64_timestamps(ts)
        if vals.ndim != 1:
            raise UsageError("values must be one-dimensional")
        if len(vals) != len(ts):
            raise UsageError("values and timestamps must have equal length")
        if np.any(ts[1:] <= ts[:-1]):
            raise UsageError("timestamps must be strictly increasing")
        ts.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _from_checked(cls, timestamps: np.ndarray, values: np.ndarray) -> "TimeSeries":
        """A series over the timestamps of a checked series and values of the same
        length, built without validating them again."""
        values.flags.writeable = False
        series = object.__new__(cls)
        object.__setattr__(series, "timestamps", timestamps)
        object.__setattr__(series, "values", values)
        return series

    def __len__(self) -> int:
        return len(self.timestamps)

    def median_period_ns(self) -> int:
        if len(self) < 2:
            raise UsageError("need at least two samples to infer a period")
        gaps = np.diff(self.timestamps)
        # timestamps strictly increase, so a negative gap is one that wrapped
        if np.any(gaps < 0):
            raise DomainError("a sample gap leaves the int64 range")
        return int(np.median(gaps))

    def sample_rate_hz(self) -> float:
        return NS_PER_SEC / self.median_period_ns()

    def slice_time(self, t0: int, t1: int) -> "TimeSeries":
        """Samples with t0 <= timestamp < t1."""
        lo = int(np.searchsorted(self.timestamps, t0, side="left"))
        hi = int(np.searchsorted(self.timestamps, t1, side="left"))
        if hi <= lo:
            raise UsageError("time slice contains no samples")
        return TimeSeries._from_checked(self.timestamps[lo:hi], self.values[lo:hi])
