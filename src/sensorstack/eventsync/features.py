"""Sliding-window histogram entropy, the onset signal of event refinement."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, UsageError, checked_series
from ..timebase import INT64_MAX
from .series import TimeSeries

ENTROPY_BINS = 16

_TOO_SHORT = "series too short for the requested entropy window"


def sliding_entropy(series: TimeSeries, window_ns: int, stride_ns: int) -> TimeSeries:
    """Entropy of consecutive windows, stamped at the window centers.

    The histogram bins are anchored once to the full series range, so a
    quiet stretch occupies few cells and scores near zero while windows
    covering large excursions spread out and score high. Per-window
    ranges would hide that contrast: they rescale every window to its
    own span, making faint sensor noise look as diverse as real motion.

    Every window must span at least three samples at the series'
    nominal rate, and windows start at the first timestamp and step by
    ``stride_ns`` while one still begins within a period of the last
    full window.

    Every value is binned once, by ``np.histogram``'s rule (a bin holds
    its lower edge, the last bin also its upper one); a window's counts
    are the difference of two rows of per-bin cumulative counts.
    """
    return _sliding_entropy(series, window_ns, stride_ns, series.median_period_ns())


def _sliding_entropy(series: TimeSeries, window_ns: int, stride_ns: int, period: int) -> TimeSeries:
    """`sliding_entropy` given the series' median period."""
    if window_ns <= 0 or stride_ns <= 0:
        raise UsageError("window and stride must be positive")
    if window_ns < 3 * period:
        raise UsageError("entropy window must span at least three samples")
    checked_series(series.values, "entropy input", UsageError)

    ts = series.timestamps
    first = int(ts[0])
    count = (int(ts[-1]) - window_ns + period - first) // stride_ns + 1
    if count <= 0:
        raise UsageError(_TOO_SHORT)
    if first + (count - 1) * stride_ns + window_ns > INT64_MAX:
        raise DomainError("entropy windows must end within the int64 range")
    starts = np.array(range(first, first + count * stride_ns, stride_ns), dtype=np.int64)
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + window_ns, side="left")
    keep = hi - lo >= 3
    if not keep.any():
        raise UsageError(_TOO_SHORT)
    lo, hi = lo[keep], hi[keep]

    values = series.values
    edges = np.linspace(values.min(), values.max(), ENTROPY_BINS + 1)
    bins = np.searchsorted(edges[:-1], values, side="right") - 1
    cells = np.arange(len(ts)) * ENTROPY_BINS + bins
    per_sample = np.bincount(cells, minlength=len(ts) * ENTROPY_BINS).reshape(len(ts), ENTROPY_BINS)
    cumulative = np.zeros((len(ts) + 1, ENTROPY_BINS), dtype=np.int64)
    np.cumsum(per_sample, axis=0, out=cumulative[1:])
    counts = cumulative[hi] - cumulative[lo]
    p = counts / (hi - lo)[:, None]
    entropy = -(p * np.log2(np.where(counts > 0, p, 1.0))).sum(axis=1)
    return TimeSeries(starts[keep] + window_ns // 2, entropy)
