"""Window statistics for inertial data and histogram entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import DomainError, UsageError
from .series import TimeSeries

ENTROPY_BINS = 16

_INT64_MAX = int(np.iinfo(np.int64).max)
_TOO_SHORT = "series too short for the requested entropy window"

DEFAULT_CHANNEL_GROUPS: dict[str, tuple[int, ...]] = {
    "accel": (0, 1, 2),
    "gyro": (3, 4, 5),
}


def shannon_entropy(values, bins: int | np.ndarray = ENTROPY_BINS) -> float:
    """Histogram entropy in bits.

    ``bins`` is either a cell count, giving equal-width cells between
    the window minimum and maximum, or an explicit array of bin edges
    for anchoring several windows to one shared range. Empty cells
    contribute nothing. A window whose values span no range at all has
    zero entropy by definition.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise UsageError("entropy of an empty window is undefined")
    if not np.all(np.isfinite(v)):
        raise UsageError("entropy input must be finite")
    if isinstance(bins, (int, np.integer)):
        lo = float(v.min())
        hi = float(v.max())
        if lo == hi:
            return 0.0
        counts, _ = np.histogram(v, bins=bins, range=(lo, hi))
    else:
        edges = np.asarray(bins, dtype=float)
        if edges[0] == edges[-1]:
            return 0.0
        counts, _ = np.histogram(v, bins=edges)
    p = counts[counts > 0] / v.size
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class GroupFeatures:
    """Summary statistics over one channel group within a window."""

    mean: float
    variance: float
    std: float
    sma: float
    entropy: float


@dataclass(frozen=True)
class FeatureVector:
    groups: Mapping[str, GroupFeatures]

    def __post_init__(self):
        object.__setattr__(self, "groups", dict(self.groups))

    def as_array(self, order: Sequence[str] | None = None) -> np.ndarray:
        """Flatten to (mean, variance, std, sma, entropy) per group."""
        names = list(order) if order is not None else sorted(self.groups)
        out = []
        for name in names:
            g = self.groups[name]
            out.extend([g.mean, g.variance, g.std, g.sma, g.entropy])
        return np.array(out)


def extract_imu_features(
    window_values,
    channel_groups: Mapping[str, Sequence[int]] | None = None,
) -> FeatureVector:
    """Per-group mean, variance, std, signal magnitude area, and entropy.

    ``window_values`` is (n,) or (n, c). The signal magnitude area is
    the summed absolute value across the group's channels divided by the
    number of samples. Six-channel windows default to accelerometer
    (0..2) and gyroscope (3..5) groups; other widths fall back to a
    single group over all channels.
    """
    vals = np.asarray(window_values, dtype=float)
    if vals.size == 0:
        raise UsageError("feature window must not be empty")
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2:
        raise UsageError("feature window must be 1-d or 2-d")
    if not np.all(np.isfinite(vals)):
        raise UsageError("feature window must be finite")

    if channel_groups is None:
        if vals.shape[1] == 6:
            channel_groups = DEFAULT_CHANNEL_GROUPS
        else:
            channel_groups = {"all": tuple(range(vals.shape[1]))}

    n = vals.shape[0]
    groups: dict[str, GroupFeatures] = {}
    for name, idx in channel_groups.items():
        cols = vals[:, list(idx)]
        mean = float(cols.mean())
        variance = float(cols.var())
        groups[name] = GroupFeatures(
            mean=mean,
            variance=variance,
            std=math.sqrt(variance),
            sma=float(np.abs(cols).sum() / n),
            entropy=shannon_entropy(cols),
        )
    return FeatureVector(groups=groups)


def sliding_entropy(series: TimeSeries, window_ns: int, stride_ns: int) -> TimeSeries:
    """Entropy of consecutive windows, stamped at the window centers.

    The histogram bins are anchored once to the full series range, so a
    quiet stretch occupies few cells and scores near zero while windows
    covering large excursions spread out and score high. Per-window
    ranges would hide that contrast: they rescale every window to its
    own span, making faint sensor noise look as diverse as real motion.

    Multichannel values are flattened within each window. Every window
    must span at least three samples at the series' nominal rate, and
    windows start at the first timestamp and step by ``stride_ns`` while
    one still begins within a period of the last full window.

    Every value is binned once, by ``np.histogram``'s rule (a bin holds
    its lower edge, the last bin also its upper one); a window's counts
    are the difference of two rows of per-bin cumulative counts.
    """
    if window_ns <= 0 or stride_ns <= 0:
        raise UsageError("window and stride must be positive")
    period = series.median_period_ns()
    if window_ns < 3 * period:
        raise UsageError("entropy window must span at least three samples")
    if not np.all(np.isfinite(series.values)):
        raise UsageError("entropy input must be finite")

    ts = series.timestamps
    first = int(ts[0])
    count = (int(ts[-1]) - window_ns + period - first) // stride_ns + 1
    if count <= 0:
        raise UsageError(_TOO_SHORT)
    if first + (count - 1) * stride_ns + window_ns > _INT64_MAX:
        raise DomainError("entropy windows must end within the int64 range")
    starts = np.array(range(first, first + count * stride_ns, stride_ns), dtype=np.int64)
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + window_ns, side="left")
    keep = hi - lo >= 3
    if not keep.any():
        raise UsageError(_TOO_SHORT)
    lo, hi = lo[keep], hi[keep]

    values = series.values.reshape(len(ts), -1)
    edges = np.linspace(values.min(), values.max(), ENTROPY_BINS + 1)
    bins = np.searchsorted(edges[:-1], values, side="right") - 1
    cells = (np.arange(len(ts))[:, None] * ENTROPY_BINS + bins).ravel()
    per_sample = np.bincount(cells, minlength=len(ts) * ENTROPY_BINS).reshape(len(ts), ENTROPY_BINS)
    cumulative = np.zeros((len(ts) + 1, ENTROPY_BINS), dtype=np.int64)
    np.cumsum(per_sample, axis=0, out=cumulative[1:])
    counts = cumulative[hi] - cumulative[lo]
    p = counts / ((hi - lo) * values.shape[1])[:, None]
    entropy = -(p * np.log2(np.where(counts > 0, p, 1.0))).sum(axis=1)
    return TimeSeries(starts[keep] + window_ns // 2, entropy)
