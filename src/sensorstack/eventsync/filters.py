"""Low-pass filtering for event refinement."""

from __future__ import annotations

import numpy as np
from scipy import signal

from ..errors import ConfigError
from .series import TimeSeries


def design_lowpass(order: int, cutoff_hz: float, sample_rate_hz: float):
    """Butterworth low-pass coefficients (b, a) for the given rate."""
    if order < 1:
        raise ConfigError("filter order must be at least 1")
    if cutoff_hz <= 0:
        raise ConfigError("cutoff must be positive")
    if cutoff_hz >= sample_rate_hz / 2:
        raise ConfigError("cutoff must stay below the Nyquist frequency")
    return signal.butter(order, cutoff_hz, btype="low", fs=sample_rate_hz)


def butterworth_lowpass(series: TimeSeries, order: int = 4, cutoff_hz: float = 5.0) -> TimeSeries:
    """Zero-phase low-pass filter; preserves timestamps and DC level.

    The sample rate is inferred from the median timestamp spacing. The
    signal is filtered forward and backward, so constants pass through
    unchanged and no group delay is introduced.
    """
    return _lowpass(series, order, cutoff_hz, series.sample_rate_hz())


def _lowpass(series: TimeSeries, order: int, cutoff_hz: float, sample_rate_hz: float) -> TimeSeries:
    """`butterworth_lowpass` at a sample rate the caller has already inferred."""
    b, a = design_lowpass(order, cutoff_hz, sample_rate_hz)
    default_pad = 3 * (max(len(a), len(b)) - 1)
    padlen = min(default_pad, len(series) - 1)
    filtered = signal.filtfilt(b, a, series.values, padlen=padlen)
    return TimeSeries(series.timestamps, np.asarray(filtered))
