"""Low-pass filtering for event refinement.

The Butterworth design and the zero-phase pass restate scipy's
``signal.butter(order, cutoff, btype="low", fs=rate)`` and
``signal.filtfilt(b, a, x, padlen=...)`` as plain numpy operations in
scipy's order, so they give its coefficients and samples bit for bit
without its per-call array-API dispatch, which cost more than the
arithmetic on the fine-tune's short windows. Only ``signal.lfilter``,
the recursion itself, is still scipy's.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from ..errors import ConfigError
from ..timebase import _integer_setting, _real_setting
from .series import TimeSeries


def _expand(roots: np.ndarray) -> np.ndarray:
    """Coefficients of the monic polynomial with these roots, highest power first."""
    coeffs = np.ones(1, dtype=roots.dtype)
    for root in roots:
        coeffs = np.convolve(coeffs, np.array([1, -root], dtype=roots.dtype))
    return coeffs


def design_lowpass(order: int, cutoff_hz: float, sample_rate_hz: float):
    """Butterworth low-pass coefficients (b, a) for the given rate.

    The analog prototype's poles are scaled to the prewarped cutoff and
    carried through the bilinear transform; ``b`` is the gain times the
    expansion of ``order`` zeros at -1, ``a`` the expansion of the
    poles, which come in conjugate pairs, so it is real.
    """
    order = _integer_setting(order, "filter order")
    cutoff_hz = _real_setting(cutoff_hz, "cutoff")
    sample_rate_hz = _real_setting(sample_rate_hz, "sample rate")
    if order < 1:
        raise ConfigError("filter order must be at least 1")
    if cutoff_hz <= 0:
        raise ConfigError("cutoff must be positive")
    if cutoff_hz >= sample_rate_hz / 2:
        raise ConfigError("cutoff must stay below the Nyquist frequency")

    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    prototype = -np.exp(1j * np.pi * m / (2 * order))
    # the cutoff prewarped for the bilinear transform at fs = 2
    warped = float(4.0 * np.tan(np.pi * (cutoff_hz / (sample_rate_hz / 2)) / 2.0))
    analog = warped * prototype
    gain = 1.0 * warped**order
    poles = (4.0 + analog) / (4.0 - analog)
    gain = gain * (1.0 / np.prod(4.0 - analog)).real
    b = gain * _expand(-np.ones(order))
    a = _expand(poles).real.copy()
    return b, a


def butterworth_lowpass(series: TimeSeries, order: int = 4, cutoff_hz: float = 5.0) -> TimeSeries:
    """Zero-phase low-pass filter; preserves timestamps and DC level.

    The sample rate is inferred from the median timestamp spacing. The
    signal is filtered forward and backward, so constants pass through
    unchanged and no group delay is introduced.
    """
    return _lowpass(series, order, cutoff_hz, series.sample_rate_hz())


def _lowpass(series: TimeSeries, order: int, cutoff_hz: float, sample_rate_hz: float) -> TimeSeries:
    """`butterworth_lowpass` at a sample rate the caller has already inferred.

    The series is extended at both ends by its odd reflection over
    ``min(3 * order, len - 1)`` samples, and each pass starts from the
    filter's steady state for the first sample it sees.
    """
    b, a = design_lowpass(order, cutoff_hz, sample_rate_hz)
    x = series.values
    edge = min(3 * order, len(x) - 1)
    ext = x
    if edge > 0:
        ext = np.concatenate((2 * x[0:1] - x[edge:0:-1], x, 2 * x[-1:] - x[-2 : -(edge + 2) : -1]))
    # the steady state of the step response: zi = A zi + B for the companion matrix A
    companion = np.zeros((order, order))
    companion[0] = -a[1:]
    companion[np.arange(1, order), np.arange(order - 1)] = 1
    zi = np.linalg.solve(np.eye(order) - companion.T, b[1:] - a[1:] * b[0])
    forward, _ = signal.lfilter(b, a, ext, zi=zi * ext[:1])
    backward, _ = signal.lfilter(b, a, forward[::-1], zi=zi * forward[-1:])
    filtered = backward[::-1]
    if edge > 0:
        filtered = filtered[edge:-edge]
    return TimeSeries._from_checked(series.timestamps, filtered)
