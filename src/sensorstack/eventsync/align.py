"""Coarse event matching, entropy-onset refinement, and stream shifting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import UsageError, checked_int
from ..scoring import match_integers
from ..timebase import NS_PER_SEC, SampleStream
from .detect import EventDetection
from .features import _sliding_entropy
from .filters import _lowpass
from .series import TimeSeries

COARSE_TOLERANCE_NS = 500_000_000


@dataclass(frozen=True)
class MatchedPair:
    """A cross-stream event correspondence from coarse alignment."""

    a: EventDetection
    b: EventDetection


def coarse_align(
    events_a: Sequence[EventDetection],
    events_b: Sequence[EventDetection],
    tolerance_ns: int = COARSE_TOLERANCE_NS,
) -> tuple[MatchedPair, ...]:
    """Greedy one-to-one matching of event starts within a tolerance.

    Candidate pairs are taken closest first (`match_integers` on the
    start gap); each event participates in at most one pair. Starts
    must fit in a signed 64-bit integer. Pairs are
    returned ordered by the first stream's event start; pairs sharing
    one keep index order, which is also the order they were matched in,
    because such events have equal gaps to every candidate.
    """
    matches = match_integers([e.start for e in events_a], [e.start for e in events_b], tolerance_ns)
    pairs = [MatchedPair(events_a[i], events_b[j]) for i, j in matches]
    pairs.sort(key=lambda p: p.a.start)
    return tuple(pairs)


# The fine-tune onset search. The window is coarse start +/- SEARCH_HALF_WIDTH_NS.
# The onset threshold is the mean plus K_SIGMA standard deviations of the
# entropy over the leading BASELINE_FRACTION of the window.
SEARCH_HALF_WIDTH_NS = 1_000_000_000
FILTER_ORDER = 4
CUTOFF_HZ = 5.0
ENTROPY_WINDOW_NS = 300_000_000
BASELINE_FRACTION = 0.25
K_SIGMA = 2.0


@dataclass(frozen=True)
class RefinedStart:
    stream_id: str
    refined_ns: int
    fallback: bool


def fine_tune_event(
    series_per_stream: Mapping[str, TimeSeries],
    coarse_starts: Mapping[str, int],
) -> dict[str, RefinedStart]:
    """Refine a coarsely matched event start in every stream.

    Per stream: low-pass the activity signal around the coarse start,
    slide an entropy window over it, locate the entropy peak, then walk
    back to where the entropy first rose above the baseline threshold.
    That rise marks the movement onset. When no sample exceeds the
    threshold the coarse start is returned with the fallback flag set.
    """
    refined: dict[str, RefinedStart] = {}
    for stream_id, coarse in coarse_starts.items():
        series = series_per_stream.get(stream_id)
        if series is None:
            raise UsageError(f"no series provided for stream {stream_id}")
        lo = coarse - SEARCH_HALF_WIDTH_NS
        hi = coarse + SEARCH_HALF_WIDTH_NS
        window = series.slice_time(lo, hi)
        if len(window) < 8:
            raise UsageError(f"series for {stream_id} does not cover the search window")

        # the filtered series keeps the window's timestamps, so one
        # median period serves the filter, the stride and the entropy
        period = window.median_period_ns()
        rate = NS_PER_SEC / period
        cutoff = min(CUTOFF_HZ, 0.45 * rate)
        smooth = _lowpass(window, FILTER_ORDER, cutoff, rate)
        entropy = _sliding_entropy(smooth, ENTROPY_WINDOW_NS, period, period)

        values = entropy.values
        baseline_n = max(2, int(len(values) * BASELINE_FRACTION))
        baseline = values[:baseline_n]
        threshold = float(baseline.mean() + K_SIGMA * baseline.std())

        peak = int(np.argmax(values))
        if values[peak] <= threshold:
            refined[stream_id] = RefinedStart(stream_id, coarse, fallback=True)
            continue
        rise = peak
        while rise > 0 and values[rise - 1] > threshold:
            rise -= 1

        # The rise window brackets the onset to one entropy window; pin
        # the instant inside it to where the raw signal leaves its quiet
        # band. The zero-phase filter smears edges backward in time, so
        # the filtered signal only localizes; the unfiltered one decides.
        window_start = int(entropy.timestamps[rise]) - ENTROPY_WINDOW_NS // 2
        onset = _first_departure(window, window_start)
        onset = min(max(onset, lo), hi)
        refined[stream_id] = RefinedStart(stream_id, onset, fallback=False)
    return refined


def _first_departure(raw: TimeSeries, window_start: int) -> int:
    """First sustained departure from the quiet band at or after window_start.

    The band is centered on the mean of the samples preceding
    window_start (or the leading fraction when too few precede it) and
    is the wider of k_sigma baseline deviations and 5% of the peak
    excursion, so it works for noisy and noiseless signals alike.
    Departure is judged on the absolute deviation over two consecutive
    samples, which ignores single-sample noise spikes.
    """
    ts = raw.timestamps
    sig = raw.values
    split = int(np.searchsorted(ts, window_start, side="left"))
    baseline = sig[:split]
    if len(baseline) < 4:
        baseline = sig[: max(2, int(len(sig) * BASELINE_FRACTION))]
    center = float(baseline.mean())
    deviation = np.abs(sig[split:] - center)
    if len(deviation) < 2:
        return window_start
    peak = float(deviation.max())
    if peak == 0.0:
        return window_start
    band = max(K_SIGMA * float(baseline.std()), 0.05 * peak)
    departed = deviation > band
    hits = np.nonzero(departed[:-1] & departed[1:])[0]
    if len(hits) == 0:
        return window_start
    return int(ts[split + int(hits[0])])


def apply_sync(
    streams: Mapping[str, SampleStream],
    refined_starts: Mapping[str, Sequence[int]],
    reference_stream_id: str,
) -> dict[str, SampleStream]:
    """Shift corrected timestamps so refined starts line up.

    Every stream supplies a sequence of refined starts, paired by
    position with the reference's. Each non-reference stream moves by
    the median of (reference start - its start) over the pairs, which
    tolerates the odd bad refinement.
    """
    if reference_stream_id not in streams:
        raise UsageError("reference stream missing from streams")
    if reference_stream_id not in refined_starts:
        raise UsageError("reference stream missing from refined starts")

    try:
        starts = {
            stream_id: [checked_int(x, "a refined start", UsageError) for x in value]
            for stream_id, value in refined_starts.items()
        }
    except TypeError:
        raise UsageError("refined starts must be sequences of integers") from None
    ref = starts[reference_stream_id]
    out: dict[str, SampleStream] = {reference_stream_id: streams[reference_stream_id]}
    for stream_id, stream in streams.items():
        if stream_id == reference_stream_id:
            continue
        if stream_id not in starts:
            raise UsageError(f"no refined start for stream {stream_id}")
        own = starts[stream_id]
        if not own or len(own) != len(ref):
            raise UsageError("refined start lists must be non-empty and pair up with the reference")
        deltas = [r - o for r, o in zip(ref, own)]
        shift = int(np.median(deltas))
        out[stream_id] = stream.shifted(shift)
    return out
