"""Sliding-window gesture spotting on camera-derived height series."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .. import jsonl
from ..errors import UsageError
from .dtw import GestureTemplate, _backtrack, _cumulative, dtw_cost
from .series import TimeSeries

STAGES = ("coarse", "fine")

# cells of one batched DTW table; bounds the memory of a block of windows
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class EventDetection:
    """One detected event occurrence within a stream.

    ``score`` is the normalized DTW distance of the best window (lower
    is better); ``stage`` records whether the bounds come from coarse
    detection or fine refinement.
    """

    stream_id: str
    start: int
    end: int
    score: float
    stage: str = "coarse"

    def __post_init__(self):
        if self.start > self.end:
            raise UsageError("event start must not exceed its end")
        if not np.isfinite(self.score):
            raise UsageError("event score must be finite")
        if self.stage not in STAGES:
            raise UsageError(f"unknown stage {self.stage!r}")


def _scaled(values, template: GestureTemplate) -> tuple[np.ndarray, np.ndarray]:
    """Values and template on the template's own amplitude scale."""
    mu = float(template.values.mean())
    sd = float(template.values.std())
    return (np.asarray(values, dtype=float) - mu) / sd, (template.values - mu) / sd


def normalized_dtw_score(window, template: GestureTemplate) -> float:
    """DTW distance from a window to a template, per template sample.

    Both sides are expressed on the template's own amplitude scale (its
    mean and standard deviation), so the score is invariant to a joint
    rescaling of signal and template but still distinguishes a
    gesture-sized excursion from the quiet baseline. Dividing by the
    template length makes the value independent of window size, which
    lets one threshold work across window configurations. A window
    sitting at the quiet baseline scores roughly mean/std of the
    template; matching windows score far below that.
    """
    values = window.values if isinstance(window, TimeSeries) else window
    scaled, template_scaled = _scaled(values, template)
    return dtw_cost(scaled, template_scaled, "abs") / len(template.values)


def detect_gesture_video(
    z_series: TimeSeries,
    template: GestureTemplate,
    window_ns: int = 4_000_000_000,
    stride_ns: int = 250_000_000,
    stream_id: str = "",
) -> tuple[EventDetection, ...]:
    """Scan a height series for template-shaped gestures.

    Windows start every ``stride_ns`` and span ``window_ns``; a window
    holding fewer than four samples is skipped. Every window whose
    normalized DTW score falls below the template threshold becomes a
    candidate carrying the estimated gesture bounds from the warp path;
    overlapping candidates are reduced to the lowest-scoring one. Quiet
    and flat windows score near the template's baseline distance, well
    above any sensible threshold, so they produce no events.

    A window's score is its `normalized_dtw_score`. The warp path
    bounds the match: samples before the gesture all pair with the
    template's first point and samples after it with the last, so the
    gesture spans the last window index paired with template index 0
    through the first index paired with the final template index.

    The scores come from one batched DTW per block of windows: the
    series is scaled once, each window's rows are cut from it and
    padded to the longest window, and the cumulative tables of the
    whole block advance together row by row. A window's cost is read
    at its own last row, which the padding below it cannot reach; only
    windows under the threshold are backtracked. Scores and bounds are
    those of each window on its own.
    """
    if window_ns <= 0 or stride_ns <= 0:
        raise UsageError("window and stride must be positive")
    ts = z_series.timestamps
    period = z_series.median_period_ns()
    if int(ts[-1]) - int(ts[0]) + period < window_ns:
        raise UsageError("series is shorter than the detection window")

    last_start = int(ts[-1]) - window_ns + period
    starts = np.arange(int(ts[0]), last_start + 1, stride_ns, dtype=np.int64)
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + window_ns, side="left")
    keep = hi - lo >= 4
    lo, n_rows = lo[keep], (hi - lo)[keep]
    if len(lo) == 0:
        return ()
    if z_series.values.ndim != 1:
        raise UsageError("sequences must have matching dimensionality")

    scaled, template_scaled = _scaled(z_series.values, template)
    m = len(template_scaled)
    last_row = len(scaled) - 1
    block = max(1, _BLOCK_CELLS // (int(n_rows.max()) * m))

    hits: list[EventDetection] = []
    for b0 in range(0, len(lo), block):
        b_lo, b_n = lo[b0 : b0 + block], n_rows[b0 : b0 + block]
        rows = np.minimum(b_lo[:, None] + np.arange(int(b_n.max())), last_row)
        cost = np.abs(scaled[rows][:, :, None] - template_scaled)
        tables = _cumulative(cost)
        scores = tables[np.arange(len(b_lo)), b_n - 1, m - 1] / m
        for w in np.flatnonzero(scores < template.dtw_threshold):
            start, n_w = int(b_lo[w]), int(b_n[w])
            path = _backtrack(tables[w, :n_w])
            onset_idx = max(i for i, j in path if j == 0)
            end_idx = min(i for i, j in path if j == m - 1)
            hits.append(
                EventDetection(
                    stream_id=stream_id,
                    start=int(ts[start + onset_idx]),
                    end=int(ts[start + end_idx]),
                    score=float(scores[w]),
                    stage="coarse",
                )
            )

    return suppress_overlaps(hits)


def suppress_overlaps(hits: Iterable[EventDetection]) -> tuple[EventDetection, ...]:
    """Keep the best-scoring detection out of each overlapping run."""
    kept: list[EventDetection] = []
    for hit in sorted(hits, key=lambda h: (h.score, h.start)):
        if all(hit.end <= k.start or hit.start >= k.end for k in kept):
            kept.append(hit)
    kept.sort(key=lambda h: h.start)
    return tuple(kept)


def write_events_ndjson(events: Iterable[EventDetection], fp: IO[str]) -> None:
    jsonl.write_records(
        (
            {"stream_id": e.stream_id, "start_ns": e.start, "end_ns": e.end, "score": e.score, "stage": e.stage}
            for e in events
        ),
        fp,
    )


def read_events_ndjson(fp: IO[str]) -> tuple[EventDetection, ...]:
    return jsonl.read_records(
        fp,
        lambda rec: EventDetection(
            stream_id=rec["stream_id"],
            start=int(rec["start_ns"]),
            end=int(rec["end_ns"]),
            score=float(rec["score"]),
            stage=rec["stage"],
        ),
    )
