"""Sliding-window gesture spotting on camera-derived height series."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

import numpy as np

from ..errors import UsageError
from .dtw import _BLOCK_CELLS, GestureTemplate, _cumulative, dtw_cost
from .series import TimeSeries


@dataclass(frozen=True)
class EventDetection:
    """One detected event occurrence within a stream.

    ``score`` is the normalized DTW distance of the best window (lower
    is better).
    """

    stream_id: str
    start: int
    end: int
    score: float

    def __post_init__(self):
        if self.start > self.end:
            raise UsageError("event start must not exceed its end")
        if not np.isfinite(self.score):
            raise UsageError("event score must be finite")


def _scaled(values, template: GestureTemplate) -> tuple[np.ndarray, np.ndarray]:
    """Values and template on the template's own amplitude scale."""
    mu = float(template.values.mean())
    sd = float(template.values.std())
    return (np.asarray(values, dtype=float) - mu) / sd, (template.values - mu) / sd


def normalized_dtw_score(window: TimeSeries, template: GestureTemplate) -> float:
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
    scaled, template_scaled = _scaled(window.values, template)
    return dtw_cost(scaled, template_scaled) / len(template.values)


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
    overlapping candidates are reduced to the lowest-scoring one, as by
    `suppress_overlaps`. Quiet and flat windows score near the
    template's baseline distance, well above any sensible threshold, so
    they produce no events. Non-finite heights are a `UsageError`.

    A window's score is its `normalized_dtw_score`. The warp path
    bounds the match: samples before the gesture all pair with the
    template's first point and samples after it with the last, so the
    gesture spans the last window index paired with template index 0
    through the first index paired with the final template index.

    The scores come from one batched DTW per block of windows: the
    series is scaled once, each window's rows are cut from it and
    padded to the longest window, and the cumulative tables of the
    whole block advance together row by row. A window's cost is read
    at its own last row, which the padding below it cannot reach.
    Scores and bounds are those of each window on its own.

    Only candidates that suppression may keep are walked. A
    candidate's end is read for the whole block at once (`_end_rows`),
    and candidates are taken in suppression order; one whose end lies
    inside a kept event overlaps it and is dropped unwalked. The rest
    walk from their end to column 0 (`_onset_row`).
    """
    if window_ns <= 0 or stride_ns <= 0:
        raise UsageError("window and stride must be positive")
    if not np.all(np.isfinite(z_series.values)):
        raise UsageError("detection input must be finite")
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

    scaled, template_scaled = _scaled(z_series.values, template)
    m = len(template_scaled)
    last_row = len(scaled) - 1
    # a block of windows holding a candidate is kept until suppression ends
    block = max(1, _BLOCK_CELLS // (int(n_rows.max()) * (m + 1)))

    # (score, end time, flat table, end cell index, end row, first sample, batch)
    candidates = []
    for b0 in range(0, len(lo), block):
        b_lo, b_n = lo[b0 : b0 + block], n_rows[b0 : b0 + block]
        batch, n_max = len(b_lo), int(b_n.max())
        rows = np.minimum(np.arange(n_max)[:, None] + b_lo, last_row)
        table = np.empty((n_max, m + 1, batch))
        cost = table[:, 1:]
        np.subtract(scaled[rows][:, None, :], template_scaled[:, None], out=cost)
        np.abs(cost, out=cost)
        cum = _cumulative(table)
        scores = cum[b_n - 1, m - 1, np.arange(batch)] / m
        matched = np.flatnonzero(scores < template.dtw_threshold)
        if len(matched) == 0:
            continue
        ends = _end_rows(cum, b_n)
        cells = memoryview(table.reshape(-1))
        for w in matched.tolist():
            first, end = int(b_lo[w]), int(ends[w])
            pos = ((m + 1) * end + m) * batch + w
            candidates.append((float(scores[w]), int(ts[first + end]), cells, pos, end, first, batch))

    # suppression order is (score, start); a tie on score needs every start
    candidates.sort(key=lambda c: c[0])
    kept: list[EventDetection] = []
    for score, group in groupby(candidates, key=lambda c: c[0]):
        hits = [
            EventDetection(
                stream_id=stream_id,
                start=int(ts[first + _onset_row(cells, pos, end, m - 1, (m + 1) * batch, batch)]),
                end=end_ns,
                score=score,
            )
            for _, end_ns, cells, pos, end, first, batch in group
            if not any(k.start < end_ns < k.end for k in kept)
        ]
        hits.sort(key=lambda h: h.start)
        _keep_clear(hits, kept)
    kept.sort(key=lambda h: h.start)
    return tuple(kept)


def _end_rows(cum: np.ndarray, n_rows: np.ndarray) -> np.ndarray:
    """Row where each table's warp path leaves its last column.

    ``cum`` holds cumulative tables laid out (row, column, batch), and
    entry w's table is its top ``n_rows[w]`` rows. Walking back from the
    last cell, the path climbs the last column while the up move wins
    (see `_onset_row`), which depends only on the last two columns; the
    end is the lowest row of that climb, or row 0.
    """
    m = cum.shape[1]
    near, last = cum[:, m - 2], cum[:, m - 1]
    diag, up, left = near[:-1], last[:-1], near[1:]
    climbs = (up <= left) & ((diag > up) | (diag > left))
    # entry r - 1 belongs to row r: the latest row at or above r that the
    # walk does not climb from
    stops = np.where(climbs, 0, np.arange(1, len(cum))[:, None])
    np.maximum.accumulate(stops, axis=0, out=stops)
    return stops[n_rows - 2, np.arange(cum.shape[2])]


def _onset_row(cells, pos: int, i: int, j: int, up: int, left: int) -> int:
    """Row where the warp path through cell (i, j) first reaches column 0.

    ``cells`` is a flat table, ``pos`` the cell's index in it, and
    ``up`` and ``left`` the index distances to the cells above and to
    the left. The path is walked back as `dtw._warp_path` walks it,
    preferring the diagonal, then up, then left on ties; once it
    reaches row 0 it runs left along it, so its onset is row 0.
    """
    diag = up + left
    while i and j:
        d, u, l = cells[pos - diag], cells[pos - up], cells[pos - left]
        if d <= u and d <= l:
            i -= 1
            j -= 1
            pos -= diag
        elif u <= l:
            i -= 1
            pos -= up
        else:
            j -= 1
            pos -= left
    return i


def suppress_overlaps(hits: Iterable[EventDetection]) -> tuple[EventDetection, ...]:
    """Keep the best-scoring detection out of each overlapping run."""
    kept: list[EventDetection] = []
    _keep_clear(sorted(hits, key=lambda h: (h.score, h.start)), kept)
    kept.sort(key=lambda h: h.start)
    return tuple(kept)


def _keep_clear(ordered: Iterable[EventDetection], kept: list[EventDetection]) -> None:
    """Append each hit, in order, that overlaps nothing kept before it."""
    for hit in ordered:
        if all(hit.end <= k.start or hit.start >= k.end for k in kept):
            kept.append(hit)
