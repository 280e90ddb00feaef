"""Sliding-window gesture spotting on camera-derived height series."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

import numpy as np

from ..errors import UsageError, checked_int, checked_real, checked_series
from .dtw import _BLOCK_CELLS, GestureTemplate, _cumulative, dtw_cost
from .series import TimeSeries

# relative margin by which a window's range bound must exceed the total
# cost at the threshold before the window is pruned; see detect_gesture_video
_PRUNE_MARGIN = 1e-6


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
        if checked_int(self.start, "event start", UsageError) > checked_int(self.end, "event end", UsageError):
            raise UsageError("event start must not exceed its end")
        if not np.isfinite(checked_real(self.score, "event score", UsageError)):
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

    The scores come from one batched DTW per block of windows. The
    series is scaled once. A window can only score under the threshold
    if its range bound (`_range_bounds`) allows it, so windows whose
    bound rules them out are pruned before any DTW. A window's row i is
    sample ``lo + i``, whose running cost sums along the template are
    the same in every window holding it: they are summed once per block
    for the samples its windows cover, and each window's table takes
    its rows from them, padded to the longest window. The cumulative
    tables of the block then advance together row by row (`_cumulative`).
    A window's cost is read at its own last row, which the padding below
    it cannot reach. Scores and bounds are those of each window on its
    own.

    Only candidates that suppression may keep are walked to the end. A
    candidate's end is read for the whole block at once (`_end_rows`),
    and candidates are taken in suppression order. A kept event that
    starts before a candidate's end overlaps it exactly when it ends
    after the candidate's start, so the candidate is rejected exactly
    when it starts before the latest end of those events. Its walk from
    its end to column 0 (`_onset_row`) stops as soon as it passes that
    end's row, at once when the end lies inside a kept event, and no
    detection is built for it.
    """
    if not isinstance(z_series, TimeSeries):
        raise UsageError(f"detection input must be a TimeSeries, not {type(z_series).__name__}")
    if not isinstance(template, GestureTemplate):
        raise UsageError(f"template must be a GestureTemplate, not {type(template).__name__}")
    window_ns = checked_int(window_ns, "window_ns", UsageError)
    stride_ns = checked_int(stride_ns, "stride_ns", UsageError)
    if not isinstance(stream_id, str):
        raise UsageError(f"stream_id must be a string, not {type(stream_id).__name__}")
    if window_ns <= 0 or stride_ns <= 0:
        raise UsageError("window and stride must be positive")
    checked_series(z_series.values, "detection input", UsageError)
    ts = z_series.timestamps
    t0 = int(ts[0])
    period = z_series.median_period_ns()
    if int(ts[-1]) - t0 + period < window_ns:
        raise UsageError("series is shorter than the detection window")

    last_start = int(ts[-1]) - window_ns + period
    starts = np.arange(t0, last_start + 1, stride_ns, dtype=np.int64)
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + window_ns, side="left")
    keep = hi - lo >= 4
    lo, n_rows = lo[keep], (hi - lo)[keep]
    if len(lo) == 0:
        return ()

    scaled, template_scaled = _scaled(z_series.values, template)
    m = len(template_scaled)
    column = template_scaled[:, None]
    last_row = len(scaled) - 1
    n_max = int(n_rows.max())
    # a block of windows holding a candidate is kept until suppression ends;
    # a block's windows start within `reach` samples of its first, so its
    # running sums hold at most _BLOCK_CELLS + m * n_max cells
    block = max(1, _BLOCK_CELLS // (n_max * (m + 1)))
    reach = max(1, _BLOCK_CELLS // m)
    # Pruning keeps every candidate. A window is dropped only when its range
    # bound exceeds the threshold's total cost by the relative margin
    # _PRUNE_MARGIN. The exact bound never exceeds the exact DTW cost. The
    # float bound and the kernel's float cost each add at most n * m of the
    # table's costs, so they are off by about n * m * eps of those costs,
    # under 3e-10 of them at _BLOCK_CELLS. The margin is far above that for
    # any threshold not itself below about 1e-4 of the scaled template's range.
    limit = template.dtw_threshold * m * (1 + _PRUNE_MARGIN)

    # (score, end time, flat table, end cell index, end row, first sample, batch)
    candidates = []
    b0 = 0
    while b0 < len(lo):
        b1 = min(b0 + block, int(lo.searchsorted(lo[b0] + reach)))
        b_lo, b_n = lo[b0:b1], n_rows[b0:b1]
        b0 = b1
        rows = np.minimum(np.arange(int(b_n.max()))[:, None] + b_lo, last_row)
        values = scaled[rows]
        alive = _range_bounds(values.min(axis=0), values.max(axis=0), column) <= limit
        if not alive.any():
            continue
        b_lo, b_n = b_lo[alive], b_n[alive]
        batch, height = len(b_lo), int(b_n.max())
        rows = rows[:height, alive]
        base = int(b_lo[0])
        sums = np.subtract(column, scaled[base : int(rows[-1, -1]) + 1])
        np.abs(sums, out=sums)
        np.cumsum(sums, axis=0, out=sums)
        table = np.empty((height, m + 1, batch))
        # every index is in range; "clip" writes to the table unbuffered
        for local, cost in zip(rows - base, table[:, 1:]):
            sums.take(local, axis=1, out=cost, mode="clip")
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
        hits = []
        for _, end_ns, cells, pos, end, first, batch in group:
            # a kept event that starts before this end overlaps the hit exactly
            # when it ends after the hit's start: the hit is rejected when its
            # onset is below row `stop`, where the latest of those ends lies
            latest = max((k.end for k in kept if k.start < end_ns), default=t0)
            stop = int(ts.searchsorted(latest)) - first
            onset = _onset_row(cells, pos, end, m - 1, (m + 1) * batch, batch, stop)
            if onset >= stop:
                hits.append(EventDetection(stream_id=stream_id, start=int(ts[first + onset]), end=end_ns, score=score))
        hits.sort(key=lambda h: h.start)
        _keep_clear(hits, kept)
    kept.sort(key=lambda h: h.start)
    return tuple(kept)


def _range_bounds(low: np.ndarray, high: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Lower bound on the DTW cost between ``column`` and each window whose values lie in [low, high].

    ``column`` is the template as an (m, 1) array and ``low`` and
    ``high`` hold one entry per window. Every template point is paired
    with at least one sample of the window, at a cost of at least the
    point's distance to the window's range, so the sum of those
    distances is at most the window's DTW cost: the column-envelope
    bound of unconstrained DTW, the relative of LB_Keogh. A wider range
    only lowers it.
    """
    return (np.maximum(column - high, 0.0) + np.maximum(low - column, 0.0)).sum(axis=0)


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


def _onset_row(cells, pos: int, i: int, j: int, up: int, left: int, stop: int = 0) -> int:
    """Row where the warp path through cell (i, j) first reaches column 0.

    ``cells`` is a flat table, ``pos`` the cell's index in it, and
    ``up`` and ``left`` the index distances to the cells above and to
    the left. The path is walked back as `dtw._warp_path` walks it,
    preferring the diagonal, then up, then left on ties; once it
    reaches row 0 it runs left along it, so its onset is row 0.

    The walk's row never increases, so once it is below ``stop`` the
    onset is too: the walk ends there and returns that row. An onset at
    or above ``stop`` is returned exactly.
    """
    diag = up + left
    floor = max(stop - 1, 0)
    while i > floor and j:
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
