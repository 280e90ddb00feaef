"""Dynamic time warping and barycenter averaging for gesture templates."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from ..errors import UsageError

# cells of one batched DTW table: the detector's blocks of windows and
# the blocks of dba's medoid pairs stay under it
_BLOCK_CELLS = 1 << 20


def _as_values(seq) -> np.ndarray:
    try:
        vals = np.asarray(seq, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"sequence must hold numbers: {exc}") from None
    if vals.ndim != 1 or len(vals) == 0:
        raise UsageError("sequence must be a non-empty 1-d array")
    if not np.isfinite(vals).all():
        raise UsageError("sequence values must be finite")
    return vals


def _cumulative(table: np.ndarray) -> np.ndarray:
    """Cumulative DTW cost with steps (1,0), (0,1), (1,1), in place, for a batch of tables.

    ``table`` is laid out (row, column, batch), so that each step works
    on whole contiguous rows with the batch innermost. Columns 1.. hold
    one (n, m) table per batch entry of each row's running cost sums:
    cell (i, j) holds d[i, 0] + ... + d[i, j], added in that order, of
    the pairwise costs d. Callers build the sums, so that a row shared
    by several tables is summed once (`detect.detect_gesture_video`).
    Column 0 is padding, set here to +inf beside the table, so
    min(prev[0], prev[-1]) is prev[0]. The sums are overwritten with
    their cumulative costs, and the view ``table[:, 1:]`` is returned.

    Each row is computed with a prefix-scan: within a row the
    recurrence D[i,j] = d[i,j] + min(M[j], D[i,j-1]) collapses to the
    row's running sum plus a running minimum, so every table in the
    batch advances by one vectorized row update per step instead of a
    scalar double loop. Cell (i, j) reads only cells above it and to its
    left, so the top-left (k, l) corner of a table is the cumulative
    cost of the first k rows and l columns of its input alone: tables
    of different heights and different widths can share one batch,
    padded below and to the right to the tallest and widest.
    """
    table[:, 0] = np.inf
    cost = table[:, 1:]
    step = np.empty_like(table[0, 1:])
    # column j's running minimum starts from the row's sum before j;
    # column 0 has none, so its entry keeps min(M[0], inf) unchanged
    tail = step[1:]
    for prev, prev_left, row, row_before in zip(cost, table[:, :-1], cost[1:], table[1:, 1:-1]):
        np.minimum(prev, prev_left, out=step)
        np.subtract(tail, row_before, out=tail)
        np.minimum.accumulate(step, axis=0, out=step)
        np.add(row, step, out=row)
    return cost


def _warp_path(cells, pos: int, i: int, j: int, up: int, left: int) -> tuple[list[int], list[int]]:
    """Rows and columns of the optimal warp path through cell (i, j), walked back from it to (0, 0).

    ``cells`` is a flat cumulated table, ``pos`` the cell's index in it,
    and ``up`` and ``left`` the index distances to the cells above and
    to the left, as `detect._onset_row` takes them. On ties the walk
    prefers the diagonal, then up, then left; once it reaches row 0 or
    column 0 it runs along it to (0, 0).
    """
    diag = up + left
    rows, cols = [i], [j]
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
        rows.append(i)
        cols.append(j)
    # at most one of i and j is left above 0
    rows += range(i - 1, -1, -1)
    cols += [0] * i
    rows += [0] * j
    cols += range(j - 1, -1, -1)
    return rows, cols


@dataclass(frozen=True)
class DtwResult:
    cost: float
    path: tuple[tuple[int, int], ...]


def _cumulative_table(s, t) -> np.ndarray:
    """Cumulated |s - t| table of one pair of sequences, laid out as `_cumulative` takes it: (len(s), len(t) + 1, 1)."""
    s, t = _as_values(s), _as_values(t)
    table = np.empty((len(s), len(t) + 1, 1))
    table[:, 1:, 0] = np.cumsum(np.abs(s[:, None] - t[None, :]), axis=1)
    _cumulative(table)
    return table


def dtw_distance(s, t) -> DtwResult:
    """Minimum cumulative warp cost and one optimal path of two 1-d sequences.

    The point cost is the absolute difference. The path starts at
    (0, 0), ends at (len(s)-1, len(t)-1), and moves by (1,0), (0,1) or
    (1,1) only.

    Input bound: values whose magnitudes differ by more than about 1e15
    lose small costs. The kernel adds each row's costs into running sums
    (`_cumulative`), and a double drops any part below about 1e-16 of a
    sum it joins: ``dtw_cost([0, 0, -1e17, 0], [1, -1e17, 0])`` reads
    0.0, where the cheapest warp path costs 2. Sensor readings lie far
    inside this bound.
    """
    table = _cumulative_table(s, t)
    n, width = table.shape[:2]
    rows, cols = _warp_path(memoryview(table.reshape(-1)), table.size - 1, n - 1, width - 2, width, 1)
    return DtwResult(cost=float(table[-1, -1, 0]), path=tuple(zip(reversed(rows), reversed(cols))))


def dtw_cost(s, t) -> float:
    """Cost-only variant; skips path recovery. `dtw_distance`'s input bound holds."""
    return float(_cumulative_table(s, t)[-1, -1, 0])


# ---------------------------------------------------------------------------
# barycenter averaging


@dataclass(frozen=True)
class DbaResult:
    barycenter: np.ndarray
    costs: tuple[float, ...]


def _sqeuclidean_tables(lefts: list[np.ndarray], rights: list[np.ndarray]) -> tuple[np.ndarray, list[float]]:
    """Cumulated squared-distance tables of the pairs (lefts[p], rights[p]), in one batch.

    Returns the (row, column, batch) table as `_cumulative` lays it
    out, pair p's table at the top left of batch entry p and zeros
    padded below and to its right, and each pair's DTW cost, read at
    the pair's own last cell.
    """
    n, m, batch = max(map(len, lefts)), max(map(len, rights)), len(lefts)
    rows, cols = np.zeros((n, batch)), np.zeros((m, batch))
    for p, (a, b) in enumerate(zip(lefts, rights)):
        rows[: len(a), p] = a
        cols[: len(b), p] = b
    table = np.empty((n, m + 1, batch))
    cost = table[:, 1:]
    np.subtract(rows[:, None], cols, out=cost)
    np.square(cost, out=cost)
    np.cumsum(cost, axis=1, out=cost)
    ends = _cumulative(table)[[len(a) - 1 for a in lefts], [len(b) - 1 for b in rights], np.arange(batch)]
    return table, ends.tolist()


def _aligned_mean(table: np.ndarray, seqs: list[np.ndarray]) -> np.ndarray:
    """Each barycenter point's mean of the sequence values that the warp paths in ``table`` align to it.

    ``table`` is `_sqeuclidean_tables`' batch of (barycenter, seqs[w])
    tables. Every path's values are added in path order, one sequence
    after another, so each point sums its values in the same order as
    a point-by-point loop would.
    """
    length, width, batch = table.shape
    cells = memoryview(table.reshape(-1))
    rows, values = [], []
    for w, seq in enumerate(seqs):
        pos = ((length - 1) * width + len(seq)) * batch + w
        path_rows, path_cols = _warp_path(cells, pos, length - 1, len(seq) - 1, width * batch, batch)
        rows += reversed(path_rows)
        values.append(seq[path_cols[::-1]])
    sums = np.zeros(length)
    np.add.at(sums, rows, np.concatenate(values))
    return sums / np.bincount(rows, minlength=length)


def dba(sequences: Sequence, iterations: int) -> DbaResult:
    """Barycenter averaging under DTW with squared point distance.

    Starts from the medoid and alternates between aligning every
    sequence to the barycenter and replacing each barycenter point with
    the mean of its aligned values. The recorded objective (total
    squared-distance DTW cost to the set) never increases; a single
    input is its own fixed point.

    Each step is one batched DTW: the medoid's k * k pairs share a
    kernel call (split only past ``_BLOCK_CELLS``), and each iteration's
    k (barycenter, sequence) tables give both the objective of the
    barycenter and its next alignment. A pass whose barycenter comes out
    byte for byte as it went in has reached a fixed point (Petitjean et
    al., Pattern Recognition 2011): every later pass would repeat its
    tables, so the run stops there and repeats its cost for each pass
    left. A -0.0 that the mean turns into 0.0 is a change.

    Input bound: as for `dtw_distance`, but on squared costs, so values
    whose magnitudes differ by more than about 3e7 (their squares by
    about 1e15) lose small costs.
    """
    try:
        seqs = [_as_values(s) for s in sequences]
    except TypeError:
        raise UsageError("sequences must be an iterable of sequences") from None
    if not seqs:
        raise UsageError("need at least one sequence")
    if isinstance(iterations, bool) or not isinstance(iterations, Integral):
        raise UsageError("iterations must be an integer")
    if iterations < 1:
        raise UsageError("iterations must be at least 1")

    k = len(seqs)
    longest = max(map(len, seqs))
    block = max(1, _BLOCK_CELLS // (longest * (longest + 1)))
    lefts = [a for a in seqs for _ in seqs]
    rights = seqs * k
    pair_costs = []
    for p in range(0, k * k, block):
        pair_costs += _sqeuclidean_tables(lefts[p : p + block], rights[p : p + block])[1]
    totals = [sum(pair_costs[i : i + k]) for i in range(0, k * k, k)]
    barycenter = seqs[int(np.argmin(totals))].copy()

    costs = []
    for _ in range(iterations):
        table, ends = _sqeuclidean_tables([barycenter] * k, seqs)
        costs.append(sum(ends))
        barycenter, previous = _aligned_mean(table, seqs), barycenter
        if barycenter.tobytes() == previous.tobytes():
            # a fixed point: every later pass would rebuild these tables and this cost
            costs += costs[-1:] * (iterations + 1 - len(costs))
            return DbaResult(barycenter=barycenter, costs=tuple(costs))
    costs.append(sum(_sqeuclidean_tables([barycenter] * k, seqs)[1]))
    return DbaResult(barycenter=barycenter, costs=tuple(costs))


@dataclass(frozen=True)
class GestureTemplate:
    """Reference gesture shape for sliding-window matching.

    ``values`` keep the original signal units; detection rescales both
    window and template by the template's own mean and standard
    deviation, then compares ``dtw_threshold`` against the resulting
    per-template-sample DTW distance.
    """

    values: np.ndarray
    sample_rate_hz: float
    dtw_threshold: float = 0.8

    def __post_init__(self):
        try:
            vals = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"template values must be numbers: {exc}") from None
        if vals.ndim != 1 or len(vals) < 2:
            raise UsageError("template needs at least two scalar values")
        if not np.all(np.isfinite(vals)):
            raise UsageError("template values must be finite")
        if float(vals.std()) == 0.0:
            raise UsageError("template values must not be constant")
        if not (isinstance(self.sample_rate_hz, Real) and self.sample_rate_hz > 0):
            raise UsageError("template sample rate must be a positive number")
        if not (isinstance(self.dtw_threshold, Real) and self.dtw_threshold > 0):
            raise UsageError("dtw threshold must be a positive number")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def dba_template(
    sequences: Sequence,
    iterations: int = 10,
    *,
    sample_rate_hz: float,
    dtw_threshold: float = 0.8,
) -> GestureTemplate:
    """Average aligned gesture instances, sampled at ``sample_rate_hz``, into a matching template."""
    result = dba(sequences, iterations)
    return GestureTemplate(result.barycenter, sample_rate_hz, dtw_threshold)
