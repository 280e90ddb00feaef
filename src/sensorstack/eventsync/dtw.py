"""Dynamic time warping and barycenter averaging for gesture templates."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from ..errors import UsageError
from ..timebase import NS_PER_SEC


def _as_values(seq) -> np.ndarray:
    try:
        vals = np.asarray(seq, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"sequence must hold numbers: {exc}") from None
    if vals.ndim != 1 or len(vals) == 0:
        raise UsageError("sequence must be a non-empty 1-d array")
    return vals


def _pairwise_cost(s: np.ndarray, t: np.ndarray, metric: str) -> np.ndarray:
    diff = s[:, None] - t[None, :]
    if metric == "abs":
        return np.abs(diff)
    if metric == "sqeuclidean":
        return diff**2
    raise UsageError(f"unknown point metric {metric!r}")


def _cumulative(table: np.ndarray) -> np.ndarray:
    """Cumulative DTW cost with steps (1,0), (0,1), (1,1), in place, for a batch of tables.

    ``table`` is laid out (row, column, batch), so that each step works
    on whole contiguous rows with the batch innermost. Columns 1.. hold
    one (n, m) pairwise cost table per batch entry; column 0 is
    padding, set here to +inf beside the table, so min(prev[0],
    prev[-1]) is prev[0]. The costs are overwritten with their
    cumulative costs, and the view ``table[:, 1:]`` is returned.

    Each row is computed with a prefix-scan: within a row the
    recurrence D[i,j] = d[i,j] + min(M[j], D[i,j-1]) collapses to a
    cumulative sum plus a running minimum, so every table in the batch
    advances by one vectorized row update per step instead of a scalar
    double loop. Row i reads only rows above it, so the top k rows of a
    table are the cumulative cost of the first k rows of its input
    alone: tables of different heights can share one batch, padded to
    the tallest.
    """
    table[:, 0] = np.inf
    cost = table[:, 1:]
    np.cumsum(cost, axis=1, out=cost)
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


def _backtrack(cumulative: np.ndarray) -> list[tuple[int, int]]:
    """Recover one optimal path, preferring diagonal steps on ties."""
    i = cumulative.shape[0] - 1
    j = cumulative.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = cumulative[i - 1, j - 1]
            up = cumulative[i - 1, j]
            left = cumulative[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return path


@dataclass(frozen=True)
class DtwResult:
    cost: float
    path: tuple[tuple[int, int], ...]


def _cumulative_table(s, t, point_metric: str) -> np.ndarray:
    """Cumulative cost table of one pair of sequences, shape (len(s), len(t))."""
    d = _pairwise_cost(_as_values(s), _as_values(t), point_metric)
    table = np.empty((d.shape[0], d.shape[1] + 1, 1))
    table[:, 1:, 0] = d
    return _cumulative(table)[:, :, 0]


def dtw_distance(s, t, point_metric: str = "abs") -> DtwResult:
    """Minimum cumulative warp cost and one optimal path of two 1-d sequences.

    The path starts at (0, 0), ends at (len(s)-1, len(t)-1), and moves
    by (1,0), (0,1) or (1,1) only. ``point_metric`` is "abs" (absolute
    difference) or "sqeuclidean" (squared difference).
    """
    cum = _cumulative_table(s, t, point_metric)
    return DtwResult(cost=float(cum[-1, -1]), path=tuple(_backtrack(cum)))


def dtw_cost(s, t, point_metric: str = "abs") -> float:
    """Cost-only variant; skips path recovery."""
    return float(_cumulative_table(s, t, point_metric)[-1, -1])


# ---------------------------------------------------------------------------
# barycenter averaging


@dataclass(frozen=True)
class DbaResult:
    barycenter: np.ndarray
    costs: tuple[float, ...]


def _dba_objective(barycenter: np.ndarray, sequences: list[np.ndarray]) -> float:
    return sum(dtw_cost(barycenter, s, "sqeuclidean") for s in sequences)


def dba(sequences: Sequence, iterations: int) -> DbaResult:
    """Barycenter averaging under DTW with squared point distance.

    Starts from the medoid and alternates between aligning every
    sequence to the barycenter and replacing each barycenter point with
    the mean of its aligned values. The recorded objective (total
    squared-distance DTW cost to the set) never increases; a single
    input is its own fixed point.
    """
    seqs = [_as_values(s) for s in sequences]
    if not seqs:
        raise UsageError("need at least one sequence")
    if iterations < 1:
        raise UsageError("iterations must be at least 1")

    totals = [
        sum(dtw_cost(seqs[i], seqs[j], "sqeuclidean") for j in range(len(seqs)))
        for i in range(len(seqs))
    ]
    barycenter = seqs[int(np.argmin(totals))].copy()

    costs = [_dba_objective(barycenter, seqs)]
    for _ in range(iterations):
        sums = np.zeros_like(barycenter)
        counts = np.zeros(len(barycenter))
        for seq in seqs:
            result = dtw_distance(barycenter, seq, "sqeuclidean")
            for i, j in result.path:
                sums[i] += seq[j]
                counts[i] += 1
        barycenter = sums / counts
        costs.append(_dba_objective(barycenter, seqs))
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

    @property
    def duration_ns(self) -> int:
        return round(len(self.values) / self.sample_rate_hz * NS_PER_SEC)


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
