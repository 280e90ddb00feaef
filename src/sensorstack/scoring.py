"""Precision/recall bookkeeping and one-to-one nearest matching.

Both the event-alignment metrics and the fused-detection metrics need the
same greedy matcher: candidate pairs sorted by distance, each side used at
most once, pairs beyond the cutoff discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError, checked_int, checked_real

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class DetectionScores:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def prf_scores(tp: int, fp: int, fn: int) -> DetectionScores:
    """Build a score record from raw counts.

    Vacuous cases follow the usual convention: no predictions means no
    false alarms (precision 1), no truth means nothing was missed
    (recall 1). The counts must be non-negative integers.
    """
    if not (type(tp) is type(fp) is type(fn) is int):
        tp, fp, fn = (checked_int(count, "a count", UsageError) for count in (tp, fp, fn))
    if tp < 0 or fp < 0 or fn < 0:
        raise UsageError("counts must be non-negative")
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return DetectionScores(precision, recall, f1, tp, fp, fn)


def greedy_match(distance, pred_index, truth_index, max_distance) -> list[tuple[int, int]]:
    """Match predictions to truth one-to-one, nearest pairs first.

    The candidates are parallel arrays: candidate ``k`` pairs
    prediction ``pred_index[k]`` with truth ``truth_index[k]`` at
    ``distance[k]``. Candidates beyond ``max_distance`` are dropped;
    the rest are taken in ``(distance, pred_index, truth_index)`` order
    while both sides are free, so ties break on the lower index pair
    and the result is deterministic. Returns the accepted
    (pred_index, truth_index) pairs sorted. Cost: O(c log c) for c
    candidates.
    """
    if not checked_real(max_distance, "max_distance", UsageError) >= 0:
        raise UsageError("max_distance must be a non-negative number")
    distance = np.asarray(distance)
    keep = distance <= max_distance
    d = distance[keep]
    i = np.asarray(pred_index)[keep]
    j = np.asarray(truth_index)[keep]
    order = np.lexsort((j, i, d))
    used_p: set[int] = set()
    used_t: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a in used_p or b in used_t:
            continue
        used_p.add(a)
        used_t.add(b)
        pairs.append((a, b))
    pairs.sort()
    return pairs


def match_integers(a: Sequence[int], b: Sequence[int], tolerance) -> list[tuple[int, int]]:
    """``greedy_match`` of integers by their exact gap ``|a[i] - b[j]|``.

    The values must fit in a signed 64-bit integer. Their gaps are
    taken as unsigned 64-bit integers, which hold every such gap
    exactly, and compared with ``tolerance`` rounded down.
    """
    if not checked_real(tolerance, "tolerance", UsageError) >= 0:
        raise UsageError("tolerance must be a non-negative number")
    try:
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    except OverflowError as exc:
        raise UsageError("values must fit in a signed 64-bit integer") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"values must be integers: {exc}") from exc
    if a.ndim != 1 or b.ndim != 1:
        raise UsageError("values must be 1-d sequences of integers")
    # a - b modulo 2**64, negated where b is the larger
    diff = a.astype(np.uint64)[:, None] - b.astype(np.uint64)
    gap = np.where(a[:, None] >= b, diff, -diff)
    limit = np.uint64(_UINT64_MAX if tolerance >= _UINT64_MAX else math.floor(tolerance))
    i, j = np.nonzero(gap <= limit)
    return greedy_match(gap[i, j], i, j, limit)
