"""Scoring fused detections against ground truth object positions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import UsageError, checked_real
from ..scoring import DetectionScores, greedy_match, prf_scores
from .dedup import frame_detections, merge_cuts, merge_group, sorted_fused
from .types import CATEGORIES, Detection, FusedDetection, ObjectTruth

DEFAULT_MATCH_RADIUS = 2.0


def evaluate_detections(
    fused: Sequence,
    ground_truth: Sequence[ObjectTruth],
    match_radius: float = DEFAULT_MATCH_RADIUS,
) -> dict[str, DetectionScores]:
    """Per-category precision, recall, and F1 by one-to-one matching.

    A prediction counts as a true positive when it is matched to a
    truth object of the same category within ``match_radius``; each
    truth object absorbs at most one prediction. Categories absent from
    both sides are omitted.
    """
    if not checked_real(match_radius, "match_radius", UsageError) >= 0:
        raise UsageError("match_radius must be a non-negative number")
    scores: dict[str, DetectionScores] = {}
    for category in CATEGORIES:
        preds = np.array([f.center for f in fused if f.category == category], dtype=float).reshape(-1, 2)
        truth = np.array([t.center for t in ground_truth if t.category == category], dtype=float).reshape(-1, 2)
        if not len(preds) and not len(truth):
            continue
        with np.errstate(over="ignore"):
            d = np.hypot(preds[:, None, 0] - truth[None, :, 0], preds[:, None, 1] - truth[None, :, 1])
        i, j = np.indices(d.shape).reshape(2, -1)
        tp = len(greedy_match(d.ravel(), i, j, match_radius))
        scores[category] = prf_scores(tp, len(preds) - tp, len(truth) - tp)
    return scores


@dataclass(frozen=True)
class SweepRow:
    """One point on the precision-recall curve of a threshold sweep."""

    threshold: float
    category: str
    precision: float
    recall: float


# merge thresholds from loose to strict, 0.5 apart
DEFAULT_SWEEP_THRESHOLDS = (5.5, 5.0, 4.5, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.0)


def threshold_sweep(
    detections: Sequence[Detection],
    ground_truth: Sequence[ObjectTruth],
    thresholds: Sequence[float] | None = None,
    match_radius: float = DEFAULT_MATCH_RADIUS,
) -> tuple[SweepRow, ...]:
    """Deduplicate and score at each merge threshold.

    Shrinking the threshold splits merges apart, so the prediction set
    only grows as the sweep tightens and precision typically falls.
    Recall usually rises but is not monotone. Matching is nearest-first
    and one-to-one, so a part split off a merge can claim, by being
    nearer, a truth that another prediction held before; when neither
    that prediction nor the rest of the merge has another truth within
    the match radius, one match is lost.

    The rows equal those of ``deduplicate`` and ``evaluate_detections``
    at each threshold in turn, in the given order. The merge graph is
    built once, for the largest threshold, and each group is merged
    once however many thresholds share it. Cost: O(n log n + k log k)
    for n detections and k candidate edges, plus O(n) union-find work
    and one scoring per threshold.
    """
    if thresholds is None:
        thresholds = DEFAULT_SWEEP_THRESHOLDS
    thresholds = tuple(checked_real(t, "threshold", UsageError) for t in thresholds)
    if not thresholds:
        raise UsageError("thresholds must be non-empty")
    if min(thresholds) < 0:
        raise UsageError("threshold must be non-negative")
    dets = frame_detections(detections)
    merged: dict[tuple[int, ...], FusedDetection] = {}
    scores_at = {}
    for cut, groups in merge_cuts(dets, thresholds):
        for members in groups:
            if members not in merged:
                merged[members] = merge_group(dets, members, cut)
        fused = sorted_fused([merged[members] for members in groups])
        scores_at[cut] = evaluate_detections(fused, ground_truth, match_radius)
    return tuple(
        SweepRow(threshold, category, score.precision, score.recall)
        for threshold in thresholds
        for category, score in scores_at[threshold].items()
    )
