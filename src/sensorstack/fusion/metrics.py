"""Scoring fused detections against ground truth object positions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import UsageError
from ..scoring import DetectionScores, greedy_match, prf_scores
from .dedup import deduplicate
from .types import CATEGORIES, Detection, ObjectTruth

DEFAULT_MATCH_RADIUS = 2.0


def _center_distance(a, b) -> float:
    return float(np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]))


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
    if match_radius < 0:
        raise UsageError("match_radius must be non-negative")
    scores: dict[str, DetectionScores] = {}
    for category in CATEGORIES:
        preds = [f for f in fused if f.category == category]
        truth = [t for t in ground_truth if t.category == category]
        if not preds and not truth:
            continue
        matches = greedy_match(preds, truth, match_radius, _center_distance)
        tp = len(matches)
        scores[category] = prf_scores(tp, len(preds) - tp, len(truth) - tp)
    return scores


@dataclass(frozen=True)
class SweepRow:
    """One point on the precision-recall curve of a threshold sweep."""

    threshold: float
    category: str
    precision: float
    recall: float


def default_sweep_thresholds(start: float = 5.5, stop: float = 0.0, steps: int = 12) -> tuple[float, ...]:
    """Evenly spaced merge thresholds from loose to strict."""
    return tuple(float(t) for t in np.linspace(start, stop, steps))


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
    """
    if thresholds is None:
        thresholds = default_sweep_thresholds()
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise UsageError("thresholds must be non-empty")
    rows = []
    for threshold in thresholds:
        fused = deduplicate(detections, threshold)
        for category, score in evaluate_detections(fused, ground_truth, match_radius).items():
            rows.append(SweepRow(threshold, category, score.precision, score.recall))
    return tuple(rows)
