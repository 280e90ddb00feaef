"""Alignment-error and detection-quality metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import UsageError
from ..scoring import DetectionScores, match_integers, prf_scores
from .detect import EventDetection


@dataclass(frozen=True)
class SyncScores:
    """Paired timing-error summary, all in seconds.

    mae   mean absolute error
    rmse  root mean squared error
    mto   mean timing offset (signed mean of predicted - truth)
    """

    mae: float
    rmse: float
    mto: float


def eval_sync(truth_s: Sequence[float], predicted_s: Sequence[float]) -> SyncScores:
    truth = np.asarray(truth_s, dtype=float)
    pred = np.asarray(predicted_s, dtype=float)
    if truth.size == 0:
        raise UsageError("cannot score an empty set of events")
    if truth.shape != pred.shape:
        raise UsageError("truth and predictions must pair up")
    err = pred - truth
    return SyncScores(
        mae=float(np.abs(err).mean()),
        rmse=float(np.sqrt((err**2).mean())),
        mto=float(err.mean()),
    )


def _event_start(e) -> int:
    return e.start if isinstance(e, EventDetection) else int(e)


def eval_detection(
    predicted: Sequence,
    truth: Sequence,
    tolerance_ns: int,
) -> DetectionScores:
    """Precision/recall/F1 with one-to-one nearest matching on starts.

    Both arguments accept EventDetection objects or bare start
    timestamps; a prediction counts as a true positive when matched to
    a truth start within the tolerance.
    """
    pred_starts = [_event_start(e) for e in predicted]
    truth_starts = [_event_start(e) for e in truth]
    tp = len(match_integers(pred_starts, truth_starts, tolerance_ns))
    return prf_scores(tp=tp, fp=len(pred_starts) - tp, fn=len(truth_starts) - tp)
