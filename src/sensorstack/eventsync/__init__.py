"""Event-based cross-stream time alignment.

The pipeline: detect a shared physical event (a hand gesture) in every
stream, match detections across streams within a coarse tolerance,
refine each matched start with a filter + sliding-entropy onset search,
then shift streams so the refined starts coincide.
"""

from .series import TimeSeries
from .dtw import DbaResult, DtwResult, GestureTemplate, dba, dba_template, dtw_cost, dtw_distance
from .features import sliding_entropy
from .filters import butterworth_lowpass, design_lowpass
from .detect import EventDetection, detect_gesture_video, normalized_dtw_score, suppress_overlaps
from .align import MatchedPair, RefinedStart, apply_sync, coarse_align, fine_tune_event

__all__ = [
    "TimeSeries",
    "DbaResult",
    "DtwResult",
    "GestureTemplate",
    "dba",
    "dba_template",
    "dtw_cost",
    "dtw_distance",
    "sliding_entropy",
    "butterworth_lowpass",
    "design_lowpass",
    "EventDetection",
    "detect_gesture_video",
    "normalized_dtw_score",
    "suppress_overlaps",
    "MatchedPair",
    "RefinedStart",
    "apply_sync",
    "coarse_align",
    "fine_tune_event",
]
