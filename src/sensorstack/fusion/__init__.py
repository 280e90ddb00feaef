"""Multi-camera detection fusion in a shared top-down frame.

Per-camera detections are mapped into one coordinate system through a
fitted homography (a direct linear transform, or its RANSAC-robust
variant), merged across cameras by a distance threshold with
confidence weighting, and scored against ground truth positions.
"""

from .dedup import deduplicate
from .geometry import (
    PerspectiveTransform,
    ProjectionResult,
    RansacResult,
    fit_homography_dlt,
    project,
    ransac_fit,
    reprojection_errors,
)
from .metrics import (
    DEFAULT_MATCH_RADIUS,
    DEFAULT_SWEEP_THRESHOLDS,
    SweepRow,
    evaluate_detections,
    threshold_sweep,
)
from .types import CATEGORIES, Detection, FusedDetection, ObjectTruth, PointPair

__all__ = [
    "CATEGORIES",
    "DEFAULT_MATCH_RADIUS",
    "DEFAULT_SWEEP_THRESHOLDS",
    "Detection",
    "FusedDetection",
    "ObjectTruth",
    "PerspectiveTransform",
    "PointPair",
    "ProjectionResult",
    "RansacResult",
    "SweepRow",
    "deduplicate",
    "evaluate_detections",
    "fit_homography_dlt",
    "project",
    "ransac_fit",
    "reprojection_errors",
    "threshold_sweep",
]
