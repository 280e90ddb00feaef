"""Detection and correspondence records shared across the fusion stages."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import UsageError, checked_int, checked_real

CATEGORIES = ("pedestrian", "vehicle")


def _point(value, name: str) -> tuple[float, float]:
    """``value`` as an (x, y) pair of floats; a UsageError unless it is two finite numbers (a string is none)."""
    try:
        x, y = value
        if math.isfinite(x) and math.isfinite(y):
            return float(x), float(y)
    except (TypeError, ValueError):
        pass
    raise UsageError(f"{name} must be two finite numbers")


@dataclass(frozen=True)
class Detection:
    """One detector hit in a camera frame or in the shared top view.

    ``center`` is the ground contact point of the box (bottom center),
    which is the point worth projecting between views.
    """

    camera_id: str
    category: str
    center: tuple[float, float]
    confidence: float
    frame_ts: int

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise UsageError(f"unknown detection category {self.category!r}")
        object.__setattr__(self, "center", _point(self.center, "detection center"))
        if not 0.0 <= checked_real(self.confidence, "confidence", UsageError) <= 1.0:
            raise UsageError("confidence must be a number in [0, 1]")
        if type(self.frame_ts) is not int:
            object.__setattr__(self, "frame_ts", checked_int(self.frame_ts, "frame_ts", UsageError))


@dataclass(frozen=True)
class PointPair:
    """A source-frame point and where it lands in the target frame."""

    source: tuple[float, float]
    target: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "source", _point(self.source, "source"))
        object.__setattr__(self, "target", _point(self.target, "target"))


@dataclass(frozen=True)
class FusedDetection:
    """A cross-camera merge result in top-view coordinates.

    ``cameras`` lists every contributing camera once; ``merged_count``
    is how many detections went into the merge; ``threshold`` records
    the distance used so downstream consumers can audit the merge.
    """

    category: str
    center: tuple[float, float]
    confidence: float
    cameras: tuple[str, ...]
    threshold: float
    merged_count: int = 1

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise UsageError(f"unknown detection category {self.category!r}")
        if not self.cameras:
            raise UsageError("a fused detection needs at least one camera")
        if not 0.0 <= checked_real(self.confidence, "confidence", UsageError) <= 1.0:
            raise UsageError("confidence must be a number in [0, 1]")
        object.__setattr__(self, "center", _point(self.center, "fused center"))
        object.__setattr__(self, "cameras", tuple(self.cameras))


@dataclass(frozen=True)
class ObjectTruth:
    """Ground truth position of one object in the top view."""

    category: str
    center: tuple[float, float]

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise UsageError(f"unknown category {self.category!r}")
        object.__setattr__(self, "center", _point(self.center, "truth center"))
