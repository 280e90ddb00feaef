"""Detection and correspondence records shared across the fusion stages."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import UsageError

CATEGORIES = ("pedestrian", "vehicle")


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
        x, y = self.center
        if not (math.isfinite(x) and math.isfinite(y)):
            raise UsageError("detection center must be finite")
        object.__setattr__(self, "center", (float(x), float(y)))
        if not 0.0 <= self.confidence <= 1.0:
            raise UsageError("confidence must lie in [0, 1]")


@dataclass(frozen=True)
class PointPair:
    """A source-frame point and where it lands in the target frame."""

    source: tuple[float, float]
    target: tuple[float, float]

    def __post_init__(self):
        for name, point in (("source", self.source), ("target", self.target)):
            x, y = point
            if not (math.isfinite(x) and math.isfinite(y)):
                raise UsageError(f"{name} coordinates must be finite")
            object.__setattr__(self, name, (float(x), float(y)))


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
        if not 0.0 <= self.confidence <= 1.0:
            raise UsageError("confidence must lie in [0, 1]")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "cameras", tuple(self.cameras))


@dataclass(frozen=True)
class ObjectTruth:
    """Ground truth position of one object in the top view."""

    category: str
    center: tuple[float, float]

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise UsageError(f"unknown category {self.category!r}")
        x, y = self.center
        if not (math.isfinite(x) and math.isfinite(y)):
            raise UsageError("truth center must be finite")
        object.__setattr__(self, "center", (float(x), float(y)))
