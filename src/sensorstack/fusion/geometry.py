"""Perspective mapping between camera frames and the shared top view."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import FitError, UsageError
from .types import Detection, PointPair

W_EPSILON = 1e-9


@dataclass(frozen=True)
class PerspectiveTransform:
    """Either a homography matrix or a trained coordinate regressor.

    ``kind`` selects the payload: "homography" carries a 3x3 matrix
    normalized to bottom-right entry 1, "learned" carries the regressor
    parameters produced by fit_transform_net.
    """

    kind: str
    matrix: np.ndarray | None = None
    net: "object | None" = None

    def __post_init__(self):
        if self.kind == "homography":
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (3, 3):
                raise UsageError("homography must be a 3x3 matrix")
            det = float(np.linalg.det(m))
            if not np.isfinite(det) or abs(det) <= 1e-12:
                raise UsageError("homography must be non-singular")
            if abs(m[2, 2]) <= 1e-12:
                raise UsageError("homography bottom-right entry must be nonzero")
            m = m / m[2, 2]
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        elif self.kind == "learned":
            if self.net is None:
                raise UsageError("learned transform needs regressor parameters")
        else:
            raise UsageError(f"unknown transform kind {self.kind!r}")

    def apply(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map (n, 2) points; returns (mapped, valid mask).

        Homography points whose homogeneous scale collapses below
        W_EPSILON are marked invalid and filled with NaN.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if self.kind == "homography":
            ones = np.ones((len(pts), 1))
            h = np.hstack([pts, ones]) @ self.matrix.T
            w = h[:, 2]
            valid = np.abs(w) >= W_EPSILON
            out = np.full((len(pts), 2), np.nan)
            out[valid] = h[valid, :2] / w[valid, None]
            return out, valid
        mapped = self.net.predict(pts)
        return mapped, np.ones(len(pts), dtype=bool)


def _as_arrays(pairs: Sequence[PointPair]) -> tuple[np.ndarray, np.ndarray]:
    src = np.array([p.source for p in pairs], dtype=float)
    dst = np.array([p.target for p in pairs], dtype=float)
    return src, dst


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking points to zero centroid, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    if dist <= 1e-12:
        raise FitError("point pairs are degenerate: all points coincide")
    s = np.sqrt(2.0) / dist
    return np.array(
        [
            [s, 0.0, -s * centroid[0]],
            [0.0, s, -s * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _apply_h(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ones = np.ones((len(pts), 1))
    mapped = np.hstack([pts, ones]) @ h.T
    return mapped[:, :2] / mapped[:, 2:3]


def fit_homography_dlt(pairs: Sequence[PointPair]) -> PerspectiveTransform:
    """Direct linear transform with Hartley coordinate normalization.

    Each pair contributes two rows to the homogeneous system; the
    solution is the right singular vector of the smallest singular
    value. Normalizing both point sets first keeps the system well
    conditioned at pixel scales.
    """
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    src, dst = _as_arrays(pairs)
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    sn = _apply_h(t_src, src)
    dn = _apply_h(t_dst, dst)

    rows = []
    for (x, y), (u, v) in zip(sn, dn):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.array(rows)
    _, s, vt = np.linalg.svd(a)
    if s[-2] <= 1e-9 * s[0]:
        raise FitError("point pairs are degenerate: three or more source points collinear")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(h[2, 2]) <= 1e-12:
        raise FitError("fitted homography is degenerate: vanishing scale entry")
    try:
        return PerspectiveTransform(kind="homography", matrix=h / h[2, 2])
    except UsageError as exc:
        raise FitError(f"fitted homography is degenerate: {exc}") from exc


def reprojection_errors(transform: PerspectiveTransform, pairs: Sequence[PointPair]) -> np.ndarray:
    """Euclidean distance between each mapped source and its target."""
    src, dst = _as_arrays(pairs)
    mapped, valid = transform.apply(src)
    errors = np.full(len(pairs), np.inf)
    errors[valid] = np.linalg.norm(mapped[valid] - dst[valid], axis=1)
    return errors


@dataclass(frozen=True)
class RansacResult:
    transform: PerspectiveTransform
    inlier_mask: np.ndarray


def ransac_fit(
    pairs: Sequence[PointPair],
    inlier_threshold: float = 3.0,
    max_iterations: int = 500,
    seed: int = 0,
) -> RansacResult:
    """Consensus homography fit that tolerates wrong correspondences.

    Samples minimal 4-pair subsets, keeps the hypothesis with the most
    inliers (ties broken by mean inlier error), then refits on the full
    inlier set. A minimal subset that cannot produce a model (collinear
    points, a singular fit) is skipped. Deterministic for a given seed.
    """
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    if inlier_threshold <= 0:
        raise UsageError("inlier threshold must be positive")
    rng = np.random.default_rng(seed)
    best_mask: np.ndarray | None = None
    best_count = 0
    best_error = np.inf
    for _ in range(max_iterations):
        idx = rng.choice(len(pairs), size=4, replace=False)
        try:
            candidate = fit_homography_dlt([pairs[i] for i in idx])
        except FitError:
            continue
        errors = reprojection_errors(candidate, pairs)
        mask = errors <= inlier_threshold
        count = int(mask.sum())
        mean_error = float(errors[mask].mean()) if count else np.inf
        if count > best_count or (count == best_count and mean_error < best_error):
            best_count = count
            best_error = mean_error
            best_mask = mask
    if best_mask is None or best_count < 4:
        raise FitError("no consensus model with at least 4 inliers")
    refit = fit_homography_dlt([p for p, keep in zip(pairs, best_mask) if keep])
    final_mask = reprojection_errors(refit, pairs) <= inlier_threshold
    return RansacResult(transform=refit, inlier_mask=final_mask)


@dataclass(frozen=True)
class ProjectionResult:
    """Projected detections plus the indices that failed to map."""

    detections: tuple[Detection, ...]
    dropped: tuple[int, ...]


def project(detections: Sequence[Detection], transform: PerspectiveTransform) -> ProjectionResult:
    """Map detection centers into the target frame.

    Category, confidence, and timestamps ride along unchanged. Points
    that land on the plane at infinity (homogeneous scale below
    W_EPSILON) are dropped and their input indices reported.
    """
    if not detections:
        return ProjectionResult(detections=(), dropped=())
    centers = np.array([d.center for d in detections], dtype=float)
    mapped, valid = transform.apply(centers)
    kept = []
    dropped = []
    for i, det in enumerate(detections):
        if valid[i]:
            kept.append(replace(det, center=(float(mapped[i, 0]), float(mapped[i, 1]))))
        else:
            dropped.append(i)
    return ProjectionResult(detections=tuple(kept), dropped=tuple(dropped))
