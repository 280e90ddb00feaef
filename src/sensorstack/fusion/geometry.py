"""Perspective mapping between camera frames and the shared top view."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import FitError, UsageError, checked_int, checked_real
from .types import Detection, PointPair

W_EPSILON = 1e-9


@dataclass(frozen=True)
class PerspectiveTransform:
    """A homography: a 3x3 matrix normalized to bottom-right entry 1."""

    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"homography must be a 3x3 matrix of numbers: {exc}") from None
        if m.shape != (3, 3):
            raise UsageError("homography must be a 3x3 matrix")
        if _singular(m):
            raise UsageError("homography must be non-singular")
        if abs(m[2, 2]) <= 1e-12:
            raise UsageError("homography bottom-right entry must be nonzero")
        m = m / m[2, 2]
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map (n, 2) points; returns (mapped, valid mask).

        Points whose homogeneous scale collapses below W_EPSILON are
        marked invalid and filled with NaN.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        ones = np.ones((len(pts), 1))
        h = np.hstack([pts, ones]) @ self.matrix.T
        w = h[:, 2]
        valid = np.abs(w) >= W_EPSILON
        out = np.full((len(pts), 2), np.nan)
        out[valid] = h[valid, :2] / w[valid, None]
        return out, valid


# the determinant's six terms: term k multiplies row r's entry in column _PERMUTATIONS[k, r]
_ROWS = np.arange(3)
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))


def _singular(m: np.ndarray) -> np.ndarray:
    """Whether (..., 3, 3) matrices are singular, whatever their scale.

    A determinant is a signed sum of six products of entries; rounding
    leaves a singular matrix's determinant near 1e-16 of those products'
    magnitudes. A matrix is singular when it holds a non-finite entry or
    its determinant is at most 1e-12 of that magnitude sum. Scaling the
    matrix, a row or a column (a change of units on either side) scales
    both alike. The plain determinant passed a rank-2 matrix with large
    entries and refused a sound one with small.
    """
    with np.errstate(invalid="ignore"):
        magnitude = np.abs(m)[..., _ROWS, _PERMUTATIONS].prod(axis=-1).sum(axis=-1)
        return ~(np.abs(np.linalg.det(m)) > 1e-12 * magnitude)


def _as_arrays(pairs: Sequence[PointPair]) -> tuple[np.ndarray, np.ndarray]:
    src = np.array([p.source for p in pairs], dtype=float)
    dst = np.array([p.target for p in pairs], dtype=float)
    return src, dst


def _normalizations(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-set similarity transforms to zero centroid, mean distance sqrt(2).

    ``points`` is (B, k, 2); returns the (B, 3, 3) transforms and a (B,)
    mask that is False where a set's points all coincide (that set gets
    the identity, so later stages stay finite).
    """
    centroid = points.mean(axis=1)
    dist = np.linalg.norm(points - centroid[:, None, :], axis=2).mean(axis=1)
    ok = ~(dist <= 1e-12)
    s = np.sqrt(2.0) / np.where(ok, dist, np.sqrt(2.0))
    centroid[~ok] = 0.0
    t = np.zeros((len(points), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, 0, 2] = -s * centroid[:, 0]
    t[:, 1, 2] = -s * centroid[:, 1]
    t[:, 2, 2] = 1.0
    return t, ok


def _apply_h(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Map (B, k, 2) points through their own (B, 3, 3) matrices."""
    ones = np.ones(pts.shape[:-1] + (1,))
    mapped = np.concatenate([pts, ones], axis=-1) @ h.transpose(0, 2, 1)
    return mapped[..., :2] / mapped[..., 2:3]


# FitError messages of the fits' failure codes 1-4, in the order the rules apply
_DLT_FAILURES = (
    "",
    "point pairs are degenerate: all points coincide",
    "point pairs are degenerate: they do not determine a homography",
    "fitted homography is degenerate: vanishing scale entry",
    "fitted homography is degenerate: homography must be non-singular",
)


def _normalized(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, k, 2) source and target sets in Hartley coordinates, in one batch.

    Returns the (2B, k, 2) normalised points and their (2B, 3, 3)
    normalisations, the B source sets first, and a (B,) mask that is
    False where a set's source or target points all coincide.
    """
    points = np.concatenate([src, dst])
    t, ok = _normalizations(points)
    b = len(src)
    return _apply_h(t, points), t, ok[:b] & ok[b:]


def _dlt_systems(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (B, 2k, 9) DLT systems of (B, k, 2) point sets in Hartley coordinates.

    Also returns both sides' (B, 3, 3) normalisations and the mask of
    `_normalized`.
    """
    b, k = src.shape[:2]
    points, t, distinct = _normalized(src, dst)
    sn, dn = points[:b], points[b:]

    # two rows per pair: [-x, -y, -1, 0, 0, 0, ux, uy, u] and [0, 0, 0, -x, -y, -1, vx, vy, v]
    a = np.zeros((b, k, 2, 9))
    for row in (0, 1):
        target = dn[..., row]
        a[:, :, row, 3 * row : 3 * row + 2] = -sn
        a[:, :, row, 3 * row + 2] = -1.0
        a[:, :, row, 6:8] = target[..., None] * sn
        a[:, :, row, 8] = target
    return a.reshape(b, 2 * k, 9), t[:b], t[b:], distinct


def _homographies(
    null: np.ndarray, t_src: np.ndarray, t_dst: np.ndarray, distinct: np.ndarray, deficient: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Un-normalise (B, 9) unit-norm homographies in Hartley coordinates
    (the DLT systems' null vectors, or `_fit_minimal`'s closed forms)
    into matrices.

    Returns (B, 3, 3) matrices scaled to bottom-right entry 1 and a (B,)
    failure code: 0 where the fit succeeded, else the first rule the set
    breaks (its matrix is NaN): 1, not ``distinct`` (coincident source or
    target points); 2, ``deficient`` (the set determines no homography:
    a DLT system of rank below 8, or three collinear points of a minimal
    set); 3, ``|h[2,2]| <= 1e-12``; 4, a `_singular` matrix.
    """
    h = np.linalg.inv(t_dst) @ null.reshape(-1, 3, 3) @ t_src
    scale = h[:, 2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = h / scale[:, None, None]
        singular = _singular(h)
        # a PerspectiveTransform divides by its [2, 2] entry once more: score what it would hold
        h = h / h[:, 2:, 2:]
    code = np.select(
        [
            ~distinct,
            deficient,
            np.abs(scale) <= 1e-12,
            singular,
        ],
        [1, 2, 3, 4],
    )
    return np.where(code[:, None, None] == 0, h, np.nan), code


def _fit_dlt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized DLT on a batch of (B, k, 2) point sets, one SVD call for all.

    The least-squares solution is the right singular vector of the
    smallest singular value; a set is rank deficient where its eighth
    singular value ``s[7] <= 1e-9 s[0]`` (four pairs give only eight).
    Returns what `_homographies` does.
    """
    a, t_src, t_dst, distinct = _dlt_systems(src, dst)
    # with 2k >= 9 rows the reduced SVD already holds all of vt and skips the (2k, 2k) U
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[1] < 9)
    return _homographies(vt[:, -1], t_src, t_dst, distinct, s[:, 7] <= 1e-9 * s[:, 0])


# the triple of a set's four points that leaves out point j, for j = 0..3
_TRIPLES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _bases(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The projective bases of (B, 4, 2) point sets.

    With p_j = (x_j, y_j, 1), each set's basis matrix is [p_1 p_2 p_3]
    with column i scaled by l_i = (adj([p_1 p_2 p_3]) p_4)_i: it sends
    the canonical frame e_1, e_2, e_3, (1, 1, 1) onto the four points,
    up to scale (Hartley & Zisserman, Multiple View Geometry, 4.1).
    Returns the (B, 3, 3) bases, their (B, 3, 3) adjugates and a (B,)
    mask that is True where three of the four points are collinear: the
    determinant of one triple is at most 1e-9 of the sum of its six
    products' magnitudes, a test that scaling either axis leaves
    unchanged, as `_singular`'s does. l_i is the determinant of the
    triple that leaves out p_i, and det [p_1 p_2 p_3] that of the last.
    """
    x, y = points[..., 0], points[..., 1]
    # row i of adj([p_1 p_2 p_3]) is p_a x p_b, for (a, b) = (2, 3), (3, 1), (1, 2)
    xa, ya, xb, yb = x[:, [1, 2, 0]], y[:, [1, 2, 0]], x[:, [2, 0, 1]], y[:, [2, 0, 1]]
    adj = np.stack([ya - yb, xb - xa, xa * yb - ya * xb], axis=2)
    scale = adj[..., 0] * x[:, 3:] + adj[..., 1] * y[:, 3:] + adj[..., 2]
    det = adj[:, 0, 0] * x[:, 0] + adj[:, 0, 1] * y[:, 0] + adj[:, 0, 2]
    # a triple's six products are |x_a y_b| over its ordered pairs a != b
    ax, ay = np.abs(x)[:, _TRIPLES], np.abs(y)[:, _TRIPLES]
    magnitude = ax.sum(axis=2) * ay.sum(axis=2) - (ax * ay).sum(axis=2)
    dets = np.abs(np.concatenate([scale, det[:, None]], axis=1))
    collinear = ~(dets > 1e-9 * magnitude).all(axis=1)

    basis = np.empty((len(points), 3, 3))
    basis[:, 0] = x[:, :3] * scale
    basis[:, 1] = y[:, :3] * scale
    basis[:, 2] = scale
    # adj(M diag(l)) = diag(l_2 l_3, l_1 l_3, l_1 l_2) adj(M)
    cofactors = scale[:, [1, 0, 0]] * scale[:, [2, 2, 1]]
    return basis, adj * cofactors[..., None], collinear


def _fit_minimal(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact homographies of (B, 4, 2) minimal point sets, in closed form.

    On each side's Hartley coordinates `_bases` gives the basis B that
    sends the canonical frame onto the four points; B_dst adj(B_src)
    sends each source onto its target, up to scale, and is formed entry
    by entry over the whole block, with no solver call. A set with three
    collinear points on either side determines no homography and gets
    code 2. Returns what `_homographies` does, and also gives code 4 to
    a model that does not carry each source to within 1e-8 of its target
    in Hartley units.
    """
    b = len(src)
    points, t, distinct = _normalized(src, dst)
    # coincident points keep their raw coordinates, which may overflow here
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        basis, adj, collinear = _bases(points)
        basis_dst, adj_src = basis[b:], adj[:b]
        h = basis_dst[:, :, 0, None] * adj_src[:, None, 0]
        h += basis_dst[:, :, 1, None] * adj_src[:, None, 1]
        h += basis_dst[:, :, 2, None] * adj_src[:, None, 2]
        # unit norm, as a null vector of the system is, so that code 3's bound reads the same
        h /= np.sqrt(np.square(h).sum(axis=(1, 2)))[:, None, None]
        t_src, t_dst = t[:b], t[b:]
        matrices, code = _homographies(h.reshape(b, 9), t_src, t_dst, distinct, collinear[:b] | collinear[b:])
        miss = np.abs(_apply_h(matrices, src) - dst).max(axis=(1, 2)) * t_dst[:, 0, 0]
    astray = (code == 0) & ~(miss <= 1e-8)
    matrices[astray] = np.nan
    code[astray] = 4
    return matrices, code


def _fit_one(src: np.ndarray, dst: np.ndarray) -> PerspectiveTransform:
    matrices, code = _fit_dlt(src[None], dst[None])
    if code[0]:
        raise FitError(_DLT_FAILURES[code[0]])
    return PerspectiveTransform(matrices[0])


def fit_homography_dlt(pairs: Sequence[PointPair]) -> PerspectiveTransform:
    """Direct linear transform with Hartley coordinate normalization.

    Each pair contributes two rows to the homogeneous system; the
    solution is the right singular vector of the smallest singular
    value. Normalizing both point sets first keeps the system well
    conditioned at pixel scales. This is the batched `_fit_dlt` run on
    one point set, as ``ransac_fit``'s final refit is.
    """
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    return _fit_one(*_as_arrays(pairs))


def _errors(matrices: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(B, n) reprojection errors of (B, 3, 3) homographies, inf where a
    mapped point's homogeneous scale falls below W_EPSILON.

    One (3B, 3) @ (3, n) product maps every pair through every matrix;
    its three (B, n) planes are the mapped points' homogeneous
    coordinates u, v and w, so the result comes out C-contiguous.
    """
    b = len(matrices)
    u, v, w = (matrices.transpose(1, 0, 2).reshape(3 * b, 3) @ np.vstack([src.T, np.ones(len(src))])).reshape(3, b, len(src))
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = u / w - dst[:, 0]
        dy = v / w - dst[:, 1]
    return np.where(np.abs(w) >= W_EPSILON, np.sqrt(dx * dx + dy * dy), np.inf)


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


# hypotheses in a block times pairs scored; bounds the (3, block, pairs) reprojection
_BLOCK_CELLS = 1 << 16


def _draw_samples(rng: np.random.Generator, draws: int, n: int) -> np.ndarray:
    """(draws, 4) minimal samples of distinct pair indices, in one call:
    each row's indices of its 4 smallest of n uniform draws, smallest first."""
    return np.argsort(rng.random((draws, n)), axis=1)[:, :4]


def ransac_fit(
    pairs: Sequence[PointPair],
    inlier_threshold: float = 3.0,
    max_iterations: int = 500,
    seed: int = 0,
) -> RansacResult:
    """Consensus homography fit that tolerates wrong correspondences.

    Samples ``max_iterations`` minimal 4-pair subsets, keeps the
    hypothesis with the most inliers, then refits on its inlier set. A
    minimal subset that cannot produce a model (coincident or collinear
    points, a singular fit) is skipped. Deterministic for a given seed.

    Selection: most inliers wins; among equal counts, the lowest mean
    inlier error; if that ties too, the first hypothesis drawn.

    Hypotheses are drawn, fitted and scored a block at a time: one
    ``rng.random`` call and one argsort draw a block's samples, closed
    forms over the whole block solve its minimal sets (`_fit_minimal`),
    and one matrix product scores them (`_errors`), with block x n at most
    ``_BLOCK_CELLS`` so memory stays bounded whatever ``max_iterations``
    and the survey size. The cost is O(max_iterations * n log n)
    arithmetic in ``max_iterations * n / _BLOCK_CELLS + 1`` rounds of
    array calls.
    """
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    threshold = checked_real(inlier_threshold, "inlier threshold", UsageError)
    if not 0 < threshold < math.inf:
        raise UsageError(f"inlier threshold must be finite and positive, not {inlier_threshold!r}")
    if checked_int(max_iterations, "max_iterations", UsageError) < 1:
        raise UsageError(f"max_iterations must be at least 1, not {max_iterations!r}")
    if checked_int(seed, "seed", UsageError) < 0:
        raise UsageError(f"seed must be at least 0, not {seed!r}")
    src, dst = _as_arrays(pairs)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_CELLS // len(pairs))
    best_mask: np.ndarray | None = None
    best_count = 0
    best_error = np.inf
    for b0 in range(0, max_iterations, block):
        idx = _draw_samples(rng, min(block, max_iterations - b0), len(pairs))
        matrices, code = _fit_minimal(src[idx], dst[idx])
        errors = _errors(matrices[code == 0], src, dst)
        mask = errors <= threshold
        counts = mask.sum(axis=1)
        count = int(counts.max(initial=0))
        if count == 0 or count < best_count:
            continue
        # only hypotheses on the top count can win, so only they need a mean error
        top = np.flatnonzero(counts == count)
        mean_errors = np.where(mask[top], errors[top], 0.0).sum(axis=1) / count
        first = int(np.argmin(mean_errors))
        if count > best_count or mean_errors[first] < best_error:
            best_count, best_error, best_mask = count, float(mean_errors[first]), mask[top[first]]
    if best_mask is None or best_count < 4:
        raise FitError("no consensus model with at least 4 inliers")
    refit = _fit_one(src[best_mask], dst[best_mask])
    final_mask = _errors(refit.matrix[None], src, dst)[0] <= threshold
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
