"""Independent reference implementations used only by the test suite.

Each oracle favors obvious-but-slow formulations (exhaustive search,
closed forms, full sorts, one window or one frame at a time) so that
agreement with the production code is meaningful. Nothing here imports
the algorithms under test: besides data types, the only package code
used is what the faster paths keep unchanged (`buffer_size`,
`correct_timestamp`, `suppress_overlaps`, `effective_urgency`,
`prf_scores`, the SVD fit `_fit_dlt` that ``ransac_fit_reference``
batches with, the DLT system builder `_dlt_systems`, `_homographies`
and `_apply_h` that the batched QR solve ``fit_minimal_qr`` is made
of, and `dba`'s batched tables `_sqeuclidean_tables` and
`_aligned_mean` that ``dba_every_pass`` runs). `suppress_overlaps`, like
`normalized_dtw_score` and `butterworth_lowpass` that the tests call,
stays public in the package only as such a definition
(``UNREACHED_BY_DESIGN`` in test_exports.py). The sync oracles take one-channel series, as
`TimeSeries` holds. The per-window detector and the per-epoch
alignment loop are the straightforward versions the batched
production code replaced, the event-matching loop is the one
`coarse_align` carried before it called the shared greedy matcher,
the sorted dispatcher walk is the scheduler
cycle before per-group queues, the scalar arrival loop is the
simulator's arrival generator before it drew each stage's gaps in
array calls, and the pairwise merge loop, the
per-threshold sweep and the matcher over a distance callable are the
fusion code before the merge graph and the array matcher, and the
RANSAC loop draws, fits and scores one hypothesis at a time, its
minimal fit the closed form written out entry by entry, where
`ransac_fit` does a block at a time, while ``ransac_fit_reference`` is
`ransac_fit` before it drew a block in one call and solved minimal sets
by QR (one ``rng.choice`` per sample, an SVD per fit), kept as the
quality reference for that change; ``fit_minimal_qr`` is the minimal
solve before its closed form and ``errors_per_matrix`` the scorer
before its one matrix product, and the per-sample clock
correction and shift and the per-window entropy histograms
(`shannon_entropy`, one window at a time) are the sync code before the
columnar stream and the cumulative bin counts, the Kalman step that
builds its result through the fully checked ``ClockModel`` constructor
is the filter before its internal constructor and before it dropped
its products with the measurement row, scipy's ``butter`` and
``filtfilt`` are the fine-tune filter before it restated them in
numpy, and the scan-and-sort
capture query is the capture store before it was kept sorted, and
``dba_rows`` restates `dba` over the one-table row kernel
(``dtw_table_rows``), while ``dba_every_pass`` is `dba` before it
stopped at a fixed point; all are kept here as references.
``dtw_cost_exact`` is ``dtw_table_rows``' recurrence in exact rational
arithmetic, for bounds that a float table's rounding would hide.
``CaptureRouterOracle`` is ``POST``/``GET /capture`` as they were before
the store kept plain rows: the router builds a ``SensorSample`` per wire
sample, ingest stamps a frozen ``CaptureRecord`` per sample into a
sorted store, and a query answers ``CaptureRecord.to_record`` per hit;
every other route is ``ServiceRouter``'s own. ``format_timestamp_strftime``
is ``format_timestamp`` before it formatted each calendar second once,
and ``format_ids_fstring`` is the capture-id formatter before it laid a
batch's hex digits out in one array ``take``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from operator import attrgetter

import numpy as np
from hypothesis import settings
from scipy import signal

from sensorstack.edgesched import Dispatch, Task, effective_urgency
from sensorstack.errors import AuthError, DomainError, FitError, NotFoundError, TopologyError, UsageError, ValidationError
from sensorstack.eventsync import EventDetection, MatchedPair, TimeSeries, suppress_overlaps
from sensorstack.eventsync.dtw import _aligned_mean, _sqeuclidean_tables
from sensorstack.eventsync.features import ENTROPY_BINS
from sensorstack.fusion import CATEGORIES, FusedDetection, PerspectiveTransform, RansacResult, SweepRow
from sensorstack.fusion.geometry import W_EPSILON, _apply_h, _dlt_systems, _fit_dlt, _homographies
from sensorstack.scoring import prf_scores
from sensorstack.services import ServiceRouter, format_timestamp
from sensorstack.timebase import (
    MAX_DRIFT_RATE,
    NS_PER_SEC,
    AlignedFrame,
    ClockModel,
    SampleStream,
    SensorSample,
    buffer_size,
    correct_timestamp,
)


def budget(examples: int) -> int:
    """An oracle-equivalence test's Hypothesis example budget.

    ``examples`` under the default profile; scaled with the active
    profile's ``max_examples``, so the ``ci`` profile registered in
    conftest.py searches ten times as hard.
    """
    return examples * settings.default.max_examples // 100


def ols_line_fit(times_s, values):
    """Closed-form least squares fit value = intercept + slope * t."""
    t = np.asarray(times_s, dtype=float)
    z = np.asarray(values, dtype=float)
    t_mean = t.mean()
    z_mean = z.mean()
    slope = float(((t - t_mean) * (z - z_mean)).sum() / ((t - t_mean) ** 2).sum())
    intercept = float(z_mean - slope * t_mean)
    return intercept, slope


def full_sort_pairing(stream_ts, frame_times, staleness_fn):
    """Offline frame pairing: newest sample at or before each frame time.

    ``staleness_fn(index)`` gives the allowed age for the sample at that
    index. Returns one sample index (or None) per frame time.
    """
    ts = sorted(stream_ts)
    out = []
    for t in frame_times:
        candidates = [i for i, s in enumerate(ts) if s <= t]
        if not candidates:
            out.append(None)
            continue
        idx = max(candidates, key=lambda i: ts[i])
        out.append(idx if t - ts[idx] <= staleness_fn(idx) else None)
    return out


def dtw_enumerate(s, t, point_cost):
    """Exhaustive DTW: minimum cost over all monotone warp paths.

    Only feasible for very short sequences; explores every path from
    (0, 0) to (n-1, m-1) using steps (1,0), (0,1), (1,1).
    """
    n, m = len(s), len(t)
    best = [math.inf]

    def walk(i, j, acc):
        acc = acc + point_cost(s[i], t[j])
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def shannon_entropy_reference(values, bins=16):
    """Textbook histogram entropy in bits, zero-count bins skipped."""
    v = np.asarray(values, dtype=float).ravel()
    lo, hi = v.min(), v.max()
    if lo == hi:
        return 0.0
    edges = [lo + (hi - lo) * k / bins for k in range(bins + 1)]
    counts = [0] * bins
    for x in v:
        for b in range(bins):
            if edges[b] <= x < edges[b + 1] or (b == bins - 1 and x == hi):
                counts[b] += 1
                break
    total = len(v)
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent -= p * math.log2(p)
    return ent


def dtw_table_rows(d):
    """Cumulative DTW cost of one (n, m) table, one row update at a time."""
    n, m = d.shape
    out = np.empty((n, m))
    prev = np.cumsum(d[0])
    out[0] = prev
    shifted = np.empty(m)
    for i in range(1, n):
        cs = np.cumsum(d[i])
        m_arr = np.empty(m)
        m_arr[0] = prev[0]
        np.minimum(prev[1:], prev[:-1], out=m_arr[1:])
        shifted[0] = 0.0
        shifted[1:] = cs[:-1]
        prev = cs + np.minimum.accumulate(m_arr - shifted)
        out[i] = prev
    return out


def dtw_cost_exact(s, t) -> Fraction:
    """DTW cost of two sequences of floats under the |s - t| point cost, with no rounding.

    The recurrence of ``dtw_table_rows``, every double taken as the
    Fraction it equals. A float table rounds each cell to about
    n * m * eps of the table's largest cost, which can exceed a tiny
    cost beside large ones; this one is exact.
    """
    s, t = [Fraction(v) for v in s], [Fraction(v) for v in t]
    prev = None
    for a in s:
        row = []
        for j, b in enumerate(t):
            if prev is None:
                best = row[-1] if j else 0
            elif j == 0:
                best = prev[0]
            else:
                best = min(prev[j - 1], prev[j], row[-1])
            row.append(abs(a - b) + best)
        prev = row
    return prev[-1]


def dtw_backtrack(table):
    """One optimal warp path, preferring diagonal, then up, then left on ties."""
    i, j = table.shape[0] - 1, table.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = table[i - 1, j - 1], table[i - 1, j], table[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return path[::-1]


def dba_rows(sequences, iterations):
    """``dba``'s barycenter and objective trace, every DTW table built by ``dtw_table_rows``."""
    seqs = [np.asarray(s, dtype=float) for s in sequences]

    def table(a, b):
        return dtw_table_rows((a[:, None] - b[None, :]) ** 2)

    def objective(barycenter):
        return sum(float(table(barycenter, s)[-1, -1]) for s in seqs)

    totals = [sum(float(table(a, b)[-1, -1]) for b in seqs) for a in seqs]
    barycenter = seqs[int(np.argmin(totals))].copy()
    costs = [objective(barycenter)]
    for _ in range(iterations):
        sums = np.zeros_like(barycenter)
        counts = np.zeros(len(barycenter))
        for seq in seqs:
            for i, j in dtw_backtrack(table(barycenter, seq)):
                sums[i] += seq[j]
                counts[i] += 1
        barycenter = sums / counts
        costs.append(objective(barycenter))
    return barycenter, tuple(costs)


def dba_every_pass(sequences, iterations):
    """`dba` before it stopped at a fixed point: the medoid in one batch
    of its k * k pairs, then all ``iterations`` passes, each recording
    its barycenter's objective and aligning every sequence to it, and
    the last barycenter's objective. Returns the barycenter and costs."""
    seqs = [np.asarray(s, dtype=float) for s in sequences]
    k = len(seqs)
    pair_costs = _sqeuclidean_tables([a for a in seqs for _ in seqs], seqs * k)[1]
    barycenter = seqs[int(np.argmin([sum(pair_costs[i : i + k]) for i in range(0, k * k, k)]))].copy()
    costs = []
    for _ in range(iterations):
        table, ends = _sqeuclidean_tables([barycenter] * k, seqs)
        costs.append(sum(ends))
        barycenter = _aligned_mean(table, seqs)
    costs.append(sum(_sqeuclidean_tables([barycenter] * k, seqs)[1]))
    return barycenter, tuple(costs)


def detect_gesture_per_window(z_series, template, window_ns, stride_ns, stream_id=""):
    """Gesture spotting with one full DTW and backtrack per window.

    Same contract as ``detect_gesture_video``: a window starts every
    stride, holds the samples in [start, start + window), is skipped
    below four samples, and is scaled, scored and bounded on its own.
    """
    ts = z_series.timestamps
    period = z_series.median_period_ns()
    if int(ts[-1]) - int(ts[0]) + period < window_ns:
        raise UsageError("series is shorter than the detection window")
    mu = float(template.values.mean())
    sd = float(template.values.std())
    template_scaled = (template.values - mu) / sd
    last_j = len(template_scaled) - 1
    hits = []
    t = int(ts[0])
    while t <= int(ts[-1]) - window_ns + period:
        lo = int(np.searchsorted(ts, t, side="left"))
        hi = int(np.searchsorted(ts, t + window_ns, side="left"))
        t += stride_ns
        if hi - lo < 4:
            continue
        scaled = (z_series.values[lo:hi] - mu) / sd
        table = dtw_table_rows(np.abs(scaled[:, None] - template_scaled[None, :]))
        score = float(table[-1, -1]) / len(template_scaled)
        if score < template.dtw_threshold:
            path = dtw_backtrack(table)
            onset = max(i for i, j in path if j == 0)
            end = min(i for i, j in path if j == last_j)
            hits.append(EventDetection(stream_id, int(ts[lo + onset]), int(ts[lo + end]), score))
    return suppress_overlaps(hits)


def align_per_epoch(streams, policy, epoch_ns):
    """Frame alignment one epoch and one stream at a time.

    Each slot searches for the newest sample at or before the frame
    time and recomputes that sample's buffer from the intervals leading
    up to it.
    """
    per_stream = {s.key: (s.corrected_timestamps(), s) for s in streams}
    t_min = min(int(ts[0]) for ts, _ in per_stream.values())
    t_max = max(int(ts[-1]) for ts, _ in per_stream.values())
    start = -(-t_min // epoch_ns) * epoch_ns
    frames = []
    for t in range(start, t_max + 1, epoch_ns):
        slots = {}
        for key, (ts, stream) in per_stream.items():
            idx = int(np.searchsorted(ts, t, side="right")) - 1
            if idx < 0:
                slots[key] = None
                continue
            intervals = np.diff(ts[max(0, idx - policy.window) : idx + 1])
            limit = buffer_size(policy, intervals.tolist())
            slots[key] = stream.samples[idx] if t - int(ts[idx]) <= limit else None
        frames.append(AlignedFrame(time=t, slots=slots))
    return frames


def coarse_align_loop(events_a, events_b, tolerance_ns):
    """Greedy start matching with its own candidate loop.

    Every pair within the tolerance is a candidate, taken in
    (gap, index in a, index in b) order while both events are free;
    the accepted pairs are then stably sorted by the first event's
    start.
    """
    candidates = []
    for i, ea in enumerate(events_a):
        for j, eb in enumerate(events_b):
            gap = abs(ea.start - eb.start)
            if gap <= tolerance_ns:
                candidates.append((gap, i, j))
    candidates.sort()
    used_a, used_b, pairs = set(), set(), []
    for _, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append(MatchedPair(events_a[i], events_b[j]))
    pairs.sort(key=lambda p: p.a.start)
    return tuple(pairs)


def greedy_match_callable(predicted, truth, max_distance, distance):
    """One-to-one nearest matching over every pair a distance callable scores.

    Every pair within ``max_distance`` is a candidate, taken in
    (distance, predicted index, truth index) order while both sides are
    free; returns the sorted (predicted index, truth index) pairs.
    """
    candidates = []
    for i, p in enumerate(predicted):
        for j, t in enumerate(truth):
            d = distance(p, t)
            if d <= max_distance:
                candidates.append((d, i, j))
    candidates.sort()
    used_p, used_t, pairs = set(), set(), []
    for _, i, j in candidates:
        if i in used_p or j in used_t:
            continue
        used_p.add(i)
        used_t.add(j)
        pairs.append((i, j))
    pairs.sort()
    return pairs


def _center_distance(a, b):
    return float(np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]))


def deduplicate_pairwise(detections, threshold):
    """Single-linkage merging that tests every pair of detections.

    Pairs of one category from different cameras whose ``np.hypot``
    center distance is below the threshold are joined in a union-find;
    each group, members in index order, is merged into its
    confidence-weighted center, and the groups are stably sorted by
    center, then category.
    """
    dets = list(detections)
    parent = list(range(len(dets)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(dets)):
        for j in range(i + 1, len(dets)):
            a, b = dets[i], dets[j]
            if a.category != b.category or a.camera_id == b.camera_id:
                continue
            if float(np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])) < threshold:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for i in range(len(dets)):
        groups.setdefault(find(i), []).append(dets[i])
    fused = []
    for group in groups.values():
        weights = np.array([d.confidence for d in group])
        if weights.sum() <= 0:
            weights = np.ones(len(group))
        weights = weights / weights.sum()
        merged = weights @ np.array([d.center for d in group])
        fused.append(
            FusedDetection(
                category=group[0].category,
                center=(float(merged[0]), float(merged[1])),
                confidence=max(d.confidence for d in group),
                cameras=tuple(sorted({d.camera_id for d in group})),
                threshold=float(threshold),
                merged_count=len(group),
            )
        )
    fused.sort(key=lambda f: (f.center[0], f.center[1], f.category))
    return tuple(fused)


def evaluate_detections_pairwise(fused, ground_truth, match_radius):
    """Per-category scores from the pairwise matcher on center distances."""
    scores = {}
    for category in CATEGORIES:
        preds = [f for f in fused if f.category == category]
        truth = [t for t in ground_truth if t.category == category]
        if not preds and not truth:
            continue
        tp = len(greedy_match_callable(preds, truth, match_radius, _center_distance))
        scores[category] = prf_scores(tp, len(preds) - tp, len(truth) - tp)
    return scores


def threshold_sweep_per_threshold(detections, ground_truth, thresholds, match_radius):
    """Merge and score from scratch at each threshold, in the given order."""
    rows = []
    for threshold in thresholds:
        fused = deduplicate_pairwise(detections, threshold)
        for category, score in evaluate_detections_pairwise(fused, ground_truth, match_radius).items():
            rows.append(SweepRow(float(threshold), category, score.precision, score.recall))
    return tuple(rows)


def _normalization(points):
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    if dist <= 1e-12:
        raise FitError("point pairs are degenerate: all points coincide")
    s = np.sqrt(2.0) / dist
    return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])


def _map_points(h, pts):
    mapped = np.hstack([pts, np.ones((len(pts), 1))]) @ h.T
    return mapped[:, :2] / mapped[:, 2:3]


def _point_arrays(pairs):
    return np.array([p.source for p in pairs], dtype=float), np.array([p.target for p in pairs], dtype=float)


def _system_rows(src, dst):
    """The DLT system of one point set in Hartley coordinates, built row
    by row, with the two normalisations."""
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    rows = []
    for (x, y), (u, v) in zip(_map_points(t_src, src), _map_points(t_dst, dst)):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    return np.array(rows), t_src, t_dst


def _transform_from_null(null, t_src, t_dst):
    h = np.linalg.inv(t_dst) @ null.reshape(3, 3) @ t_src
    if abs(h[2, 2]) <= 1e-12:
        raise FitError("fitted homography is degenerate: vanishing scale entry")
    try:
        return PerspectiveTransform(h / h[2, 2])
    except UsageError as exc:
        raise FitError(f"fitted homography is degenerate: {exc}") from exc


def homography_dlt_rows(pairs):
    """Normalized DLT on one point set, its system built row by row."""
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    a, t_src, t_dst = _system_rows(*_point_arrays(pairs))
    _, s, vt = np.linalg.svd(a)
    if s[7] <= 1e-9 * s[0]:
        raise FitError("point pairs are degenerate: they do not determine a homography")
    return _transform_from_null(vt[-1], t_src, t_dst)


def _triple_collinear(points):
    """Whether three of four points are collinear: the determinant of one
    triple's homogeneous 3 x 3 matrix is at most 1e-9 of the sum of its
    six products' magnitudes."""
    for triple in itertools.combinations(points, 3):
        m = np.vstack([np.array(triple).T, np.ones(3)])
        magnitude = sum(abs(m[0, a] * m[1, b] * m[2, c]) for a, b, c in itertools.permutations(range(3)))
        if not abs(np.linalg.det(m)) > 1e-9 * magnitude:
            return True
    return False


def _basis(points):
    """The basis matrix of four points and its adjugate, entry by entry:
    column i of [p_1 p_2 p_3] scaled by l_i = (adj([p_1 p_2 p_3]) p_4)_i."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = points.tolist()
    xs, ys = (x0, x1, x2), (y0, y1, y2)
    adj = [[ys[a] - ys[b], xs[b] - xs[a], xs[a] * ys[b] - ys[a] * xs[b]] for a, b in ((1, 2), (2, 0), (0, 1))]
    scale = [row[0] * x3 + row[1] * y3 + row[2] for row in adj]
    basis = [[xs[i] * scale[i] for i in range(3)], [ys[i] * scale[i] for i in range(3)], scale]
    cofactors = (scale[1] * scale[2], scale[0] * scale[2], scale[0] * scale[1])
    return basis, [[entry * cofactors[i] for entry in adj[i]] for i in range(3)]


def homography_minimal_closed_form(pairs):
    """Exact homography of four pairs in closed form, one entry at a time.

    In Hartley coordinates B_dst adj(B_src), with B a side's basis
    (`_basis`), carries each source onto its target; scaled to unit norm
    and un-normalised it is the model. Four pairs with three collinear
    points on either side are refused as degenerate, and a model that
    does not carry each source to within 1e-8 of its target in Hartley
    units as singular.
    """
    src, dst = _point_arrays(pairs)
    t_src, t_dst = _normalization(src), _normalization(dst)
    sn, dn = _map_points(t_src, src), _map_points(t_dst, dst)
    if _triple_collinear(sn) or _triple_collinear(dn):
        raise FitError("point pairs are degenerate: they do not determine a homography")
    basis, _ = _basis(dn)
    _, adj = _basis(sn)
    h = np.array([[basis[r][0] * adj[0][c] + basis[r][1] * adj[1][c] + basis[r][2] * adj[2][c] for c in range(3)] for r in range(3)])
    transform = _transform_from_null(h / np.sqrt(np.square(h).sum()), t_src, t_dst)
    if not np.abs(_map_points(transform.matrix, src) - dst).max() * t_dst[0, 0] <= 1e-8:
        raise FitError("fitted homography is degenerate: homography must be non-singular")
    return transform


def fit_minimal_qr(src, dst):
    """`_fit_minimal` before its closed form: every minimal set's 8 x 9
    DLT system solved by one batched complete QR of its transpose, whose
    last column of Q is the exact null vector. A set is rank deficient
    where R's diagonal holds an entry at most 1e-9 times its largest.
    Returns what `_fit_minimal` does, with the same mapping check."""
    a, t_src, t_dst, distinct = _dlt_systems(src, dst)
    q, r = np.linalg.qr(a.transpose(0, 2, 1), mode="complete")
    d = np.abs(np.diagonal(r, axis1=1, axis2=2))
    matrices, code = _homographies(q[:, :, -1], t_src, t_dst, distinct, d.min(axis=1) <= 1e-9 * d.max(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = np.abs(_apply_h(matrices, src) - dst).max(axis=(1, 2)) * t_dst[:, 0, 0]
    astray = (code == 0) & ~(miss <= 1e-8)
    matrices[astray] = np.nan
    code[astray] = 4
    return matrices, code


def errors_per_matrix(matrices, src, dst):
    """`_errors` before its one matrix product: a (B, n, 3) batch of B
    (n, 3) @ (3, 3) products, its points divided out and measured by
    `np.linalg.norm`, inf where the scale falls below W_EPSILON."""
    h = np.hstack([src, np.ones((len(src), 1))]) @ matrices.transpose(0, 2, 1)
    w = h[..., 2]
    valid = np.abs(w) >= W_EPSILON
    with np.errstate(divide="ignore", invalid="ignore"):
        mapped = h[..., :2] / w[..., None]
    return np.where(valid, np.linalg.norm(mapped - dst, axis=-1), np.inf)


def _reprojection_errors(transform, pairs):
    mapped, valid = transform.apply(np.array([p.source for p in pairs], dtype=float))
    dst = np.array([p.target for p in pairs], dtype=float)
    errors = np.full(len(pairs), np.inf)
    errors[valid] = np.linalg.norm(mapped[valid] - dst[valid], axis=1)
    return errors


def ransac_fit_loop(pairs, inlier_threshold, max_iterations, seed):
    """RANSAC that draws, fits and scores one minimal sample at a time.

    A sample is the indices of the 4 smallest of ``len(pairs)`` uniform
    draws, fitted by `homography_minimal_closed_form`; a sample whose fit raises
    FitError is skipped. A hypothesis replaces the best so far only with
    more inliers, or as many with a lower mean inlier error (a masked
    sum over all pairs, divided by the count). The winner's inliers are
    refitted.
    """
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    best_error = np.inf
    for _ in range(max_iterations):
        idx = np.argsort(rng.random(len(pairs)))[:4]
        try:
            candidate = homography_minimal_closed_form([pairs[i] for i in idx])
        except FitError:
            continue
        errors = _reprojection_errors(candidate, pairs)
        mask = errors <= inlier_threshold
        count = int(mask.sum())
        mean_error = float(np.where(mask, errors, 0.0).sum() / count) if count else np.inf
        if count > best_count or (count == best_count and mean_error < best_error):
            best_count = count
            best_error = mean_error
            best_mask = mask
    if best_mask is None or best_count < 4:
        raise FitError("no consensus model with at least 4 inliers")
    refit = homography_dlt_rows([p for p, keep in zip(pairs, best_mask) if keep])
    return RansacResult(transform=refit, inlier_mask=_reprojection_errors(refit, pairs) <= inlier_threshold)


def ransac_fit_reference(pairs, inlier_threshold, max_iterations, seed):
    """RANSAC as `ransac_fit` was before it drew a block's samples in one
    call and solved them by QR: one ``rng.choice`` per sample, all samples
    fitted by one SVD call (`_fit_dlt`) and scored by `errors_per_matrix` in one
    block, the top count's mean inlier errors taken one by one. The
    quality reference for the sampler and solver that replaced these.
    """
    if len(pairs) < 4:
        raise FitError("homography needs at least 4 point pairs")
    src, dst = _point_arrays(pairs)
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(len(pairs), size=4, replace=False) for _ in range(max_iterations)])
    matrices, code = _fit_dlt(src[idx], dst[idx])
    errors = errors_per_matrix(matrices[code == 0], src, dst)
    mask = errors <= inlier_threshold
    counts = mask.sum(axis=1)
    if counts.max(initial=0) < 4:
        raise FitError("no consensus model with at least 4 inliers")
    _, first = min((float(errors[c][mask[c]].mean()), c) for c in np.flatnonzero(counts == counts.max()))
    refit = homography_dlt_rows([p for p, keep in zip(pairs, mask[first]) if keep])
    return RansacResult(transform=refit, inlier_mask=_reprojection_errors(refit, pairs) <= inlier_threshold)


def _least_utilized(nodes, kind):
    candidates = [n for n in nodes if n.kind == kind]
    if not candidates:
        return None
    return min(candidates, key=lambda n: (n.utilization, n.node_id))


def route_by_scan(task, nodes):
    """Compute-class routing that scans every node for each task: the
    node and whether the task was redirected, or None when every medium
    node is overloaded and there is no unit."""
    unit = _least_utilized(nodes, "computation_unit")
    if task.compute_class == "heavy":
        return unit, False
    medium = _least_utilized(nodes, "medium")
    if medium.utilization <= medium.spec.overload_threshold:
        return medium, False
    return None if unit is None else (unit, True)


def generate_arrivals_scalar(workload, rng):
    """Every stage's Poisson arrivals, one ``rng.exponential`` gap at a
    time: a float clock adds each gap and is rounded to the nanosecond,
    until it lands at or past the end; each task is built through `Task`'s
    checks, and the whole list sorted by (entry time, task id)."""
    tasks = []
    for stage in workload.stages:
        if stage.arrival_rate_hz == 0:
            continue
        t = 0.0
        index = 0
        mean_gap = 1.0 / stage.arrival_rate_hz
        while True:
            t += rng.exponential(mean_gap)
            t_ns = int(round(t * NS_PER_SEC))
            if t_ns >= workload.duration_ns:
                break
            tasks.append(
                Task(
                    task_id=f"{stage.name}-{index:05d}",
                    compute_class=stage.compute_class,
                    initial_priority=stage.initial_priority,
                    entry_time_ns=t_ns,
                    service_demand_ns=stage.service_demand_ns,
                    stage=stage.name,
                )
            )
            index += 1
    tasks.sort(key=lambda task: (task.entry_time_ns, task.task_id))
    return tasks


def schedule_cycle_sorted(queue, nodes, now_ns, config):
    """One dispatcher cycle as a full sort of the queue.

    Every queued task is aged and the whole queue sorted by
    (urgency, entry time, task id); each task in that order is routed by
    `route_by_scan` and placed if its node accepts it. Placed tasks are
    removed from ``queue`` in place, the rest keep their order. A queued
    compute class whose node kind is missing raises before anything is
    placed.
    """

    def sort_key(task):
        return (effective_urgency(task, now_ns, config), task.entry_time_ns, task.task_id)

    ordered = sorted(queue, key=sort_key)
    classes = {task.compute_class for task in queue}
    kinds = {node.kind for node in nodes}
    if "heavy" in classes and "computation_unit" not in kinds:
        raise TopologyError("no computation unit available for a heavy task")
    if "light" in classes and "medium" not in kinds:
        raise TopologyError("no medium node available for a light task")
    dispatches = []
    taken = set()
    for task in ordered:
        placed = route_by_scan(task, nodes)
        if placed is None or not placed[0].accepts(task):
            continue
        node, redirected = placed
        opened = node.occupy(task, now_ns + config.batch_window_ns)
        taken.add(task.task_id)
        dispatches.append(Dispatch(task, node.node_id, sort_key(task)[0], redirected, opened))
    if taken:
        queue[:] = [t for t in queue if t.task_id not in taken]
    return dispatches


def with_clock_per_sample(stream, model):
    """``SampleStream.with_clock`` one sample at a time with the scalar ``correct_timestamp``."""
    return SampleStream(
        stream.descriptor,
        tuple(replace(s, corrected_ts=correct_timestamp(s.local_ts, model)) for s in stream.samples),
    )


def shifted_per_sample(stream, delta_ns):
    """``SampleStream.shifted`` one sample at a time; uncorrected samples are left alone."""
    return SampleStream(
        stream.descriptor,
        tuple(
            replace(s, corrected_ts=s.corrected_ts + delta_ns) if s.corrected_ts is not None else s
            for s in stream.samples
        ),
    )


def shannon_entropy(values, bins=ENTROPY_BINS):
    """Histogram entropy in bits.

    ``bins`` is either a cell count, giving equal-width cells between
    the window minimum and maximum, or an explicit array of bin edges
    for anchoring several windows to one shared range. Empty cells
    contribute nothing. A window whose values span no range at all has
    zero entropy by definition.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise UsageError("entropy of an empty window is undefined")
    if not np.all(np.isfinite(v)):
        raise UsageError("entropy input must be finite")
    if isinstance(bins, (int, np.integer)):
        lo = float(v.min())
        hi = float(v.max())
        if lo == hi:
            return 0.0
        counts, _ = np.histogram(v, bins=bins, range=(lo, hi))
    else:
        edges = np.asarray(bins, dtype=float)
        if edges[0] == edges[-1]:
            return 0.0
        counts, _ = np.histogram(v, bins=edges)
    p = counts[counts > 0] / v.size
    return float(-(p * np.log2(p)).sum())


def sliding_entropy_per_window(series, window_ns, stride_ns):
    """``sliding_entropy`` as a loop: one ``shannon_entropy`` histogram per window."""
    period = series.median_period_ns()
    edges = np.linspace(series.values.min(), series.values.max(), ENTROPY_BINS + 1)
    ts = series.timestamps
    out_ts, out_vals = [], []
    t = int(ts[0])
    last_start = int(ts[-1]) - window_ns
    while t <= last_start + period:
        lo = int(np.searchsorted(ts, t, side="left"))
        hi = int(np.searchsorted(ts, t + window_ns, side="left"))
        if hi - lo >= 3:
            out_ts.append(t + window_ns // 2)
            out_vals.append(shannon_entropy(series.values[lo:hi], bins=edges))
        t += stride_ns
    return np.array(out_ts, dtype=np.int64), np.array(out_vals)


def butter_lowpass(order, cutoff_hz, sample_rate_hz):
    """``design_lowpass``'s coefficients as scipy designs them."""
    return signal.butter(order, cutoff_hz, btype="low", fs=sample_rate_hz)


def lowpass_filtfilt(series, order, cutoff_hz, sample_rate_hz):
    """The fine-tune low-pass through scipy's design and ``filtfilt``,
    padded by ``min(3 * order, len - 1)`` samples."""
    b, a = butter_lowpass(order, cutoff_hz, sample_rate_hz)
    padlen = min(3 * (max(len(a), len(b)) - 1), len(series) - 1)
    return TimeSeries(series.timestamps, np.asarray(signal.filtfilt(b, a, series.values, padlen=padlen)))


def kalman_update_checked(model, observation, noise):
    """``kalman_update`` with every product with the measurement row h = (1, 0)
    as a matmul, returning its result through the public ``ClockModel`` constructor."""
    local, reference = observation
    if not (math.isfinite(local) and math.isfinite(reference)):
        raise DomainError("observation timestamps must be finite")
    if local < model.last_sync:
        raise DomainError("observation precedes sync anchor")

    dt = (local - model.last_sync) / NS_PER_SEC
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = np.diag([noise.process_offset_var, noise.process_drift_var])
    x = np.array([model.offset, model.drift_rate])
    p = f @ model.covariance @ f.T + q
    x = f @ x

    z = (reference - local) / NS_PER_SEC
    h = np.array([1.0, 0.0])
    s = float(h @ p @ h) + noise.measurement_var
    k = (p @ h) / s
    x = x + k * (z - float(h @ x))
    ikh = np.eye(2) - np.outer(k, h)
    p = ikh @ p @ ikh.T + noise.measurement_var * np.outer(k, k)

    if not abs(x[1]) < MAX_DRIFT_RATE:
        raise DomainError("drift rate exceeds sanity bound of 0.1, rejecting fit")
    return ClockModel(float(x[0]), float(x[1]), local, p)


def query_captures_scan(ingested, start_ns, end_ns):
    """A device's ``GET /capture`` rows in [start_ns, end_ns): scan every row ingested, in ingest order, then sort."""
    hits = [r for r in ingested if start_ns <= r["corrected_ts"] < end_ns]
    hits.sort(key=lambda r: (r["corrected_ts"], r["capture_id"]))
    return hits


@dataclass(frozen=True)
class CaptureRecord:
    """One ingested sample with the metadata stamped at capture time."""

    capture_id: str
    device_id: str
    modality: str
    local_ts: int
    corrected_ts: int
    payload: tuple[float, ...]
    location: tuple[float, float]

    def to_record(self) -> dict:
        return {
            "capture_id": self.capture_id,
            "device_id": self.device_id,
            "modality": self.modality,
            "local_ts": self.local_ts,
            "corrected_ts": self.corrected_ts,
            "payload": list(self.payload),
            "location": list(self.location),
        }


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_capture_key = attrgetter("corrected_ts", "capture_id")


def _query_int(value, name):
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"field {name!r} must be an integer") from exc


def format_ids_fstring(raw: bytes) -> list[str]:
    """The UUID text of each 16 bytes of ``raw``, five hex slices per id in an f-string."""
    h = raw.hex()
    return [
        f"{h[i:i + 8]}-{h[i + 8:i + 12]}-{h[i + 12:i + 16]}-{h[i + 16:i + 20]}-{h[i + 20:i + 32]}"
        for i in range(0, len(h), 32)
    ]


def format_timestamp_strftime(epoch_s: float) -> str:
    """``format_timestamp`` with a ``datetime`` built and formatted per call."""
    if not math.isfinite(epoch_s):
        raise UsageError("timestamp must be finite")
    whole = int(epoch_s // 1)
    frac = round((epoch_s - whole) * 10_000)
    if frac == 10_000:
        whole += 1
        frac = 0
    try:
        stamp = datetime.fromtimestamp(whole, tz=timezone.utc)
    except (OverflowError, OSError, ValueError) as exc:
        raise UsageError(f"timestamp {epoch_s!r} is outside the calendar") from exc
    return stamp.strftime("%Y-%m-%dT%H:%M:%S") + f".{frac:04d}"


class CaptureRouterOracle(ServiceRouter):
    """``ServiceRouter`` with the capture routes of one validated object per stage.

    It keeps its own capture store and writes the same activity entries
    through the services it wraps, drawing ids and time from them.
    """

    def __init__(self, services):
        super().__init__(services)
        self._captures: dict[str, list[CaptureRecord]] = {}
        self._capture_keys: dict[str, list[int]] = {}

    def _dispatch(self, method, path, body, token, query):
        if path == "/capture" and method == "POST":
            try:
                samples = [
                    SensorSample(
                        device_id=s["device_id"],
                        modality=s.get("modality", ""),
                        local_ts=s["local_ts"],
                        payload=tuple(s.get("payload", ())),
                    )
                    for s in body.get("samples", [])
                ]
            except (TypeError, ValueError, OverflowError, UsageError) as exc:
                raise UsageError(f"malformed capture sample: {exc}") from exc
            stored = self._ingest(token, samples)
            return 201, {"stored": len(stored), "capture_ids": [r.capture_id for r in stored]}
        if path == "/capture" and method == "GET":
            hits = self._query(
                query["device_id"],
                _query_int(query["start_ns"], "start_ns"),
                _query_int(query["end_ns"], "end_ns"),
                token,
            )
            return 200, {"samples": [r.to_record() for r in hits]}
        return super()._dispatch(method, path, body, token, query)

    def _log(self, details):
        self._services._record(format_timestamp(self._services.now_s()), "data_access", details)

    def _ingest(self, device_token, samples):
        services = self._services
        device_id = services.validate(device_token)["subject"]
        try:
            record = services.device_record(device_id)
        except NotFoundError:
            raise AuthError(f"token subject {device_id!r} is not a registered device") from None
        for sample in samples:
            if sample.device_id != device_id:
                raise AuthError(f"sample for {sample.device_id!r} submitted with token for {device_id!r}")
        # the router passes no clock model: corrected_ts is local_ts
        local = [sample.local_ts for sample in samples]
        if local and not (_INT64_MIN <= min(local) and max(local) <= _INT64_MAX):
            raise ValidationError("capture timestamps must fit in int64", fields=("local_ts",))
        location = (record.location.latitude, record.location.longitude)
        stored = [
            CaptureRecord(capture_id, device_id, s.modality, s.local_ts, s.local_ts, tuple(s.payload), location)
            for s, capture_id in zip(samples, services._new_ids(len(samples)))
        ]
        batch = sorted(stored, key=_capture_key)
        records = self._captures.setdefault(device_id, [])
        keys = self._capture_keys.setdefault(device_id, [])
        if batch and records and _capture_key(batch[0]) < _capture_key(records[-1]):
            records.extend(batch)
            records.sort(key=_capture_key)
            keys[:] = [r.corrected_ts for r in records]
        else:
            records.extend(batch)
            keys.extend(r.corrected_ts for r in batch)
        self._log({"device_id": device_id, "op": "ingest", "count": len(stored)})
        return tuple(stored)

    def _query(self, device_id, start_ns, end_ns, token):
        services = self._services
        claims = services.validate(token)
        if "admin" not in claims.get("roles", []) and "app" not in claims.get("roles", []):
            if claims["subject"] != device_id:
                raise AuthError("capture queries need the app or admin role")
        services.device_record(device_id)
        keys = self._capture_keys.get(device_id, [])
        hits = self._captures.get(device_id, [])[bisect_left(keys, start_ns):bisect_left(keys, end_ns)]
        self._log({"device_id": device_id, "op": "query", "count": len(hits)})
        return tuple(hits)
