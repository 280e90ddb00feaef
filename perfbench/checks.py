"""Output checks for one round, computed apart from the program.

Each check returns a list of messages, empty when the outputs hold.
Checks compare against the scene's injected truth, against brute-force
recomputations written here, or against properties the method must
have; none compares against stored program output.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from sensorstack.edgesched import compute_metrics
from sensorstack.errors import IntegrityError

from pipeline import BUFFER, MERGE_THRESHOLD_M, RANSAC_THRESHOLD_M, RoundOutput
from scenes import MONOLITH_DEMAND_NS, NS, Scene

SYNC_LIMIT_MS = 50.0
STREAM_LIMIT_MS = 100.0
FUSION_GAIN = 1.1
MIN_SPEEDUP = 10.0
MATCH_RADIUS_M = 2.0
SWEEP_THRESHOLDS = tuple(float(t) for t in np.linspace(5.5, 0.0, 12))
FRAME_SAMPLES = 60
FUSION_SAMPLES = 4


@dataclass
class Quality:
    """Per-round quality figures the end-to-end metrics pool over rounds."""

    residual_ms: list[float] = field(default_factory=list)
    clock_only_ms: list[float] = field(default_factory=list)
    fused: Counter = field(default_factory=Counter)
    single: dict[str, Counter] = field(default_factory=dict)
    decomposed_per_s: float = 0.0
    monolithic_per_s: float = 0.0
    recall_drops: int = 0


def merge_quality(total: Quality, part: Quality) -> None:
    total.residual_ms.extend(part.residual_ms)
    total.clock_only_ms.extend(part.clock_only_ms)
    total.fused.update(part.fused)
    for camera, counts in part.single.items():
        total.single.setdefault(camera, Counter()).update(counts)
    total.decomposed_per_s += part.decomposed_per_s
    total.monolithic_per_s += part.monolithic_per_s
    total.recall_drops += part.recall_drops


def f1(counts: Counter) -> float:
    denominator = 2 * counts["tp"] + counts["fp"] + counts["fn"]
    return 2 * counts["tp"] / denominator if denominator else 1.0


# -- capture ------------------------------------------------------------------


def check_capture(scene: Scene, out: RoundOutput) -> list[str]:
    problems = []
    sent: dict[str, list[tuple[int, str, tuple]]] = {}
    for session in scene.sessions:
        for device_id, stream in session.streams.items():
            sent.setdefault(device_id, []).extend((s.local_ts, s.modality, s.payload) for s in stream.samples)
    for rows in sent.values():
        rows.sort(key=lambda r: r[0])
    keys = {device_id: [r[0] for r in rows] for device_id, rows in sent.items()}

    ids = set()
    for device_id, batch, reply in out.posted:
        if reply.get("stored") != len(batch) or len(reply.get("capture_ids", ())) != len(batch):
            problems.append(f"POST /capture for {device_id} stored {reply.get('stored')} of {len(batch)}")
        ids.update(reply.get("capture_ids", ()))
    if len(ids) != sum(len(b) for _, b, _ in out.posted):
        problems.append("capture ids are not unique")
    if sum(len(b) for _, b, _ in out.posted) != sum(len(r) for r in sent.values()):
        problems.append("not every sample was posted")

    for device_id, start, end, rows in out.queries:
        lo = bisect.bisect_left(keys[device_id], start)
        hi = bisect.bisect_left(keys[device_id], end)
        expected = sent[device_id][lo:hi]
        got = [(r["local_ts"], r["modality"], tuple(r["payload"])) for r in rows]
        if got != expected or any(r["device_id"] != device_id or r["corrected_ts"] != r["local_ts"] for r in rows):
            problems.append(f"GET /capture {device_id} [{start}, {end}) returned {len(rows)} rows, expected {len(expected)}")
    return problems


# -- sync ---------------------------------------------------------------------


def sync_residuals(scene: Scene, out: RoundOutput) -> tuple[list[float], list[float]]:
    """Misalignment (ms) of each non-reference stream, after sync and after clock correction only.

    A stream's error is the mean offset of its final timestamps from the
    true time of the content each sample shows; misalignment is the
    distance between that error and the reference stream's.
    """
    after, before = [], []
    ref = scene.reference_id
    for session, result in zip(scene.sessions, out.sessions):
        def error(stream, device_id):
            return float(np.mean(stream.corrected_timestamps() - session.content_ns[device_id]))

        ref_error = error(result.synced[ref], ref)
        for device_id in session.streams:
            if device_id == ref:
                continue
            after.append(abs(error(result.synced[device_id], device_id) - ref_error) / 1e6)
            before.append(abs(error(result.corrected[device_id], device_id) - ref_error) / 1e6)
    return after, before


def check_sync(scene: Scene, out: RoundOutput, quality: Quality) -> list[str]:
    problems = []
    after, before = sync_residuals(scene, out)
    quality.residual_ms.extend(after)
    quality.clock_only_ms.extend(before)
    worst = max(after)
    if not worst < STREAM_LIMIT_MS:
        problems.append(f"a stream is {worst:.1f} ms out after sync")
    for result in out.sessions:
        problems.extend(check_aligned_frames(result.synced, result.frames, scene.sizes.epoch_ns))
    return problems


def _expected_slot(ts: list[int], samples, t: int):
    """Latest sample at or before t, if no older than the stream's jitter buffer."""
    idx = bisect.bisect_right(ts, t) - 1
    if idx < 0:
        return None
    lo = max(0, idx - BUFFER.window)
    intervals = [ts[i + 1] - ts[i] for i in range(lo, idx)]
    limit = BUFFER.b_min
    if len(intervals) >= 2:
        limit = max(BUFFER.b_min, round(BUFFER.beta * statistics.stdev(intervals)))
    return samples[idx] if t - ts[idx] <= limit else None


def check_aligned_frames(synced: dict, frames, epoch_ns: int) -> list[str]:
    columns = {s.key: ([x.corrected_ts for x in s.samples], s.samples) for s in synced.values()}
    t_min = min(c[0][0] for c in columns.values())
    t_max = max(c[0][-1] for c in columns.values())
    start = -(-t_min // epoch_ns) * epoch_ns
    expected_times = range(start, t_max + 1, epoch_ns)
    if [f.time for f in frames] != list(expected_times):
        return ["aligned frames do not cover the epoch grid"]
    problems = []
    step = max(1, len(frames) // FRAME_SAMPLES)
    for frame in frames[::step]:
        if set(frame.slots) != set(columns):
            problems.append(f"frame at {frame.time} has slots {sorted(frame.slots)}")
            continue
        for key, (ts, samples) in columns.items():
            if frame.slots[key] != _expected_slot(ts, samples, frame.time):
                problems.append(f"frame at {frame.time}: slot {key} differs from the latest fresh sample")
    return problems


# -- fusion -------------------------------------------------------------------


def greedy_counts(predicted, truth, radius: float) -> tuple[int, int, int]:
    """tp, fp, fn of nearest-first one-to-one matching within radius, per category."""
    tp = fp = fn = 0
    for category in {p[0] for p in predicted} | {t[0] for t in truth}:
        pred = np.array([p[1] for p in predicted if p[0] == category], dtype=float).reshape(-1, 2)
        true = np.array([t[1] for t in truth if t[0] == category], dtype=float).reshape(-1, 2)
        matched = 0
        if len(pred) and len(true):
            dist = np.hypot(pred[:, None, 0] - true[None, :, 0], pred[:, None, 1] - true[None, :, 1])
            dist[dist > radius] = np.inf
            while True:
                flat = int(np.argmin(dist))
                i, j = divmod(flat, dist.shape[1])
                if not np.isfinite(dist[i, j]):
                    break
                matched += 1
                dist[i, :] = np.inf
                dist[:, j] = np.inf
        tp += matched
        fp += len(pred) - matched
        fn += len(true) - matched
    return tp, fp, fn


def merge_groups(detections, threshold: float) -> list[tuple]:
    """Connected components of the cross-camera, same-category, distance < threshold graph.

    Each group becomes (category, center, confidence, cameras, count)
    with the confidence-weighted mean center.
    """
    n = len(detections)
    neighbours = [[] for _ in range(n)]
    for i in range(n):
        a = detections[i]
        for j in range(i + 1, n):
            b = detections[j]
            if a.category == b.category and a.camera_id != b.camera_id:
                if math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]) < threshold:
                    neighbours[i].append(j)
                    neighbours[j].append(i)
    seen = [False] * n
    groups = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack, members = [root], []
        while stack:
            i = stack.pop()
            members.append(detections[i])
            for j in neighbours[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        weights = [d.confidence for d in members]
        total = sum(weights)
        if total <= 0:
            weights, total = [1.0] * len(members), float(len(members))
        x = sum(w * d.center[0] for w, d in zip(weights, members)) / total
        y = sum(w * d.center[1] for w, d in zip(weights, members)) / total
        groups.append((
            members[0].category,
            (x, y),
            max(d.confidence for d in members),
            tuple(sorted({d.camera_id for d in members})),
            len(members),
        ))
    return groups


def _same_groups(fused, groups) -> bool:
    got = sorted((f.category, f.center, f.confidence, f.cameras, f.merged_count) for f in fused)
    want = sorted(groups)
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g[0] != w[0] or g[2:] != w[2:]:
            return False
        if not (math.isclose(g[1][0], w[1][0], rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(g[1][1], w[1][1], rel_tol=1e-9, abs_tol=1e-9)):
            return False
    return True


def _mapped(matrix: np.ndarray, center) -> tuple[float, float] | None:
    x, y = center
    u = matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2]
    v = matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2]
    w = matrix[2, 0] * x + matrix[2, 1] * y + matrix[2, 2]
    if abs(w) < 1e-9:
        return None
    return u / w, v / w


def check_fusion(scene: Scene, out: RoundOutput, quality: Quality) -> list[str]:
    problems = []
    calibrated = [c for c in scene.cameras if c.camera_id in out.fits]
    if len(calibrated) < 2:
        return ["fewer than two cameras calibrated"]
    for camera in calibrated:
        fit = out.fits[camera.camera_id]
        errors = np.array([math.dist(_mapped(fit.transform.matrix, p.source), p.target) for p in camera.survey])
        # the fitted image->ground map must reproduce every true survey point,
        # and its inlier mask must be exactly the pairs it maps within threshold
        if errors[~np.array(camera.survey_mismatched)].max() > RANSAC_THRESHOLD_M:
            problems.append(f"{camera.camera_id}: calibration misses true survey points")
        if not np.array_equal(fit.inlier_mask, errors <= RANSAC_THRESHOLD_M):
            problems.append(f"{camera.camera_id}: inlier mask disagrees with the fitted map")

    step = max(1, len(scene.frames) // FUSION_SAMPLES)
    for index, frame in enumerate(scene.frames):
        truth = [(t.category, t.center) for t in frame.truth]
        projected = out.projected[index]
        merged_in = []
        for camera in calibrated:
            result = projected[camera.camera_id]
            merged_in.extend(result.detections)
            dets = [(d.category, d.center) for d in result.detections]
            tp, fp, fn = greedy_counts(dets, truth, MATCH_RADIUS_M)
            quality.single.setdefault(camera.camera_id, Counter()).update(tp=tp, fp=fp, fn=fn)
        fused = out.fused[index]
        tp, fp, fn = greedy_counts([(f.category, f.center) for f in fused], truth, MATCH_RADIUS_M)
        quality.fused.update(tp=tp, fp=fp, fn=fn)
        scores = out.scores[index]
        if (sum(s.tp for s in scores.values()), sum(s.fp for s in scores.values()),
                sum(s.fn for s in scores.values())) != (tp, fp, fn):
            problems.append(f"frame {index}: evaluate_detections counts differ from an independent matcher")
        if index % step:
            continue
        for camera in calibrated:
            kept = iter(projected[camera.camera_id].detections)
            for i, det in enumerate(frame.detections[camera.camera_id]):
                where = _mapped(out.fits[camera.camera_id].transform.matrix, det.center)
                if (where is None) != (i in projected[camera.camera_id].dropped):
                    problems.append(f"frame {index}: {camera.camera_id} dropped the wrong detections")
                    break
                if where is not None:
                    got = next(kept, None)
                    if got is None or not np.allclose(got.center, where, rtol=1e-9, atol=1e-9):
                        problems.append(f"frame {index}: {camera.camera_id} projection differs")
                        break
        if not _same_groups(fused, merge_groups(merged_in, MERGE_THRESHOLD_M)):
            problems.append(f"frame {index}: merged groups differ from the brute-force components")

    return problems


def check_sweep(scene: Scene, out: RoundOutput, quality: Quality) -> list[str]:
    problems = []
    calibrated = [c.camera_id for c in scene.cameras if c.camera_id in out.fits]
    for index, rows in enumerate(out.sweeps):
        frame = scene.frames[index]
        merged_in = [d for cam in calibrated for d in out.projected[index][cam].detections]
        by_category: dict[str, list] = {}
        for row in rows:
            by_category.setdefault(row.category, []).append(row)
        for category, series in by_category.items():
            if [r.threshold for r in series] != list(SWEEP_THRESHOLDS):
                problems.append(f"sweep frame {index}: thresholds differ for {category}")
                continue
            # threshold_sweep documents that recall only rises as the threshold
            # tightens, but nearest-first matching can lose a match when a merge
            # splits; the drops are counted and reported, not failed
            recalls = [r.recall for r in series]
            quality.recall_drops += sum(b < a - 1e-12 for a, b in zip(recalls, recalls[1:]))
        # every row against brute-force merging and matching at its threshold
        for threshold in SWEEP_THRESHOLDS:
            groups = merge_groups(merged_in, threshold)
            for category in by_category:
                preds = [(g[0], g[1]) for g in groups if g[0] == category]
                truth = [(t.category, t.center) for t in frame.truth if t.category == category]
                tp, fp, fn = greedy_counts(preds, truth, MATCH_RADIUS_M)
                precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
                recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
                row = next((r for r in by_category[category] if r.threshold == threshold), None)
                if row is None or not (math.isclose(row.precision, precision) and math.isclose(row.recall, recall)):
                    problems.append(f"sweep frame {index}: {category} at {threshold:.2f} m differs")
    return problems


# -- edge ---------------------------------------------------------------------


def log_counts(records) -> dict[str, int]:
    """Replay a simulator log: lifecycle order and where every task ended."""
    arrived, dispatched, completed = set(), set(), set()
    bad = 0
    last_t = -1
    for record in records:
        if record["t_ns"] < last_t:
            bad += 1
        last_t = record["t_ns"]
        task = record["task_id"]
        event = record["event"]
        if event == "arrival":
            bad += task in arrived
            arrived.add(task)
        elif event == "dispatch":
            bad += task not in arrived or task in dispatched
            dispatched.add(task)
        elif event == "complete":
            bad += task not in dispatched or task in completed
            completed.add(task)
    return {
        "arrived": len(arrived),
        "completed": len(completed),
        "in_flight": len(dispatched - completed),
        "queued": len(arrived - dispatched),
        "out_of_order": bad,
        "ended": int(bool(records) and records[-1]["event"] == "end"),
    }


def check_edge(scene: Scene, out: RoundOutput, quality: Quality) -> list[str]:
    problems = []
    for label, result in (("decomposed", out.decomposed), ("monolithic", out.monolithic)):
        counts = log_counts(result.records)
        if counts["out_of_order"] or not counts["ended"]:
            problems.append(f"{label} log breaks task lifecycle order")
        if counts["arrived"] != counts["completed"] + counts["in_flight"] + counts["queued"]:
            problems.append(f"{label} log does not conserve tasks")
        if counts["completed"] != result.metrics.completed:
            problems.append(f"{label} log holds {counts['completed']} completions, metrics {result.metrics.completed}")
        try:
            replayed = compute_metrics(result.records)
        except IntegrityError as error:
            problems.append(f"{label} log does not replay: {error}")
            continue
        live = result.metrics
        if (replayed.duration_s, replayed.completed, replayed.throughput_per_s, replayed.class_stats,
                replayed.inversion_rate, replayed.offload_fraction) != (
                live.duration_s, live.completed, live.throughput_per_s, live.class_stats,
                live.inversion_rate, live.offload_fraction):
            problems.append(f"{label}: metrics replayed from the log differ from the live ones")

    duration_ns = int(scene.sizes.edge_duration_s * NS)
    capacity = duration_ns // MONOLITH_DEMAND_NS
    if out.monolithic.metrics.completed > capacity:
        problems.append(f"monolithic run completed {out.monolithic.metrics.completed} > capacity {capacity}")
    quality.decomposed_per_s = out.decomposed.metrics.throughput_per_s
    quality.monolithic_per_s = out.monolithic.metrics.throughput_per_s
    if not quality.decomposed_per_s >= MIN_SPEEDUP * quality.monolithic_per_s:
        problems.append(
            f"decomposed {quality.decomposed_per_s:.1f}/s is not {MIN_SPEEDUP} x monolithic {quality.monolithic_per_s:.2f}/s"
        )
    return problems


def check_pooled(quality: Quality) -> list[str]:
    """Checks on figures pooled over a run's rounds: sync accuracy and fusion gain."""
    problems = []
    mean_after, mean_before = statistics.fmean(quality.residual_ms), statistics.fmean(quality.clock_only_ms)
    if not mean_after < SYNC_LIMIT_MS:
        problems.append(f"mean misalignment after sync {mean_after:.1f} ms is not under {SYNC_LIMIT_MS} ms")
    if not mean_after < mean_before:
        problems.append(f"sync left {mean_after:.1f} ms, clock correction alone {mean_before:.1f} ms")
    best = max(f1(c) for c in quality.single.values())
    if not f1(quality.fused) >= FUSION_GAIN * best:
        problems.append(f"fused F1 {f1(quality.fused):.3f} is not {FUSION_GAIN} x the best camera's {best:.3f}")
    return problems


def check_round(scene: Scene, out: RoundOutput) -> tuple[list[str], Quality]:
    quality = Quality()
    problems = (
        check_capture(scene, out)
        + check_sync(scene, out, quality)
        + check_fusion(scene, out, quality)
        + check_sweep(scene, out, quality)
        + check_edge(scene, out, quality)
    )
    return problems, quality
