"""Line-oriented interchange formats for the fusion stages.

Detections, point pairs, and fused outputs travel as newline-delimited
JSON; sweep curves as CSV; transforms as a single JSON document with a
kind tag.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Iterable

import numpy as np

from .. import jsonl
from ..errors import UsageError
from .geometry import PerspectiveTransform
from .metrics import SweepRow
from .types import Detection, FusedDetection, PointPair


def write_pairs_ndjson(pairs: Iterable[PointPair], fp: IO[str]):
    jsonl.write_records(({"source": list(p.source), "target": list(p.target)} for p in pairs), fp)


def read_pairs_ndjson(fp: IO[str]) -> tuple[PointPair, ...]:
    return jsonl.read_records(fp, lambda rec: PointPair(source=tuple(rec["source"]), target=tuple(rec["target"])))


def write_detections_ndjson(detections: Iterable[Detection], fp: IO[str]):
    jsonl.write_records(
        (
            {
                "camera_id": d.camera_id,
                "class": d.category,
                "center": list(d.center),
                "confidence": d.confidence,
                "frame_ts_ns": d.frame_ts,
            }
            for d in detections
        ),
        fp,
    )


def read_detections_ndjson(fp: IO[str]) -> tuple[Detection, ...]:
    return jsonl.read_records(
        fp,
        lambda rec: Detection(
            camera_id=rec["camera_id"],
            category=rec["class"],
            center=tuple(rec["center"]),
            confidence=rec["confidence"],
            frame_ts=int(rec["frame_ts_ns"]),
        ),
    )


def write_fused_ndjson(fused: Iterable[FusedDetection], fp: IO[str]):
    jsonl.write_records(
        (
            {
                "class": f.category,
                "center": list(f.center),
                "confidence": f.confidence,
                "cameras": list(f.cameras),
                "threshold": f.threshold,
                "merged_count": f.merged_count,
            }
            for f in fused
        ),
        fp,
    )


def read_fused_ndjson(fp: IO[str]) -> tuple[FusedDetection, ...]:
    return jsonl.read_records(
        fp,
        lambda rec: FusedDetection(
            category=rec["class"],
            center=tuple(rec["center"]),
            confidence=rec["confidence"],
            cameras=tuple(rec["cameras"]),
            threshold=rec["threshold"],
            merged_count=rec["merged_count"],
        ),
    )


def write_sweep_csv(rows: Iterable[SweepRow], fp: IO[str]):
    writer = csv.writer(fp)
    writer.writerow(["threshold", "class", "precision", "recall"])
    for row in rows:
        writer.writerow([row.threshold, row.category, row.precision, row.recall])


def read_sweep_csv(fp: IO[str]) -> tuple[SweepRow, ...]:
    reader = csv.DictReader(fp)
    return tuple(
        SweepRow(
            threshold=float(rec["threshold"]),
            category=rec["class"],
            precision=float(rec["precision"]),
            recall=float(rec["recall"]),
        )
        for rec in reader
    )


def write_transform_json(transform: PerspectiveTransform, fp: IO[str]):
    json.dump({"kind": "homography", "matrix": transform.matrix.tolist()}, fp)
    fp.write("\n")


def read_transform_json(fp: IO[str]) -> PerspectiveTransform:
    with jsonl.decoding("transform document"):
        doc = jsonl.loads_object(fp.read())
        kind = doc.get("kind")
        if kind == "homography":
            return PerspectiveTransform(np.array(doc["matrix"], dtype=float))
    raise UsageError(f"unknown transform kind {kind!r}")
