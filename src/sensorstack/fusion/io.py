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
from ..errors import IntegrityError, UsageError
from .geometry import PerspectiveTransform
from .metrics import SweepRow
from .transform_net import TransformNet
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
    if transform.kind == "homography":
        doc = {"kind": "homography", "matrix": transform.matrix.tolist()}
    else:
        net = transform.net
        doc = {
            "kind": "learned",
            "architecture": list(net.architecture),
            "params": net.params.tolist(),
            "in_center": net.in_center.tolist(),
            "in_scale": net.in_scale.tolist(),
            "out_center": net.out_center.tolist(),
            "out_scale": net.out_scale.tolist(),
        }
    json.dump(doc, fp)
    fp.write("\n")


def read_transform_json(fp: IO[str]) -> PerspectiveTransform:
    with jsonl.decoding("transform document"):
        doc = jsonl.loads_object(fp.read())
        kind = doc.get("kind")
        if kind == "homography":
            return PerspectiveTransform(kind="homography", matrix=np.array(doc["matrix"], dtype=float))
        if kind == "learned":
            try:
                net = TransformNet(
                    architecture=tuple(doc["architecture"]),
                    params=np.array(doc["params"], dtype=float),
                    in_center=np.array(doc["in_center"], dtype=float),
                    in_scale=np.array(doc["in_scale"], dtype=float),
                    out_center=np.array(doc["out_center"], dtype=float),
                    out_scale=np.array(doc["out_scale"], dtype=float),
                )
            except UsageError as exc:
                # parameters that do not fit the architecture
                raise IntegrityError(f"malformed transform document: {exc}") from exc
            return PerspectiveTransform(kind="learned", net=net)
    raise UsageError(f"unknown transform kind {kind!r}")
