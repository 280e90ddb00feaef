"""Micro-benchmarks of the fusion hot spots on one crowded frame.

    PYTHONPATH=src python -m pytest bench                      # timed
    PYTHONPATH=src python -m pytest bench --benchmark-disable  # one call each

The frame is fixed: 60 objects on a 60 x 60 m field, 50 of them seen by
two of five cameras and 10 by one, so 110 detections, each jittered by
0.3 m, the size of an intersection testbed frame.
"""

import numpy as np
import pytest

from sensorstack.fusion import Detection, ObjectTruth, deduplicate, evaluate_detections, threshold_sweep

MERGE_THRESHOLD_M = 2.5


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(2024)
    truth = [
        ObjectTruth("pedestrian" if k % 3 else "vehicle", tuple(rng.uniform(0, 60, 2)))
        for k in range(60)
    ]
    detections = []
    for k, obj in enumerate(truth):
        for camera in rng.choice(5, size=2 if k < 50 else 1, replace=False):
            center = np.asarray(obj.center) + rng.normal(0, 0.3, 2)
            detections.append(Detection(f"cam{camera}", obj.category, tuple(center), float(rng.uniform(0.5, 1)), 0))
    assert len(detections) == 110
    return detections, truth


def test_deduplicate(benchmark, frame):
    detections, _ = frame
    fused = benchmark(deduplicate, detections, MERGE_THRESHOLD_M)
    assert len(fused) < len(detections)


def test_threshold_sweep(benchmark, frame):
    detections, truth = frame
    rows = benchmark(threshold_sweep, detections, truth)
    assert len(rows) == 24


def test_evaluate_detections(benchmark, frame):
    detections, truth = frame
    fused = deduplicate(detections, MERGE_THRESHOLD_M)
    scores = benchmark(evaluate_detections, fused, truth)
    assert set(scores) == {"pedestrian", "vehicle"}
