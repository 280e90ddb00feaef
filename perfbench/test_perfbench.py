"""The benchmark's own tests: reduced-size runs and checks that reject corrupted outputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import checks
import pipeline
import run
from pipeline import capture_bodies, run_round
from probe import GAUGE_REF_S, Probe, Tracer, self_times, tail_percentile
from scenes import INTERSECTION, PARKING_LOT, make_scene
from sensorstack.errors import UsageError
from sensorstack.timebase import align_streams

MS = 1_000_000
SMALL = {
    "parking_lot": dataclasses.replace(PARKING_LOT, sessions=1, session_s=18.0, frames=8, sweep_frames=1, get_windows=8),
    "intersection": dataclasses.replace(
        INTERSECTION, sessions=1, session_s=14.0, gestures=2, frames=4, sweep_frames=1,
        edge_scale=2, edge_duration_s=1.0, get_windows=20,
    ),
}
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_reports_every_metric(workload, trace, tmp_path):
    result = run.run_workload(workload, seed=5, seconds=0.0, trace=trace, sizes=SMALL[workload], trace_dir=tmp_path)
    summary = result["summary"]
    assert result["problems"] == []
    assert summary["correct"] is True
    assert summary["attempted"] > 0 and summary["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in summary["metrics"].items()}
    assert all(v["value"] > 0 for k, v in summary["metrics"].items() if not trace)
    assert (tmp_path / f"trace-{workload}-5.json").exists() == trace


@pytest.fixture(scope="module")
def parking_round():
    scene = make_scene("parking_lot", 7, 0, SMALL["parking_lot"])
    out = run_round(scene, capture_bodies(scene), Probe())
    problems, _ = checks.check_round(scene, out)
    assert problems == []
    return scene, out


def test_shifted_stream_rejected(parking_round):
    scene, out = parking_round
    session = out.sessions[0]
    synced = dict(session.synced)
    synced["cam1"] = synced["cam1"].shifted(200 * MS)
    frames = align_streams(list(synced.values()), pipeline.BUFFER, scene.sizes.epoch_ns)
    bad = dataclasses.replace(out, sessions=[dataclasses.replace(session, synced=synced, frames=frames)] + out.sessions[1:])
    problems = checks.check_sync(scene, bad, checks.Quality())
    assert any("out after sync" in p for p in problems)


def test_frames_that_disagree_with_streams_rejected(parking_round):
    scene, out = parking_round
    session = out.sessions[0]
    synced = dict(session.synced)
    synced["cam1"] = synced["cam1"].shifted(200 * MS)
    bad = dataclasses.replace(out, sessions=[dataclasses.replace(session, synced=synced)] + out.sessions[1:])
    problems = checks.check_sync(scene, bad, checks.Quality())
    assert any("frame" in p for p in problems)


def test_removed_fused_detection_rejected(parking_round):
    scene, out = parking_round
    fused = list(out.fused)
    fused[0] = fused[0][1:]
    problems = checks.check_fusion(scene, dataclasses.replace(out, fused=fused), checks.Quality())
    assert any("brute-force components" in p for p in problems)


def test_dropped_query_row_rejected(parking_round):
    scene, out = parking_round
    queries = list(out.queries)
    index = next(i for i, q in enumerate(queries) if q[3])
    device_id, start, end, rows = queries[index]
    queries[index] = (device_id, start, end, rows[:-1])
    problems = checks.check_capture(scene, dataclasses.replace(out, queries=queries))
    assert any("GET /capture" in p for p in problems)


def test_tampered_event_log_rejected(parking_round):
    scene, out = parking_round
    records = list(out.decomposed.records)
    records.remove(next(r for r in records if r["event"] == "complete"))
    tampered = dataclasses.replace(out.decomposed, records=tuple(records))
    problems = checks.check_edge(scene, dataclasses.replace(out, decomposed=tampered), checks.Quality())
    assert any("decomposed" in p for p in problems)


def test_failed_calibration_counted_and_camera_sits_out(monkeypatch):
    scene = make_scene("parking_lot", 7, 0, SMALL["parking_lot"])
    real = pipeline.ransac_fit

    def singular_for_cam2(pairs, **kwargs):
        if pairs is scene.cameras[2].survey:
            raise UsageError("homography must be non-singular")
        return real(pairs, **kwargs)

    monkeypatch.setattr(pipeline, "ransac_fit", singular_for_cam2)
    probe = Probe()
    out = run_round(scene, capture_bodies(scene), probe)
    assert probe.failed == 1
    assert out.uncalibrated == ["cam2"]
    assert all("cam2" not in p for p in out.projected)
    problems, _ = checks.check_round(scene, out)
    assert problems == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    with tracer.stage("outer"):
        tracer.call("inner", sum, range(1000))
    self_times(tracer.spans)
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"]
    assert outer["self_s"] == pytest.approx(outer["end"] - outer["start"] - (inner["end"] - inner["start"]))
    assert tracer.attempted == 1 and tracer.failed == 0


def test_gauge_runs_outside_the_timed_stage():
    probe = Probe()
    with probe.stage("empty"):
        pass
    # the gauge bursts around the stage take far longer than the empty stage
    assert 0 < probe.stage_s["empty"] < probe.gauge_s["empty"]
    assert probe.gauged_s("empty") == pytest.approx(probe.stage_s["empty"] / probe.gauge_s["empty"] * GAUGE_REF_S)
