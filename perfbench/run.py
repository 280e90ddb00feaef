"""Run one SASS testbed workload and print its metrics.

    python3 perfbench/run.py --workload parking_lot --seed 1 --seconds 30 --trace 0

Run from the repository root. Each round generates a fresh scene from
(seed, round), sends it through every service, then checks the
outputs; rounds repeat while another fits in ``--seconds`` (at least
``MIN_ROUNDS``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans with
``--trace 1`` (spans are also written to ``perfbench/out/``). The exit
status is non-zero when any check fails.

Times are gauged: each is divided by the reference burst timed around
its stage and rescaled to the host speed of the reference figures (see
``probe.host_gauge``), so they follow the program, not the host's
swings in speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

# one process, one BLAS thread: load stays within the machine's cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3
END_TO_END_STAGES = ("setup", "ingest", "query", "sync", "fusion", "sweep", "edge")

if not (SRC / "sensorstack" / "__init__.py").is_file():
    sys.exit(f"sensorstack sources not found under {SRC}; run from a repository checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

from checks import Quality, check_pooled, check_round, f1, merge_quality  # noqa: E402
from pipeline import DETECT_STRIDE_NS, DETECT_WINDOW_NS, capture_bodies, run_round  # noqa: E402
from probe import GAUGE_REF_S, Probe, Tracer, self_times, tail_percentile  # noqa: E402
from scenes import WORKLOADS, make_scene  # noqa: E402


def layer_metrics(scene, out, probe: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one round: gauged span times plus counts read off the outputs."""
    stage_of = {s["id"]: s["name"].removeprefix("stage.") for s in probe.spans if s["parent"] is None}
    busy: dict[str, list[float]] = {}
    for span in probe.spans:
        stage = stage_of[span["parent"]] if span["parent"] is not None else stage_of[span["id"]]
        scale = GAUGE_REF_S / probe.gauge_s[stage]
        busy.setdefault(span["name"], []).append((span["end"] - span["start"]) * scale)

    def total(name):
        return sum(busy.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    for name in ("timebase.kalman_update", "timebase.with_clock", "timebase.align_streams",
                 "eventsync.detect_gesture_video", "eventsync.coarse_align", "eventsync.fine_tune_event",
                 "eventsync.apply_sync", "eventsync.dba_template", "fusion.ransac_fit", "fusion.project",
                 "fusion.evaluate_detections", "fusion.deduplicate", "fusion.threshold_sweep",
                 "edgesched.run_simulation", "services.register"):
        m[f"{name}.s"] = (total(name), "s")
    m["timebase.kalman_update.calls"] = (len(busy.get("timebase.kalman_update", ())), "count")

    slots = filled = frames = windows = events = 0
    for result in out.sessions:
        frames += len(result.frames)
        for frame in result.frames:
            slots += len(frame.slots)
            filled += sum(v is not None for v in frame.slots.values())
        for stream in result.corrected.values():
            ts = stream.corrected_timestamps()
            period = int(np.median(np.diff(ts)))
            starts = np.arange(int(ts[0]), int(ts[-1]) - DETECT_WINDOW_NS + period + 1, DETECT_STRIDE_NS)
            spans_n = np.searchsorted(ts, starts + DETECT_WINDOW_NS) - np.searchsorted(ts, starts)
            windows += int((spans_n >= 4).sum())
        events += sum(len(e) for e in result.events.values())
    m["timebase.align_streams.frames"] = (frames, "count")
    m["timebase.align_streams.fill"] = (filled / slots, "1")
    m["eventsync.detect_gesture_video.windows"] = (windows, "count")
    m["eventsync.detect_gesture_video.events"] = (events, "count")
    m["eventsync.coarse_align.pairs"] = (sum(r.pairs for r in out.sessions), "count")
    m["eventsync.fine_tune_event.fallbacks"] = (sum(r.fallbacks for r in out.sessions), "count")

    inliers = sum(int(f.inlier_mask.sum()) for f in out.fits.values())
    surveyed = sum(len(f.inlier_mask) for f in out.fits.values())
    m["fusion.ransac_fit.inlier_ratio"] = (inliers / surveyed, "1")
    m["fusion.project.dropped"] = (sum(len(r.dropped) for p in out.projected for r in p.values()), "count")
    m["fusion.deduplicate.in"] = (sum(len(r.detections) for p in out.projected for r in p.values()), "count")
    m["fusion.deduplicate.out"] = (sum(len(f) for f in out.fused), "count")

    sims = (out.decomposed, out.monolithic)
    m["edgesched.run_simulation.cycles"] = (sum(len(r.snapshots) for r in sims), "count")
    m["edgesched.run_simulation.events"] = (sum(len(r.records) for r in sims), "count")
    m["edgesched.overhead_ms_mean"] = (out.decomposed.metrics.overhead_ms_mean, "ms")
    m["edgesched.queue_depth_max"] = (queue_depth_max(out.decomposed.records), "count")

    for route in ("capture_post", "capture_get"):
        times_ms = [1e3 * t for t in busy.get(f"services.{route}", ())]
        m[f"services.{route}.requests"] = (len(times_ms), "count")
        m[f"services.{route}.p50_ms"] = (float(np.percentile(times_ms, 50.0)), "ms")
        m[f"services.{route}.tail_ms"] = (float(np.percentile(times_ms, tail_percentile(len(times_ms)))), "ms")
    m["services.capture_get.rows"] = (sum(len(q[3]) for q in out.queries), "count")
    return m


def queue_depth_max(records) -> int:
    """Deepest dispatcher queue in a simulator log: arrivals not yet dispatched."""
    depth = deepest = 0
    for record in records:
        if record["event"] == "arrival":
            depth += 1
            deepest = max(deepest, depth)
        elif record["event"] == "dispatch":
            depth -= 1
    return deepest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result["summary"]))
    return 0 if result["summary"]["correct"] else 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None, trace_dir: Path = OUT) -> dict:
    """Rounds until ``seconds`` pass; returns the summary and the raw per-round figures."""
    stage_s: dict[str, list[float]] = {name: [] for name in END_TO_END_STAGES}
    layers: list[dict] = []
    all_spans: list[dict] = []
    quality = Quality()
    problems: list[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    round_s = 0.0
    index = 0
    # a round is begun only while the time left holds one more like the last
    while index < MIN_ROUNDS or time.perf_counter() - started + round_s <= seconds:
        round_started = time.perf_counter()
        gc.unfreeze()
        gc.collect()
        scene = make_scene(workload, seed, index, sizes)
        bodies = capture_bodies(scene)
        # the benchmark's own heap (inputs, truth) is left out of the
        # program's garbage collections
        gc.freeze()
        probe = Tracer(f"{workload}/{seed}/{index}") if trace else Probe()
        out = run_round(scene, bodies, probe)
        attempted += probe.attempted
        failed += probe.failed
        for name in END_TO_END_STAGES:
            stage_s[name].append(probe.gauged_s(name))
        found, round_quality = check_round(scene, out)
        problems.extend(f"round {index}: {p}" for p in found)
        merge_quality(quality, round_quality)
        if trace:
            self_times(probe.spans)
            all_spans.extend(probe.spans)
            layers.append(layer_metrics(scene, out, probe))
        index += 1
        round_s = time.perf_counter() - round_started

    gc.unfreeze()
    problems.extend(check_pooled(quality))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    if trace:
        for name in layers[0]:
            metrics[name] = {"value": statistics.median(r[name][0] for r in layers), "unit": layers[0][name][1]}
        _write_trace(trace_dir / f"trace-{workload}-{seed}.json", all_spans)
    else:
        for name in END_TO_END_STAGES:
            # the median over rounds of each round's gauged stage time
            metrics[f"{name}_s"] = {"value": statistics.median(stage_s[name]), "unit": "s"}
        metrics["sync_mae_ms"] = {"value": statistics.fmean(quality.residual_ms), "unit": "ms"}
        metrics["fused_f1"] = {"value": f1(quality.fused), "unit": "1"}
        metrics["edge_speedup"] = {"value": quality.decomposed_per_s / quality.monolithic_per_s, "unit": "x"}

    print(
        f"{workload} seed {seed}: {index} rounds; misalignment clock-only "
        f"{statistics.fmean(quality.clock_only_ms):.1f} ms -> synced {statistics.fmean(quality.residual_ms):.1f} ms; "
        f"fused F1 {f1(quality.fused):.3f} vs best single camera "
        f"{max(f1(c) for c in quality.single.values()):.3f}; throughput decomposed "
        f"{quality.decomposed_per_s / index:.1f}/s vs monolithic {quality.monolithic_per_s / index:.2f}/s; "
        f"sweep recall drops as the threshold tightens: {quality.recall_drops}",
        file=sys.stderr,
    )
    summary = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"summary": summary, "stage_s": stage_s, "problems": problems}


def _write_trace(path: Path, spans: list[dict]) -> None:
    """Spans (with self time) to a JSON file, and self time per span name to stderr."""
    path.parent.mkdir(exist_ok=True)
    origin = min(s["start"] for s in spans)
    rows = [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in spans]
    path.write_text(json.dumps(rows))
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["self_s"])
    print(f"spans written to {path}; self time per span name (s, summed over rounds):", file=sys.stderr)
    for name, values in sorted(by_name.items(), key=lambda kv: -sum(kv[1])):
        print(f"  {name:36s} {sum(values):10.4f}  x{len(values)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
