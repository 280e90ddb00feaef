"""One benchmark round: a scene through every SASS service.

Stages run in the order a deployment meets them: set-up (devices
register, the gesture template is built, cameras calibrate), capture
ingest and query through ``ServiceRouter.handle``, time sync, fusion,
the threshold sweep and the edge simulation. Each stage is timed as a
whole; inside it the benchmark calls only public program functions,
through the probe. Wire bodies are built before the round starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sensorstack.edgesched import SchedulerConfig, SimResult, run_simulation
from sensorstack.errors import SensorStackError
from sensorstack.eventsync import (
    EventDetection,
    GestureTemplate,
    TimeSeries,
    apply_sync,
    coarse_align,
    dba_template,
    detect_gesture_video,
    fine_tune_event,
)
from sensorstack.fusion import (
    FusedDetection,
    ProjectionResult,
    RansacResult,
    SweepRow,
    deduplicate,
    evaluate_detections,
    project,
    ransac_fit,
    threshold_sweep,
)
from sensorstack.services import CoreServices, ServiceRouter
from sensorstack.timebase import (
    AlignedFrame,
    BufferPolicy,
    ClockModel,
    NoiseConfig,
    SampleStream,
    align_streams,
    kalman_update,
)

from probe import Probe
from scenes import MS, RATE_HZ, Scene

KEY = b"streetscape-testbed-key"
CLOCK_NOISE = NoiseConfig(measurement_var=(2e-3) ** 2)
BUFFER = BufferPolicy(b_min=60 * MS, beta=3.0)
# A window just wider than the 2 s gesture keeps the warp-path onset
# within fine_tune_event's +-1 s search; the 4 s default does not.
DETECT_WINDOW_NS = 2_400_000_000
DETECT_STRIDE_NS = 250_000_000
MERGE_THRESHOLD_M = 2.5
RANSAC_THRESHOLD_M = 0.5
RANSAC_ITERATIONS = 200


def auth(token: str) -> dict:
    return {"Authorization": f"Bearer {token}"}


def capture_bodies(scene: Scene) -> list[tuple[str, list[dict]]]:
    """Every raw sample as POST /capture bodies, in small or large batches."""
    batch = scene.sizes.post_batch
    bodies = []
    for session in scene.sessions:
        for device_id, stream in session.streams.items():
            wire = [
                {"device_id": s.device_id, "modality": s.modality, "local_ts": s.local_ts, "payload": list(s.payload)}
                for s in stream.samples
            ]
            bodies.extend((device_id, wire[i : i + batch]) for i in range(0, len(wire), batch))
    return bodies


@dataclass
class SessionOutput:
    corrected: dict[str, SampleStream]
    synced: dict[str, SampleStream]
    events: dict[str, tuple[EventDetection, ...]]
    pairs: int
    fallbacks: int
    frames: list[AlignedFrame]


@dataclass
class RoundOutput:
    template: GestureTemplate | None = None
    fits: dict[str, RansacResult] = field(default_factory=dict)
    uncalibrated: list[str] = field(default_factory=list)
    posted: list[tuple[str, list[dict], dict]] = field(default_factory=list)
    queries: list[tuple[str, int, int, list[dict]]] = field(default_factory=list)
    sessions: list[SessionOutput] = field(default_factory=list)
    projected: list[dict[str, ProjectionResult]] = field(default_factory=list)
    fused: list[tuple[FusedDetection, ...]] = field(default_factory=list)
    scores: list[dict] = field(default_factory=list)
    sweeps: list[tuple[SweepRow, ...]] = field(default_factory=list)
    decomposed: SimResult | None = None
    monolithic: SimResult | None = None


def run_round(scene: Scene, bodies, probe: Probe) -> RoundOutput:
    out = RoundOutput()

    with probe.stage("setup"):
        services = CoreServices(KEY)
        router = ServiceRouter(services)
        admin = services.issue_token("operator", ("admin",), 3600.0).token
        app = probe.request(
            "services.token", router, "POST", "/tokens",
            body={"subject": "streetscape-app", "roles": ["app"], "ttl_s": 3600},
            headers=auth(admin),
        )["token"]
        device_tokens = {}
        for registration in scene.registrations:
            reply = probe.request("services.register", router, "POST", "/devices", body=registration, headers=auth(admin))
            device_tokens[registration["device_id"]] = reply["device_token"]
        out.template = probe.call("eventsync.dba_template", dba_template, scene.exemplars, sample_rate_hz=RATE_HZ)
        for index, camera in enumerate(scene.cameras):
            try:
                out.fits[camera.camera_id] = probe.call(
                    "fusion.ransac_fit", ransac_fit, camera.survey,
                    inlier_threshold=RANSAC_THRESHOLD_M, max_iterations=RANSAC_ITERATIONS, seed=index,
                )
            except SensorStackError:
                # counted as a failed operation; the camera sits out the round
                out.uncalibrated.append(camera.camera_id)

    with probe.stage("ingest"):
        for device_id, batch in bodies:
            reply = probe.request(
                "services.capture_post", router, "POST", "/capture",
                body={"samples": batch}, headers=auth(device_tokens[device_id]),
            )
            out.posted.append((device_id, batch, reply))

    with probe.stage("query"):
        for device_id, start, end in scene.get_windows:
            reply = probe.request(
                "services.capture_get", router, "GET", "/capture", headers=auth(app),
                query={"device_id": device_id, "start_ns": str(start), "end_ns": str(end)},
            )
            out.queries.append((device_id, start, end, reply["samples"]))

    with probe.stage("sync"):
        for session in scene.sessions:
            out.sessions.append(_sync_session(scene, session, out.template, probe))

    calibrated = [c.camera_id for c in scene.cameras if c.camera_id in out.fits]
    with probe.stage("fusion"):
        for frame in scene.frames:
            per_camera = {
                cam: probe.call("fusion.project", project, frame.detections[cam], out.fits[cam].transform)
                for cam in calibrated
            }
            merged_in = [d for cam in calibrated for d in per_camera[cam].detections]
            fused = probe.call("fusion.deduplicate", deduplicate, merged_in, MERGE_THRESHOLD_M)
            out.projected.append(per_camera)
            out.fused.append(fused)
            out.scores.append(probe.call("fusion.evaluate_detections", evaluate_detections, fused, frame.truth))

    with probe.stage("sweep"):
        for index in range(scene.sizes.sweep_frames):
            merged_in = [d for cam in calibrated for d in out.projected[index][cam].detections]
            out.sweeps.append(
                probe.call("fusion.threshold_sweep", threshold_sweep, merged_in, scene.frames[index].truth)
            )

    (workload, topology), (mono_workload, mono_topology) = scene.edge_inputs()
    config = SchedulerConfig()
    with probe.stage("edge"):
        out.decomposed = probe.call(
            "edgesched.run_simulation", run_simulation, workload, topology, config, seed=scene.edge_seed
        )
        out.monolithic = probe.call(
            "edgesched.run_simulation", run_simulation, mono_workload, mono_topology, config, seed=scene.edge_seed
        )
    return out


def _sync_session(scene: Scene, session, template, probe: Probe) -> SessionOutput:
    corrected = {}
    for device_id, stream in session.streams.items():
        exchanges = session.exchanges[device_id]
        model = ClockModel.initial(exchanges[0][0])
        for observation in exchanges:
            model = probe.call("timebase.kalman_update", kalman_update, model, observation, CLOCK_NOISE)
        model = model.at_anchor(stream.samples[0].local_ts)
        corrected[device_id] = probe.call("timebase.with_clock", stream.with_clock, model)

    series = {
        device_id: TimeSeries(stream.corrected_timestamps(), stream.payload_matrix()[:, 0])
        for device_id, stream in corrected.items()
    }
    events = {
        device_id: probe.call(
            "eventsync.detect_gesture_video", detect_gesture_video, s, template,
            window_ns=DETECT_WINDOW_NS, stride_ns=DETECT_STRIDE_NS, stream_id=device_id,
        )
        for device_id, s in series.items()
    }

    ref = scene.reference_id
    by_gesture: dict[int, dict[str, int]] = {}
    pairs = 0
    for device_id in series:
        if device_id == ref:
            continue
        for pair in probe.call("eventsync.coarse_align", coarse_align, events[ref], events[device_id]):
            by_gesture.setdefault(pair.a.start, {ref: pair.a.start})[device_id] = pair.b.start
            pairs += 1

    fallbacks = 0
    refined_ref: dict[str, list[int]] = {}
    refined_own: dict[str, list[int]] = {}
    for coarse in by_gesture.values():
        refined = probe.call("eventsync.fine_tune_event", fine_tune_event, series, coarse)
        fallbacks += sum(r.fallback for r in refined.values())
        for device_id, start in refined.items():
            if device_id != ref:
                refined_ref.setdefault(device_id, []).append(refined[ref].refined_ns)
                refined_own.setdefault(device_id, []).append(start.refined_ns)

    synced = {ref: corrected[ref]}
    for device_id in series:
        if device_id == ref:
            continue
        if device_id not in refined_own:
            synced[device_id] = corrected[device_id]
            continue
        shifted = probe.call(
            "eventsync.apply_sync", apply_sync,
            {ref: corrected[ref], device_id: corrected[device_id]},
            {ref: refined_ref[device_id], device_id: refined_own[device_id]},
            ref,
        )
        synced[device_id] = shifted[device_id]

    frames = probe.call("timebase.align_streams", align_streams, list(synced.values()), BUFFER, scene.sizes.epoch_ns)
    return SessionOutput(corrected, synced, events, pairs, fallbacks, frames)
