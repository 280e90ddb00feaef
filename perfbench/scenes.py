"""Seeded scene generators for the two SASS testbeds.

A scene is everything one benchmark round feeds to the program: device
registrations, the raw samples devices capture, clock-exchange pairs,
gesture exemplars, camera calibration surveys, per-frame detections,
and the edge workload. Every value comes from ``numpy.random`` seeded
by the benchmark seed, except the camera rig and its calibration
survey, which are fixed per testbed (cameras are mounted once).
The ground truth needed by the checks travels alongside and never
reaches the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sensorstack.edgesched import NodeSpec, StageSpec, TopologySpec, WorkloadSpec
from sensorstack.fusion import CATEGORIES, Detection, ObjectTruth, PointPair
from sensorstack.timebase import SampleStream, SensorSample, StreamDescriptor

NS = 1_000_000_000
MS = 1_000_000
RATE_HZ = 25.0
PERIOD_NS = 40_000_000
GESTURE_S = 2.0
NOISE = 0.02
IMAGE_W, IMAGE_H = 1280.0, 720.0
FOCAL_PX = 700.0


@dataclass(frozen=True)
class Sizes:
    """Every size a workload is scaled by."""

    cameras: int
    wearables: int
    sessions: int
    session_s: float
    gestures: int
    exchange_period_s: float
    epoch_ns: int
    post_batch: int
    get_windows: int
    get_window_s: float
    field_m: tuple[float, float]
    objects: int
    frames: int
    sweep_frames: int
    edge_scale: int
    edge_duration_s: float


# The controlled lot: few devices, many short sessions, small frames, the
# edge pipeline at the paper's scale, write-heavy capture.
PARKING_LOT = Sizes(
    cameras=3,
    wearables=1,
    sessions=2,
    session_s=20.0,
    gestures=3,
    exchange_period_s=0.5,
    epoch_ns=20 * MS,
    post_batch=10,
    get_windows=48,
    get_window_s=4.0,
    field_m=(40.0, 30.0),
    objects=15,
    frames=20,
    sweep_frames=3,
    edge_scale=1,
    edge_duration_s=10.0,
)

# The urban intersection: many long streams, crowded frames, the edge
# pipeline at x16, a large capture store read by many windowed queries.
INTERSECTION = Sizes(
    cameras=5,
    wearables=3,
    sessions=3,
    session_s=24.0,
    gestures=4,
    exchange_period_s=1.0,
    epoch_ns=20 * MS,
    post_batch=500,
    get_windows=400,
    get_window_s=6.0,
    field_m=(60.0, 60.0),
    objects=60,
    frames=8,
    sweep_frames=4,
    edge_scale=16,
    edge_duration_s=1.0,
)

WORKLOADS = {"parking_lot": PARKING_LOT, "intersection": INTERSECTION}


# -- sync ---------------------------------------------------------------------


def raise_hold_drop(x: np.ndarray) -> np.ndarray:
    """Hand height over gesture phase x in [0, 1]: rise, plateau, fall."""
    ramp = np.minimum(np.clip(x / 0.25, 0, 1), np.clip((1 - x) / 0.25, 0, 1))
    inside = (x >= 0) & (x <= 1)
    return np.where(inside, 0.5 - 0.5 * np.cos(np.pi * ramp), 0.0)


@dataclass(frozen=True)
class DeviceTruth:
    device_id: str
    modality: str
    latency_ns: int
    offset_s: float
    drift: float


@dataclass(frozen=True)
class Session:
    """One recording session: a stream per device plus clock exchanges.

    ``content_ns`` holds, per device, the true time of the world state
    each sample shows; it is truth for the checks only.
    """

    streams: dict[str, SampleStream]
    exchanges: dict[str, tuple[tuple[int, int], ...]]
    content_ns: dict[str, np.ndarray]
    gesture_ns: tuple[int, ...]


def _local_clock(device: DeviceTruth, t_ns: np.ndarray) -> np.ndarray:
    """A device's clock reading at true times t_ns: offset plus drift."""
    t = np.asarray(t_ns, dtype=np.int64)
    return t + np.round(device.offset_s * NS + device.drift * t).astype(np.int64)


def _session(rng, devices, sizes: Sizes, start_ns: int) -> Session:
    length_ns = int(sizes.session_s * NS)
    # gestures sit on a jittered even grid, 3 s clear of the session edges
    # and at least 2 s apart
    slot = (length_ns - 6 * NS) // sizes.gestures
    spare = slot - int(GESTURE_S * NS) - 2 * NS
    if spare < 0:
        raise ValueError("session too short for its gestures")
    gesture_ns = tuple(start_ns + 3 * NS + k * slot + int(rng.uniform(0, spare)) for k in range(sizes.gestures))
    gesture_len = int(GESTURE_S * NS)
    streams, exchanges, content = {}, {}, {}
    for device in devices:
        n = int(length_ns // PERIOD_NS)
        true_ns = start_ns + np.arange(n, dtype=np.int64) * PERIOD_NS + rng.integers(-2 * MS, 2 * MS, n)
        content_ns = true_ns - device.latency_ns
        amp = rng.uniform(0.9, 1.1)
        values = rng.normal(0.0, NOISE, n)
        for g in gesture_ns:
            values += amp * raise_hold_drop((content_ns - g) / gesture_len)
        local = _local_clock(device, true_ns)
        descriptor = StreamDescriptor(device.device_id, device.modality, RATE_HZ)
        streams[device.device_id] = SampleStream(
            descriptor,
            tuple(
                SensorSample(device.device_id, device.modality, int(ts), (float(v),))
                for ts, v in zip(local, values)
            ),
        )
        ex_true = np.arange(start_ns, start_ns + length_ns, int(sizes.exchange_period_s * NS), dtype=np.int64)
        ex_local = _local_clock(device, ex_true)
        ex_ref = ex_true + np.round(rng.normal(0.0, 2 * MS, len(ex_true))).astype(np.int64)
        exchanges[device.device_id] = tuple((int(a), int(b)) for a, b in zip(ex_local, ex_ref))
        content[device.device_id] = content_ns
    return Session(streams, exchanges, content, gesture_ns)


def _exemplars(rng, count: int = 6) -> tuple[np.ndarray, ...]:
    """Recorded gesture instances, each warped and noisy, for the template."""
    out = []
    for _ in range(count):
        length = int(rng.integers(45, 56))
        x = np.linspace(0, 1, length) ** rng.uniform(0.85, 1.15)
        recorded = raise_hold_drop(x) * rng.uniform(0.95, 1.05) + rng.normal(0, NOISE, length)
        # exemplars are cut at the onset and levelled to their first sample
        out.append(recorded - recorded[0])
    return tuple(out)


# -- fusion -------------------------------------------------------------------


@dataclass(frozen=True)
class Camera:
    camera_id: str
    world_to_image: np.ndarray
    position: tuple[float, float]
    range_m: float
    survey: tuple[PointPair, ...]
    survey_mismatched: tuple[bool, ...]


@dataclass(frozen=True)
class Frame:
    ts: int
    truth: tuple[ObjectTruth, ...]
    detections: dict[str, tuple[Detection, ...]]


def _homography(position, height, yaw, pitch) -> np.ndarray:
    forward = np.array([np.cos(yaw) * np.cos(pitch), np.sin(yaw) * np.cos(pitch), -np.sin(pitch)])
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.vstack([right, down, forward])
    center = np.array([position[0], position[1], height])
    t = -rot @ center
    k = np.array([[FOCAL_PX, 0, IMAGE_W / 2], [0, FOCAL_PX, IMAGE_H / 2], [0, 0, 1]])
    # left unnormalized: the sign of the third row tells in front from behind
    return k @ np.column_stack([rot[:, 0], rot[:, 1], t])


def to_image(h: np.ndarray, world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates of ground points and whether each lies in view."""
    pts = np.atleast_2d(np.asarray(world, dtype=float))
    m = np.hstack([pts, np.ones((len(pts), 1))]) @ h.T
    in_front = m[:, 2] > 1e-6
    px = m[:, :2] / np.where(in_front, m[:, 2], 1.0)[:, None]
    inside = in_front & (px[:, 0] >= 0) & (px[:, 0] < IMAGE_W) & (px[:, 1] >= 0) & (px[:, 1] < IMAGE_H)
    return px, inside


def _rig(sizes: Sizes, testbed_key: int) -> tuple[Camera, ...]:
    """The fixed camera rig of a testbed and its calibration survey."""
    rng = np.random.default_rng(1000 + testbed_key)
    fx, fy = sizes.field_m
    middle = np.array([fx / 2, fy / 2])
    cameras = []
    for c in range(sizes.cameras):
        angle = 2 * np.pi * c / sizes.cameras + rng.uniform(-0.2, 0.2)
        radius = 0.5 * max(fx, fy) + rng.uniform(2.0, 6.0)
        position = middle + radius * np.array([np.cos(angle), np.sin(angle)])
        look = middle + rng.uniform(-0.15, 0.15, 2) * np.array([fx, fy])
        yaw = float(np.arctan2(*(look - position)[::-1]))
        h = _homography(position, rng.uniform(7.0, 10.0), yaw, np.radians(rng.uniform(22, 32)))
        range_m = 0.8 * max(fx, fy)
        candidates = rng.uniform([0, 0], [fx, fy], (4000, 2))
        _, ok = to_image(h, candidates)
        ok &= np.hypot(*(candidates - position).T) <= range_m
        world = candidates[ok][:60]
        px, _ = to_image(h, world)
        px = px + rng.normal(0, 0.5, px.shape)
        targets = world.copy()
        mismatched = np.zeros(len(world), dtype=bool)
        wrong = rng.choice(len(world), size=12, replace=False)
        targets[wrong] = targets[np.roll(wrong, 1)]
        mismatched[wrong] = True
        survey = tuple(PointPair(tuple(s), tuple(t)) for s, t in zip(px, targets))
        cameras.append(Camera(f"cam{c}", h, tuple(position), range_m, survey, tuple(mismatched)))
    return tuple(cameras)


def _frames(rng, sizes: Sizes, cameras, first_ts: int) -> tuple[Frame, ...]:
    fx, fy = sizes.field_m
    frames = []
    for f in range(sizes.frames):
        ts = first_ts + f * PERIOD_NS
        cats = rng.choice(CATEGORIES, size=sizes.objects, p=(0.6, 0.4))
        where = rng.uniform([0, 0], [fx, fy], (sizes.objects, 2))
        truth = tuple(ObjectTruth(str(c), tuple(p)) for c, p in zip(cats, where))
        per_camera = {}
        for cam in cameras:
            dets = []
            for obj, p in zip(truth, where):
                if np.hypot(*(p - cam.position)) > cam.range_m or rng.random() < 0.3:
                    continue
                spread = 0.25 if obj.category == "pedestrian" else 0.4
                seen = p + rng.normal(0, spread, 2)
                px, ok = to_image(cam.world_to_image, seen)
                if ok[0]:
                    dets.append(Detection(cam.camera_id, obj.category, tuple(px[0]), float(rng.uniform(0.5, 0.95)), ts))
            for _ in range(rng.poisson(0.3)):
                clutter = (float(rng.uniform(0, IMAGE_W)), float(rng.uniform(IMAGE_H / 2, IMAGE_H)))
                dets.append(Detection(cam.camera_id, str(rng.choice(CATEGORIES)), clutter, float(rng.uniform(0.3, 0.6)), ts))
            order = rng.permutation(len(dets))
            per_camera[cam.camera_id] = tuple(dets[i] for i in order)
        frames.append(Frame(ts, truth, per_camera))
    return tuple(frames)


# -- edge -----------------------------------------------------------------------


def decomposed_pipeline(scale: int, duration_ns: int) -> WorkloadSpec:
    """Eight stages at 30/s each (x scale): six light filters, two heavy steps."""
    rate = 30.0 * scale
    stages = [StageSpec(f"filter{i}", "light", 30 * MS, 2.0, rate) for i in range(6)]
    stages += [
        StageSpec("detect", "heavy", 45 * MS, 1.0, rate),
        StageSpec("fuse", "heavy", 200 * MS, 1.0, rate),
    ]
    return WorkloadSpec(stages=tuple(stages), duration_ns=duration_ns)


def tiered_topology(scale: int) -> TopologySpec:
    return TopologySpec(
        nodes=tuple(
            [NodeSpec(f"m{i}", "medium", 2) for i in range(4 * scale)]
            + [NodeSpec(f"cu{i}", "computation_unit", 4) for i in range(2 * scale)]
        )
    )


MONOLITH_DEMAND_NS = 425 * MS


def monolithic_workload(scale: int, duration_ns: int) -> WorkloadSpec:
    """The same pipeline as one 425 ms task per frame, on one device."""
    return WorkloadSpec(
        stages=(StageSpec("monolith", "light", MONOLITH_DEMAND_NS, 1.0, 30.0 * scale),),
        duration_ns=duration_ns,
    )


def single_device_topology() -> TopologySpec:
    return TopologySpec(nodes=(NodeSpec("dev0", "medium", 1, overload_threshold=1.0),))


# -- whole scene ----------------------------------------------------------------


@dataclass(frozen=True)
class Scene:
    """One round's program inputs, plus the truth the checks need."""

    sizes: Sizes
    devices: tuple[DeviceTruth, ...]
    registrations: tuple[dict, ...]
    sessions: tuple[Session, ...]
    exemplars: tuple[np.ndarray, ...]
    cameras: tuple[Camera, ...]
    frames: tuple[Frame, ...]
    get_windows: tuple[tuple[str, int, int], ...]
    edge_seed: int
    reference_id: str = "cam0"

    def edge_inputs(self):
        duration = int(self.sizes.edge_duration_s * NS)
        scale = self.sizes.edge_scale
        return (
            (decomposed_pipeline(scale, duration), tiered_topology(scale)),
            (monolithic_workload(scale, duration), single_device_topology()),
        )


def _registration(device: DeviceTruth, rng) -> dict:
    camera = device.modality == "camera_series"
    return {
        "device_id": device.device_id,
        "type": "sensor",
        "location": {
            "latitude": float(40.7 + rng.uniform(-0.001, 0.001)),
            "longitude": float(-74.0 + rng.uniform(-0.001, 0.001)),
            "description": "pole mount" if camera else "worn by a participant",
        },
        "capabilities": ["video_stream", "detect", "track"] if camera else ["height"],
        "data_format": "H.264" if camera else "json",
        "access_methods": {"api_endpoint": "https://testbed.example/", "protocols": "RTSP" if camera else "BLE"},
        "status": "online",
        "owner": "Testbed",
    }


def make_scene(name: str, seed: int, variant: int, sizes: Sizes | None = None) -> Scene:
    """One variant of a workload's scene; same arguments give the same scene."""
    sizes = sizes or WORKLOADS[name]
    testbed_key = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, variant, testbed_key])

    devices = [
        DeviceTruth(
            f"cam{i}" if i < sizes.cameras else f"wear{i - sizes.cameras}",
            "camera_series" if i < sizes.cameras else "wearable",
            int(rng.uniform(30, 250) * MS),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-40e-6, 40e-6)),
        )
        for i in range(sizes.cameras + sizes.wearables)
    ]
    registrations = tuple(_registration(d, rng) for d in devices)
    session_gap = int((sizes.session_s + 10.0) * NS)
    sessions = tuple(
        _session(rng, devices, sizes, start_ns=100 * NS + k * session_gap) for k in range(sizes.sessions)
    )
    exemplars = _exemplars(rng)
    cameras = _rig(sizes, testbed_key)
    frames = _frames(rng, sizes, cameras, first_ts=100 * NS)

    windows = []
    window_ns = int(sizes.get_window_s * NS)
    for _ in range(sizes.get_windows):
        device = devices[int(rng.integers(len(devices)))]
        session = sessions[int(rng.integers(len(sessions)))]
        local = session.streams[device.device_id].local_timestamps()
        start = int(rng.integers(int(local[0]) - NS, int(local[-1]) - window_ns + NS))
        windows.append((device.device_id, start, start + window_ns))

    return Scene(
        sizes=sizes,
        devices=tuple(devices),
        registrations=registrations,
        sessions=sessions,
        exemplars=exemplars,
        cameras=cameras,
        frames=frames,
        get_windows=tuple(windows),
        edge_seed=int(rng.integers(2**31)),
    )
