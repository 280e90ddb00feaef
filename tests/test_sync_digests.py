"""The sync stage's outputs pinned by sha256 on fixed synthetic sessions.

Each session is eight jittered 25 Hz camera-like streams, as one
intersection session is, carrying raise-hold-drop gestures under noise,
plus a stream too short for a full jitter window and a one-sample
stream. The digests cover every frame of ``align_streams`` under three
buffer policies and every refined start of ``fine_tune_event`` around
coarse starts up to 0.4 s off, so a change that claims the same outputs
is held to them bit for bit. The sessions come from numpy's PCG64
stream (``default_rng``); the digests were taken with numpy 2.4.6 and
scipy 1.17.1, and a library that changed that stream or scipy's
``lfilter`` would change them without a fault in this package.
"""

import hashlib
import json

import numpy as np

from sensorstack.eventsync import TimeSeries, fine_tune_event
from sensorstack.timebase import BufferPolicy, SampleStream, SensorSample, StreamDescriptor, align_streams

NS = 1_000_000_000
MS = 1_000_000
PERIOD_NS = 40 * MS
POLICIES = (
    BufferPolicy(b_min=60 * MS, beta=3.0),
    BufferPolicy(b_min=5 * MS, beta=0.7, window=2),
    BufferPolicy(b_min=1, beta=25.0, window=17),
)
EPOCH_NS = 33 * MS


def hand_height(phase: np.ndarray) -> np.ndarray:
    ramp = np.minimum(np.clip(phase / 0.25, 0, 1), np.clip((1 - phase) / 0.25, 0, 1))
    return np.where((phase >= 0) & (phase <= 1), 0.5 - 0.5 * np.cos(np.pi * ramp), 0.0)


def session(seed: int):
    """(streams, gesture starts per stream) of one synthetic session."""
    rng = np.random.default_rng([seed, 18])
    gestures = np.sort(rng.uniform(3.0, 17.0, 3)) * NS
    counts = [500, 500, 480, 520, 500, 510, 30, 1]
    streams, starts = [], {}
    for k, count in enumerate(counts):
        key = f"cam{k}"
        begin = int(rng.integers(0, 2 * PERIOD_NS))
        ts = begin + np.arange(count, dtype=np.int64) * PERIOD_NS + rng.integers(-2 * MS, 2 * MS, count)
        lag = int(rng.integers(-60 * MS, 60 * MS))
        values = rng.normal(0.0, 0.02, count)
        for g in gestures:
            values += hand_height((ts - g - lag) / (2 * NS))
        samples = [
            SensorSample(key, "camera_series", int(t), (float(v),), corrected_ts=int(t))
            for t, v in zip(ts, values)
        ]
        streams.append(SampleStream(StreamDescriptor(key, "camera_series", 25.0), samples))
        if count > 100:
            starts[key] = [int(g) + lag for g in gestures]
    return streams, starts


def frames_digest(streams) -> str:
    digest = hashlib.sha256()
    for policy in POLICIES:
        for frame in align_streams(streams, policy, EPOCH_NS):
            slots = [[key, None if s is None else [s.local_ts, s.corrected_ts]] for key, s in frame.slots.items()]
            digest.update(json.dumps([frame.time, slots]).encode() + b"\n")
    return digest.hexdigest()


def refined_digest(streams, starts, seed: int) -> str:
    rng = np.random.default_rng([seed, 19])
    series = {
        s.key.split("/")[0]: TimeSeries(s.corrected_timestamps(), s.payload_matrix()[:, 0])
        for s in streams
        if s.key.split("/")[0] in starts
    }
    digest = hashlib.sha256()
    for gesture in range(3):
        coarse = {key: own[gesture] + int(rng.integers(-400 * MS, 400 * MS)) for key, own in starts.items()}
        refined = fine_tune_event(series, coarse)
        rows = [[key, r.refined_ns, r.fallback] for key, r in refined.items()]
        digest.update(json.dumps(rows).encode() + b"\n")
    return digest.hexdigest()


# seed -> (frames digest, refined-starts digest)
PINNED = {
    1: (
        "fc338d8d7f7f6be3f46cdf448f7e68ce949187378cccff685b86182a3e4ac4b6",
        "a983a7183195c4b350f7348dff17f87c962f5b54ad563809d64b7ce1a78ea9df",
    ),
    2: (
        "5d08f4d1aaf125aae3c02661efbc267ba08209bda1f364fa4f382886f47600c2",
        "10db8b41c873d18976e597ce1c70c02432b5ca35e9e95afbbd0faf2fc60e509b",
    ),
    3: (
        "97d5195a23132c409233e03206f22732cc6cc094ec4f109dc1c5a59495a62f4d",
        "6c4615476612ad9215f3bb4b49cc3d2c0e95fea684781b170d5ec25f63bea84c",
    ),
}


def test_sync_outputs_match_pinned_digests():
    for seed, (frames, refined) in PINNED.items():
        streams, starts = session(seed)
        assert frames_digest(streams) == frames, seed
        assert refined_digest(streams, starts, seed) == refined, seed
