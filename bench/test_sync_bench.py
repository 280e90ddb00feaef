"""Micro-benchmarks of the time-sync hot spots on one 25 Hz camera stream.

    PYTHONPATH=src python -m pytest bench                      # timed
    PYTHONPATH=src python -m pytest bench --benchmark-disable  # one call each

The stream is fixed: 24 s of hand height at 25 Hz with +-2 ms of
timestamp jitter and noise of sigma 0.02, carrying one 2 s
raise-hold-drop gesture that starts at 10 s, from a device whose clock
runs 0.4 s ahead and drifts 20 ppm, as an intersection testbed's camera
stream is. The entropy runs over the whole stream with the
fine-tuning's 300 ms window and one-period stride; the fine-tuning
starts from a coarse start 150 ms late. Gesture detection scans the
whole stream for a 2 s template with the testbed pipeline's 2.4 s
window and 250 ms stride.

Frame alignment runs over one intersection session's worth of streams:
five 25 Hz cameras and three 50 Hz wearables of 24 s each, +-2 ms of
jitter, on a 20 ms epoch grid with a 60 ms floor and beta 3. The filter
design runs at the rate of a jittered 25 Hz window (one period of
40.123 ms), and the Kalman step folds one clock exchange into a model
that has seen 20, with the testbed's 2 ms measurement noise.
"""

import numpy as np
import pytest

from sensorstack.eventsync import (
    GestureTemplate,
    TimeSeries,
    design_lowpass,
    detect_gesture_video,
    fine_tune_event,
    sliding_entropy,
)
from sensorstack.timebase import (
    BufferPolicy,
    ClockModel,
    NoiseConfig,
    SampleStream,
    SensorSample,
    StreamDescriptor,
    align_streams,
    kalman_update,
)

NS = 1_000_000_000
PERIOD_NS = 40_000_000
GESTURE_NS = 110 * NS
ENTROPY_WINDOW_NS = 300_000_000
DETECT_WINDOW_NS = 2_400_000_000
DETECT_STRIDE_NS = 250_000_000


def hand_height(phase: np.ndarray) -> np.ndarray:
    """Rise over the first quarter of the gesture, hold, drop over the last quarter."""
    ramp = np.minimum(np.clip(phase / 0.25, 0, 1), np.clip((1 - phase) / 0.25, 0, 1))
    return np.where((phase >= 0) & (phase <= 1), 0.5 - 0.5 * np.cos(np.pi * ramp), 0.0)


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(2024)
    n = 24 * NS // PERIOD_NS
    true_ns = 100 * NS + np.arange(n, dtype=np.int64) * PERIOD_NS + rng.integers(-2_000_000, 2_000_000, n)
    values = rng.normal(0.0, 0.02, n) + hand_height((true_ns - GESTURE_NS) / (2 * NS))
    local = true_ns + np.round(0.4 * NS + 2e-5 * true_ns).astype(np.int64)
    samples = tuple(SensorSample("cam1", "camera_series", int(t), (float(v),)) for t, v in zip(local, values))
    return SampleStream(StreamDescriptor("cam1", "camera_series", 25.0), samples)


@pytest.fixture(scope="module")
def model(stream):
    return ClockModel(-0.4, -2e-5, int(stream.local_timestamps()[0]), np.zeros((2, 2)))


@pytest.fixture(scope="module")
def series(stream, model):
    corrected = stream.with_clock(model)
    return TimeSeries(corrected.corrected_timestamps(), corrected.payload_matrix()[:, 0])


def test_with_clock(benchmark, stream, model):
    corrected = benchmark(stream.with_clock, model)
    ts = corrected.corrected_timestamps()
    assert len(ts) == len(stream) and np.all(np.diff(ts) > 0)


def test_shifted(benchmark, stream, model):
    corrected = stream.with_clock(model)
    moved = benchmark(corrected.shifted, -123_456_789)
    assert np.array_equal(moved.corrected_timestamps() - corrected.corrected_timestamps(), np.full(len(stream), -123_456_789))


def test_sliding_entropy(benchmark, series):
    entropy = benchmark(sliding_entropy, series, ENTROPY_WINDOW_NS, PERIOD_NS)
    assert len(entropy) > 500
    peak = int(entropy.timestamps[np.argmax(entropy.values)])
    assert GESTURE_NS - NS < peak < GESTURE_NS + 3 * NS


def test_fine_tune_event(benchmark, series):
    refined = benchmark(fine_tune_event, {"cam1": series}, {"cam1": GESTURE_NS + 150_000_000})
    assert not refined["cam1"].fallback
    assert abs(refined["cam1"].refined_ns - GESTURE_NS) < 150_000_000


def test_detect_gesture_video(benchmark, series):
    template = GestureTemplate(hand_height(np.linspace(0.0, 1.0, 50)), 25.0)
    events = benchmark(detect_gesture_video, series, template, DETECT_WINDOW_NS, DETECT_STRIDE_NS, "cam1")
    assert len(events) == 1
    assert abs(events[0].start - GESTURE_NS) < 250_000_000


@pytest.fixture(scope="module")
def session_streams():
    rng = np.random.default_rng(2025)
    streams = []
    for k, (modality, period_ns) in enumerate([("camera_series", PERIOD_NS)] * 5 + [("wearable", PERIOD_NS // 2)] * 3):
        n = 24 * NS // period_ns
        ts = 100 * NS + np.arange(n, dtype=np.int64) * period_ns + rng.integers(-2_000_000, 2_000_000, n)
        device = f"dev{k}"
        samples = [SensorSample(device, modality, int(t), (float(v),), corrected_ts=int(t)) for t, v in zip(ts, rng.normal(size=n))]
        streams.append(SampleStream(StreamDescriptor(device, modality, NS / period_ns), samples))
    return streams


def test_align_streams(benchmark, session_streams):
    policy = BufferPolicy(b_min=60_000_000, beta=3.0)
    frames = benchmark(align_streams, session_streams, policy, 20_000_000)
    assert len(frames) > 1150
    assert all(len(f.slots) == 8 for f in frames)


def test_design_lowpass(benchmark):
    rate = NS / 40_123_457
    b, a = benchmark(design_lowpass, 4, 5.0, rate)
    assert len(b) == len(a) == 5 and a[0] == 1.0
    assert np.sum(b) / np.sum(a) == pytest.approx(1.0)


def test_kalman_update(benchmark):
    noise = NoiseConfig(measurement_var=(2e-3) ** 2)
    model = ClockModel.initial(0)
    for k in range(20):
        t = k * NS
        model = kalman_update(model, (t, t + 400_000_000 + round(2e-5 * t)), noise)
    observation = (20 * NS, 20 * NS + 400_000_000 + round(2e-5 * 20 * NS))
    updated = benchmark(kalman_update, model, observation, noise)
    assert updated.last_sync == 20 * NS
    assert abs(updated.offset - (0.4 + 2e-5 * 20)) < 1e-6
