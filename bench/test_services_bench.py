"""Micro-benchmarks of the capture plane on an intersection-sized store,
and of a parking lot's many small requests.

    PYTHONPATH=src python -m pytest bench                      # timed
    PYTHONPATH=src python -m pytest bench --benchmark-disable  # one call each

The store is fixed: 8 devices, each with three 24 s sessions of 25 Hz
wire samples (1,800 per device, 14,400 in all) with +-2 ms of timestamp
jitter, ingested in batches of 500 in time order, as an intersection
testbed's capture is: in process through ``capture_ingest``, and as
``POST /capture`` requests through ``ServiceRouter``. The queries are
400 windows of 6 s, each on a random device and starting anywhere from
1 s before one of its sessions to 1 s past its last full window.

The parking lot posts its capture in small bodies, so per-request work
dominates: 4 devices, each with two 20 s sessions of 25 Hz one-channel
samples, sent as 400 ``POST /capture``s of 10 samples, session by
session and device by device, every request carrying the same bearer
token for its device.
"""

import bisect
import gc

import numpy as np
import pytest

from sensorstack.services import CoreServices, ServiceRouter

NS = 1_000_000_000
PERIOD_NS = 40_000_000
KEY = b"bench-key"
DEVICES = 8
SESSIONS = 3
SESSION_NS = 24 * NS
SESSION_GAP_NS = 34 * NS
BATCH = 500
WINDOWS = 400
WINDOW_NS = 6 * NS
LOT_DEVICES = 4
LOT_SESSIONS = 2
LOT_SESSION_NS = 20 * NS
LOT_BATCH = 10


def registration(device_id: str) -> dict:
    return {
        "device_id": device_id,
        "type": "sensor",
        "location": {"latitude": 40.7, "longitude": -74.0, "description": "pole mount"},
        "capabilities": ["video_stream"],
        "data_format": "H.264",
        "access_methods": {"api_endpoint": "https://testbed.example/", "protocols": "RTSP"},
        "status": "online",
        "owner": "Testbed",
    }


@pytest.fixture(scope="module")
def captures():
    """Per device: its local timestamps and its wire samples, in time order."""
    rng = np.random.default_rng(2024)
    n = SESSION_NS // PERIOD_NS
    out = {}
    for d in range(DEVICES):
        device_id = f"dev{d}"
        local = np.concatenate([
            100 * NS + k * SESSION_GAP_NS + np.arange(n, dtype=np.int64) * PERIOD_NS
            + rng.integers(-2_000_000, 2_000_000, n)
            for k in range(SESSIONS)
        ]) + int(rng.uniform(-2, 2) * NS)
        samples = [
            {"device_id": device_id, "modality": "camera_series", "local_ts": int(t), "payload": [float(v)]}
            for t, v in zip(local, rng.normal(size=len(local)))
        ]
        out[device_id] = ([int(t) for t in local], samples)
    return out


@pytest.fixture(scope="module")
def windows(captures):
    rng = np.random.default_rng(7)
    out = []
    for _ in range(WINDOWS):
        device_id = f"dev{int(rng.integers(DEVICES))}"
        local = captures[device_id][0]
        k = int(rng.integers(SESSIONS))
        first, last = local[k * len(local) // SESSIONS], local[(k + 1) * len(local) // SESSIONS - 1]
        start = int(rng.integers(first - NS, last - WINDOW_NS + NS))
        out.append((device_id, start, start + WINDOW_NS))
    return out


def registered_services():
    services = CoreServices(KEY)
    admin = services.issue_token("operator", ("admin",), 3600.0).token
    tokens = {f"dev{d}": services.register_device(registration(f"dev{d}"), admin).token for d in range(DEVICES)}
    return services, tokens


def ingest_all(services, tokens, captures):
    for device_id, (_, samples) in captures.items():
        for i in range(0, len(samples), BATCH):
            services.capture_ingest(tokens[device_id], samples[i:i + BATCH])
    return services


def post_all(services, tokens, captures):
    router = ServiceRouter(services)
    for device_id, (_, samples) in captures.items():
        headers = {"Authorization": f"Bearer {tokens[device_id]}"}
        for i in range(0, len(samples), BATCH):
            status, _ = router.handle("POST", "/capture", {"samples": samples[i:i + BATCH]}, headers)
            assert status == 201
    return services


def stored_in_time_order(services, captures):
    app = services.issue_token("app", ("app",), 3600.0).token
    for device_id, (local, _) in captures.items():
        hits = services.query_captures(device_id, -(2**63), 2**63, app)
        assert [r["corrected_ts"] for r in hits] == local


def test_capture_ingest(benchmark, captures):
    services = benchmark.pedantic(
        ingest_all, setup=lambda: (registered_services() + (captures,), {}), rounds=5
    )
    stored_in_time_order(services, captures)


def test_capture_post(benchmark, captures):
    services = benchmark.pedantic(
        post_all, setup=lambda: (registered_services() + (captures,), {}), rounds=5
    )
    stored_in_time_order(services, captures)


def test_query_captures(benchmark, captures, windows):
    services = ingest_all(*registered_services(), captures)
    app = services.issue_token("app", ("app",), 3600.0).token

    def query_all():
        return [services.query_captures(d, start, end, app) for d, start, end in windows]

    results = benchmark(query_all)
    for (device_id, start, end), hits in zip(windows, results):
        local = captures[device_id][0]
        assert len(hits) == bisect.bisect_left(local, end) - bisect.bisect_left(local, start)
        assert all(start <= r["corrected_ts"] < end for r in hits)
    assert sum(len(hits) for hits in results) > 50_000


def test_capture_get(benchmark, captures, windows):
    """The 400 windows as routed ``GET /capture``s, every row list kept alive as perfbench keeps them.

    A row holds only strings, ints and the store's untracked tuples, so
    it is never tracked by the garbage collector: a query adds its row
    list and its activity entry for a collection to walk, not objects
    per row.
    """
    services = ingest_all(*registered_services(), captures)
    router = ServiceRouter(services)
    headers = {"Authorization": f"Bearer {services.issue_token('app', ('app',), 3600.0).token}"}
    queries = [{"device_id": d, "start_ns": str(start), "end_ns": str(end)} for d, start, end in windows]

    def get_all():
        kept = []
        for query in queries:
            status, body = router.handle("GET", "/capture", None, headers, query)
            assert status == 200
            kept.append(body["samples"])
        return kept

    # a collection untracks the stored tuples, as the program's own
    # collections do between an ingest and its queries
    gc.collect()
    tracked = len(gc.get_objects())
    kept = get_all()
    assert len(gc.get_objects()) - tracked < 1_000
    assert sum(map(len, kept)) > 50_000
    benchmark(get_all)


@pytest.fixture(scope="module")
def lot_bodies():
    """The parking lot's 400 ``POST /capture`` bodies, in the order it sends them."""
    rng = np.random.default_rng(11)
    n = LOT_SESSION_NS // PERIOD_NS
    bodies = []
    for k in range(LOT_SESSIONS):
        for d in range(LOT_DEVICES):
            device_id = f"dev{d}"
            local = 100 * NS + k * (LOT_SESSION_NS + 10 * NS) + np.arange(n, dtype=np.int64) * PERIOD_NS
            samples = [
                {"device_id": device_id, "modality": "wearable", "local_ts": int(t), "payload": [float(v)]}
                for t, v in zip(local, rng.normal(size=n))
            ]
            bodies.extend((device_id, samples[i:i + LOT_BATCH]) for i in range(0, n, LOT_BATCH))
    assert len(bodies) == 400
    return bodies


def post_lot(services, tokens, bodies):
    router = ServiceRouter(services)
    headers = {device_id: {"Authorization": f"Bearer {token}"} for device_id, token in tokens.items()}
    for device_id, samples in bodies:
        status, _ = router.handle("POST", "/capture", {"samples": samples}, headers[device_id])
        assert status == 201
    return services


def test_capture_post_small_batches(benchmark, lot_bodies):
    services = benchmark.pedantic(
        post_lot, setup=lambda: (registered_services() + (lot_bodies,), {}), rounds=20
    )
    app = services.issue_token("app", ("app",), 3600.0).token
    for d in range(LOT_DEVICES):
        hits = services.query_captures(f"dev{d}", -(2**63), 2**63, app)
        assert len(hits) == LOT_SESSIONS * LOT_SESSION_NS // PERIOD_NS


def test_validate_repeated_token(benchmark):
    """``CoreServices.validate`` of one device token, as each of its requests validates it."""
    services, tokens = registered_services()
    token = tokens["dev0"]

    def validate_many():
        for _ in range(1_000):
            claims = services.validate(token)
        return claims

    assert benchmark(validate_many)["subject"] == "dev0"
