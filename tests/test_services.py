"""Tests for the device control plane: registry, versions, actions, capture."""

from __future__ import annotations

import base64
import copy
import gc
import hashlib
import hmac
import itertools
import json
import math
import random
import sys
import threading
import time
import urllib.request
import uuid
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    CaptureRouterOracle,
    budget,
    format_ids_fstring,
    format_timestamp_strftime,
    query_captures_scan,
)
from sensorstack.errors import (
    AuthError,
    ConflictError,
    IntegrityError,
    NotFoundError,
    SensorStackError,
    UsageError,
    ValidationError,
)
from sensorstack.services import (
    AccessToken,
    ActionCommand,
    ActivityLogEntry,
    CoreServices,
    FileLog,
    MemoryLog,
    ServiceRouter,
    canonical_json,
    format_timestamp,
    issue_token,
    record_from_payload,
    replay_log,
    require_role,
    serve,
    validate_token,
)
from sensorstack.services import registry
from sensorstack.services.types import parse_timestamp
from sensorstack.timebase import MODALITIES

KEY = b"unit-test-key"

RECORD_FIELDS = [
    "device_id",
    "type",
    "location",
    "capabilities",
    "data_format",
    "access_methods",
    "status",
    "last_sync_timestamp",
    "registration_timestamp",
    "owner",
]


def ticking_clock(start=1_700_000_000.0, step=0.25):
    state = {"t": start}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def counting_clock(start=1_000.0):
    """A clock the test moves by hand, and the number of times it was read."""
    state = {"t": start, "reads": 0}

    def clock():
        state["reads"] += 1
        return state["t"]

    return clock, state


def outcome(call):
    """``("value", result)`` of ``call()``, or the type and message of the stack error it raised."""
    try:
        return "value", call()
    except SensorStackError as error:
        return type(error), str(error)


def sequential_ids(prefix="id"):
    counter = itertools.count()
    return lambda: f"{prefix}-{next(counter):05d}"


def make_services(**overrides):
    kwargs = dict(
        key=KEY,
        clock=ticking_clock(),
        sleeper=lambda s: None,
        id_factory=sequential_ids(),
    )
    kwargs.update(overrides)
    services = CoreServices(**kwargs)
    admin = services.issue_token("root", ("admin",), 86_400.0).token
    return services, admin


def camera_payload(device_id="camera-001"):
    return {
        "device_id": device_id,
        "type": "sensor",
        "location": {"latitude": 40.0, "longitude": -70.0, "description": "Alpha St."},
        "capabilities": ["video_stream", "detect", "track"],
        "data_format": "H.264",
        "access_methods": {
            "api_endpoint": "https://generic-endpoint.org/",
            "protocols": "RTSP",
        },
        "status": "online",
        "last_sync_timestamp": "2024-11-07T13:24:02.0923",
        "registration_timestamp": "2024-08-05T11:19:31.5754",
        "owner": "Testbed",
    }


def actuator_payload(device_id="gate-007"):
    return {
        "device_id": device_id,
        "type": "actuator",
        "location": {"latitude": 40.1, "longitude": -70.1, "description": "North gate"},
        "capabilities": ["open", "close"],
        "data_format": "none",
        "access_methods": {
            "api_endpoint": "https://generic-endpoint.org/gate",
            "protocols": "HTTP",
        },
        "owner": "Testbed",
    }


# the unusable values every services entry point is tried with
BAD_VALUES = [None, "x", [], {}, (1,), b"\x00"]
BAD_IDS = ["none", "text", "list", "dict", "tuple", "bytes"]


class TestTimestamps:
    def test_exactly_four_fraction_digits(self):
        assert format_timestamp(1_699_363_442.09234) == "2023-11-07T13:24:02.0923"

    def test_zero_epoch(self):
        assert format_timestamp(0.0) == "1970-01-01T00:00:00.0000"

    def test_fraction_carry_rolls_into_seconds(self):
        assert format_timestamp(0.99999999) == "1970-01-01T00:00:01.0000"

    def test_no_zone_suffix(self):
        stamp = format_timestamp(1_700_000_000.5)
        assert not stamp.endswith("Z")
        assert "+" not in stamp

    def test_non_finite_rejected(self):
        with pytest.raises(UsageError):
            format_timestamp(float("nan"))
        with pytest.raises(UsageError):
            format_timestamp(float("inf"))

    @settings(max_examples=budget(500), deadline=None)
    @given(
        st.one_of(
            st.floats(),
            st.floats(-1e10, 1e10),
            # within 5e-5 s of a whole second, where the fraction carries
            st.builds(add, st.integers(-10**10, 10**10).map(float), st.floats(-5e-5, 5e-5)),
            # around the first and the last second of the calendar
            st.sampled_from([-62_135_596_800.0, 253_402_300_799.0]).flatmap(
                lambda edge: st.builds(add, st.just(edge), st.floats(-2.0, 2.0))
            ),
        )
    )
    def test_matches_per_call_strftime(self, epoch_s):
        expected = outcome(lambda: format_timestamp_strftime(epoch_s))
        # the second call finds the second's prefix formatted, or its error not kept
        assert outcome(lambda: format_timestamp(epoch_s)) == expected
        assert outcome(lambda: format_timestamp(epoch_s)) == expected

    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    def test_parse_refuses_non_text_with_value_error(self, value):
        # both callers turn a ValueError into their own stack error
        with pytest.raises(ValueError):
            parse_timestamp(value)


class TestTokens:
    def test_round_trip(self):
        issued = issue_token("camera-001", ("device", "app"), 60.0, KEY, now=1000.0)
        claims = validate_token(issued.token, KEY, now=1030.0)
        assert claims["subject"] == "camera-001"
        assert claims["roles"] == ["app", "device"]
        assert claims["expires_at"] == 1060.0

    def test_expiry_boundary_is_exclusive(self):
        issued = issue_token("x", ("device",), 60.0, KEY, now=1000.0)
        validate_token(issued.token, KEY, now=1059.999)
        with pytest.raises(AuthError, match="expired"):
            validate_token(issued.token, KEY, now=1060.0)

    def test_zero_ttl_expires_immediately(self):
        issued = issue_token("x", ("device",), 0.0, KEY, now=1000.0)
        with pytest.raises(AuthError):
            validate_token(issued.token, KEY, now=1000.0)

    def test_wrong_key_rejected(self):
        issued = issue_token("x", ("device",), 60.0, KEY, now=1000.0)
        with pytest.raises(AuthError):
            validate_token(issued.token, b"other-key", now=1000.0)

    def test_payload_swap_rejected(self):
        """A valid MAC from one token must not authenticate another payload."""
        a = issue_token("alice", ("admin",), 60.0, KEY, now=1000.0).token
        b = issue_token("bob", ("device",), 60.0, KEY, now=1000.0).token
        franken = a.split(".")[0] + "." + b.split(".")[1]
        with pytest.raises(AuthError):
            validate_token(franken, KEY, now=1000.0)

    def test_malformed_shapes_rejected(self):
        for bad in ("", "nodots", "a.b.c", ".", "!!!.deadbeef"):
            with pytest.raises(AuthError):
                validate_token(bad, KEY, now=1000.0)

    def test_every_single_bit_flip_rejected(self):
        """No single-bit mutation of a token may validate.

        This includes flips confined to the unused trailing bits of the
        final base64 symbol, which decode to the same payload bytes and
        would pass a MAC check alone.
        """
        issued = issue_token("camera-001", ("device",), 60.0, KEY, now=1000.0)
        raw = issued.token.encode("ascii")
        forged = 0
        for index in range(len(raw)):
            for bit in range(8):
                mutated = bytearray(raw)
                mutated[index] ^= 1 << bit
                candidate = bytes(mutated).decode("latin-1")
                try:
                    validate_token(candidate, KEY, now=1000.0)
                    forged += 1
                except AuthError:
                    pass
        assert forged == 0

    def test_negative_ttl_and_empty_key_are_usage_errors(self):
        with pytest.raises(UsageError):
            issue_token("x", (), -1.0, KEY)
        with pytest.raises(UsageError):
            issue_token("x", (), 10.0, b"")
        with pytest.raises(UsageError):
            validate_token("a.b", b"")

    def test_unusable_ttl_subject_or_roles_are_usage_errors(self):
        # a NaN lifetime would give a token that never expires
        with pytest.raises(UsageError):
            issue_token("x", (), math.nan, KEY)
        with pytest.raises(UsageError):
            issue_token(["x"], (), 10.0, KEY)
        with pytest.raises(UsageError):
            issue_token("x", (None,), 10.0, KEY)

    def test_require_role(self):
        claims = {"subject": "ops", "roles": ["app"]}
        require_role(claims, "admin", "app")
        with pytest.raises(AuthError):
            require_role(claims, "admin")
        with pytest.raises(AuthError):
            require_role({"subject": "x"}, "device")
        for roles in ("administrator", 5, None):
            with pytest.raises(AuthError):
                require_role({"subject": "ops", "roles": roles}, "admin")


def signed(claims, key=KEY):
    """A token over any JSON claims, signed as ``issue_token`` signs."""
    payload = json.dumps(claims, sort_keys=True, separators=(",", ":")).encode()
    return f"{base64.urlsafe_b64encode(payload).decode()}.{hmac.new(key, payload, hashlib.sha256).hexdigest()}"


# claims only a key holder could sign, each a shape issue_token never writes
CRAFTED_CLAIMS = [
    lambda t: {"subject": "crafted", "expires_at": t, "extra": [1, 2]},
    lambda t: {"subject": "crafted", "roles": "admin", "expires_at": t},
    lambda t: {"subject": ["crafted"], "roles": ["app"], "expires_at": t},
    lambda t: {"subject": "crafted", "roles": ["app"], "expires_at": str(t)},
    lambda t: {"subject": "crafted", "expires_at": t},
]

TOKEN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), st.sampled_from(["admin", "app", "device"]), st.floats(0, 10)),
        st.tuples(st.just("foreign"), st.floats(0, 10)),
        st.tuples(st.just("crafted"), st.integers(0, len(CRAFTED_CLAIMS) - 1), st.floats(0, 10)),
        st.tuples(st.just("tamper"), st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 7)),
        st.tuples(st.just("advance"), st.floats(0, 4)),
        st.tuples(st.just("validate"), st.integers(0, 2**16)),
        st.tuples(st.just("validate"), st.integers(0, 2**16)),
    ),
    max_size=60,
)


class TestVerifiedTokens:
    """``CoreServices.validate`` answers as ``validate_token`` does at the clock's reading."""

    @settings(max_examples=budget(300), deadline=None)
    @given(ops=TOKEN_OPS, bound=st.integers(1, 6))
    def test_validate_matches_validate_token(self, ops, bound):
        clock, state = counting_clock()
        services = CoreServices(KEY, clock=clock)
        pool = [None, 5, ["x"], "", "x.y"]
        with mock.patch.object(registry, "_VERIFIED_TOKENS", bound):
            for op, *args in ops:
                now = state["t"]
                if op == "issue":
                    role, ttl = args
                    pool.append(issue_token(f"s{len(pool) % 3}", (role,), ttl, KEY, now=now).token)
                elif op == "foreign":
                    pool.append(issue_token("s0", ("admin",), args[0], b"other-key", now=now).token)
                elif op == "crafted":
                    shape, ttl = args
                    pool.append(signed(CRAFTED_CLAIMS[shape](now + ttl)))
                elif op == "tamper":
                    which, index, bit = args
                    token = pool[which % len(pool)]
                    if isinstance(token, str) and token:
                        raw = bytearray(token.encode("latin-1"))
                        raw[index % len(raw)] ^= 1 << bit
                        pool.append(raw.decode("latin-1"))
                elif op == "advance":
                    state["t"] += args[0]
                else:
                    token = pool[args[0] % len(pool)]
                    reads = state["reads"]
                    got = outcome(lambda: services.validate(token))
                    assert state["reads"] == reads + 1
                    assert got == outcome(lambda: validate_token(token, KEY, now=now))
                    if got[0] == "value":
                        # what a caller does to its claims reaches no later call
                        got[1]["subject"] = "mallory"
                        if isinstance(got[1].get("roles"), list):
                            got[1]["roles"].append("admin")
                assert len(services._verified) <= bound

    def test_verified_tokens_stay_bounded(self):
        services = CoreServices(KEY, clock=lambda: 1_000.0)
        tokens = [
            issue_token(f"s{i}", ("app",), 60.0, KEY, now=1_000.0).token
            for i in range(registry._VERIFIED_TOKENS + 100)
        ]
        # the first tokens are dropped to make room, then verified afresh
        for token in tokens + tokens[:10]:
            assert services.validate(token) == validate_token(token, KEY, now=1_000.0)
        assert len(services._verified) == registry._VERIFIED_TOKENS

    def test_expired_entry_is_dropped_and_stays_refused(self):
        clock, state = counting_clock()
        services = CoreServices(KEY, clock=clock)
        token = services.issue_token("camera-001", ("device",), 10.0).token
        assert services.validate(token)["subject"] == "camera-001"
        state["t"] += 10.0
        for _ in range(2):
            with pytest.raises(AuthError, match="^token expired$"):
                services.validate(token)
        assert token not in services._verified


class TestEntryPointsRaiseStackErrors:
    """An unusable argument is a stack error, never a bare Python exception."""

    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    def test_format_timestamp(self, value):
        with pytest.raises(UsageError, match="must be a number"):
            format_timestamp(value)

    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    def test_issue_token(self, value):
        with pytest.raises(UsageError):
            issue_token("x", (), value, KEY, now=1_000.0)
        if value is not None:  # no time means the wall clock's
            with pytest.raises(UsageError):
                issue_token("x", (), 10.0, KEY, now=value)
        if value != b"\x00":  # one zero byte is a usable key
            with pytest.raises(UsageError):
                issue_token("x", (), 10.0, value, now=1_000.0)

    @pytest.mark.parametrize("roles", [-1, None, 2.5])
    def test_issue_token_roles_not_iterable(self, roles):
        with pytest.raises(UsageError, match="roles must be strings"):
            issue_token("x", roles, 10.0, KEY, now=1_000.0)

    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    def test_validate_token(self, value):
        token = issue_token("x", ("app",), 10.0, KEY, now=1_000.0).token
        if value is not None:
            with pytest.raises(UsageError):
                validate_token(token, KEY, now=value)
        if value != b"\x00":
            with pytest.raises(UsageError):
                validate_token(token, value, now=1_000.0)

    def test_nan_time_is_refused(self):
        # a NaN would never compare as expired
        with pytest.raises(UsageError):
            issue_token("x", ("app",), 10.0, KEY, now=math.nan)
        token = issue_token("x", ("app",), 10.0, KEY, now=1_000.0).token
        with pytest.raises(UsageError):
            validate_token(token, KEY, now=math.nan)

    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    def test_require_role(self, value):
        with pytest.raises(AuthError if isinstance(value, dict) else UsageError):
            require_role(value, "admin")

    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    def test_router_path(self, value):
        services, admin = make_services()
        status, payload = ServiceRouter(services).handle("GET", value, None, {"Authorization": f"Bearer {admin}"})
        if isinstance(value, str):
            assert (status, payload) == (404, {"error": "no route for GET x"})
        else:
            assert (status, payload) == (400, {"error": "request path must be text"})


class TestDeviceRecords:
    def test_payload_preserves_field_order(self):
        record = record_from_payload(camera_payload(), default_timestamp="x")
        payload = record.to_payload()
        assert list(payload) == RECORD_FIELDS
        assert list(payload["location"]) == ["latitude", "longitude", "description"]
        assert list(payload["access_methods"]) == ["api_endpoint", "protocols"]

    def test_protocols_field_is_a_string(self):
        record = record_from_payload(camera_payload(), default_timestamp="x")
        assert record.access_methods.protocols == "RTSP"
        bad = camera_payload()
        bad["access_methods"]["protocols"] = ["RTSP"]
        with pytest.raises(ValidationError) as err:
            record_from_payload(bad, default_timestamp="x")
        assert "access_methods.protocols" in err.value.fields

    def test_missing_timestamps_default(self):
        payload = camera_payload()
        del payload["last_sync_timestamp"]
        del payload["registration_timestamp"]
        del payload["status"]
        record = record_from_payload(payload, default_timestamp="2024-01-01T00:00:00.0000")
        assert record.last_sync_timestamp == "2024-01-01T00:00:00.0000"
        assert record.registration_timestamp == "2024-01-01T00:00:00.0000"
        assert record.status == "online"

    def test_every_bad_field_reported_at_once(self):
        payload = camera_payload()
        del payload["device_id"]
        payload["location"] = "nowhere"
        payload["capabilities"] = "detect"
        payload["type"] = "toaster"
        with pytest.raises(ValidationError) as err:
            record_from_payload(payload, default_timestamp="x")
        fields = set(err.value.fields)
        assert {
            "device_id",
            "type",
            "capabilities",
            "location.latitude",
            "location.longitude",
            "location.description",
        } <= fields

    @pytest.mark.parametrize("payload", [None, "x", [("device_id", "camera-001")]], ids=repr)
    def test_payload_that_is_not_a_mapping_is_a_usage_error(self, payload):
        with pytest.raises(UsageError, match="registration payload"):
            record_from_payload(payload, default_timestamp="x")

    def test_boolean_latitude_is_not_a_number(self):
        payload = camera_payload()
        payload["location"]["latitude"] = True
        with pytest.raises(ValidationError) as err:
            record_from_payload(payload, default_timestamp="x")
        assert "location.latitude" in err.value.fields

    def test_action_state_machine(self):
        action = ActionCommand("a-1", "gate-007", {"cmd": "open"})
        action.transition("executing")
        action.transition("committed")
        with pytest.raises(UsageError):
            action.transition("rolled_back")

        fresh = ActionCommand("a-2", "gate-007", {})
        with pytest.raises(UsageError, match="illegal action transition"):
            fresh.transition("committed")

    def test_activity_entry_shape(self):
        entry = ActivityLogEntry("2024-01-01T00:00:00.0000", "update", {"device_id": "d"})
        assert list(entry.to_record()) == ["timestamp", "activity_type", "details"]
        with pytest.raises(UsageError):
            ActivityLogEntry("t", "reboot", {})


class TestRegistryLifecycle:
    def test_register_returns_device_token(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        assert isinstance(token, AccessToken)
        claims = services.validate(token.token)
        assert claims["subject"] == "camera-001"
        assert claims["roles"] == ["device"]

    def test_register_logs_record_in_field_order(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        record = services.log_records()[-1]
        assert record["activity_type"] == "register"
        assert list(record["details"]) == ["device_id", "record", "version_id"]
        assert list(record["details"]["record"]) == RECORD_FIELDS

    def test_duplicate_registration_conflicts(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        with pytest.raises(ConflictError):
            services.register_device(camera_payload(), admin)

    def test_register_requires_admin(self):
        services, admin = make_services()
        app = services.issue_token("ops", ("app",), 3600.0).token
        with pytest.raises(AuthError):
            services.register_device(camera_payload(), app)
        with pytest.raises(AuthError):
            services.register_device(camera_payload(), "garbage")

    def test_register_validates_payload(self):
        services, admin = make_services()
        payload = camera_payload()
        del payload["location"]["latitude"]
        with pytest.raises(ValidationError) as err:
            services.register_device(payload, admin)
        assert "location.latitude" in err.value.fields
        assert services.log_records() == ()

    def test_update_status_entry_shape(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        entry = services.update_status(token.token, "maintenance", "2024-10-05T21:19:45.3880")
        record = entry.to_record()
        assert record["activity_type"] == "update"
        assert list(record["details"]) == ["device_id", "status", "last_sync_timestamp"]
        assert record["details"]["status"] == "maintenance"
        assert record["details"]["last_sync_timestamp"] == "2024-10-05T21:19:45.3880"
        assert services.device_record("camera-001").status == "maintenance"

    def test_returned_entries_do_not_alias_the_log(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin).token
        entry = services.update_status(token, "maintenance", None)
        assert entry.to_record() == services.log_records()[-1]
        entry.details["status"] = "offline"
        version = services.state()["current_version"]["camera-001"]
        rollback = services.rollback("camera-001", version, admin)
        assert rollback.to_record() == services.log_records()[-1]
        rollback.details["no_op"] = False
        assert [r["details"].get("status", r["details"].get("no_op")) for r in services.log_records()[1:]] == [
            "maintenance",
            True,
        ]

    def test_update_status_numeric_and_default_sync(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        entry = services.update_status(token.token, "online", 1_700_000_123.5)
        assert entry.details["last_sync_timestamp"] == format_timestamp(1_700_000_123.5)
        entry = services.update_status(token.token, "online", None)
        assert entry.details["last_sync_timestamp"].startswith("2023-11-14T")

    def test_same_status_still_logged(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        services.update_status(token.token, "online", None)
        services.update_status(token.token, "online", None)
        updates = [r for r in services.log_records() if r["activity_type"] == "update"]
        assert len(updates) == 2

    @pytest.mark.parametrize("stamp", [True, False])
    def test_update_status_rejects_a_bool_sync_timestamp(self, stamp):
        # a bool is an int to float(): True was stored as 1970-01-01T00:00:01.0000
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        with pytest.raises(ValidationError) as err:
            services.update_status(token.token, "online", stamp)
        assert err.value.fields == ("last_sync_timestamp",)
        assert services.device_record("camera-001").last_sync_timestamp == camera_payload()["last_sync_timestamp"]

    @pytest.mark.parametrize(
        "stamp", [math.inf, math.nan, 1e300, 10**400, b"1"], ids=["inf", "nan", "huge", "huge-int", "bytes"]
    )
    def test_update_status_rejects_a_sync_timestamp_that_is_no_calendar_time(self, stamp):
        # an infinite or out-of-calendar time escaped as a UsageError without its field
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        with pytest.raises(ValidationError) as err:
            services.update_status(token.token, "online", stamp)
        assert err.value.fields == ("last_sync_timestamp",)

    def test_update_status_rejects_unknown_status(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        with pytest.raises(ValidationError) as err:
            services.update_status(token.token, "asleep", None)
        assert err.value.fields == ("status",)

    def test_update_status_needs_registered_subject(self):
        services, admin = make_services()
        outsider = services.issue_token("ghost-9", ("device",), 3600.0).token
        with pytest.raises(AuthError):
            services.update_status(outsider, "online", None)

    def test_list_devices_sorted(self):
        services, admin = make_services()
        services.register_device(camera_payload("camera-b"), admin)
        services.register_device(camera_payload("camera-a"), admin)
        assert [r.device_id for r in services.list_devices()] == ["camera-a", "camera-b"]

    def test_unknown_device_lookup(self):
        services, _ = make_services()
        with pytest.raises(NotFoundError):
            services.device_record("nope")


class TestVersions:
    def test_registration_creates_initial_version(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        version_id = services.state()["current_version"]["camera-001"]
        snapshot = services.version(version_id)
        assert snapshot.config == services.device_record("camera-001").to_payload()
        assert services.config_json("camera-001") == snapshot.config_json

    def test_rollback_restores_bytes_exactly(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        first = services.snapshot_config(
            "camera-001", {"fps": 25, "filters": ["a", "b"], "roi": {"w": 640, "h": 480}}
        )
        services.snapshot_config("camera-001", {"fps": 30, "filters": [], "roi": None})
        assert services.config_json("camera-001") != first.config_json

        entry = services.rollback("camera-001", first.version_id, admin)
        assert services.config_json("camera-001") == first.config_json
        assert entry.activity_type == "rollback"
        assert list(entry.details) == ["device_id", "old_version_id", "new_version_id"]
        assert entry.details["new_version_id"] == first.version_id

    @pytest.mark.parametrize("value", [b"\x00", {1, 2}, object()], ids=["bytes", "set", "object"])
    def test_config_that_is_not_json_rejected_and_not_stored(self, value):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        before = services.state()
        with pytest.raises(UsageError, match="not JSON"):
            canonical_json({"blob": value})
        with pytest.raises(UsageError, match="not JSON"):
            services.snapshot_config("camera-001", {"blob": value})
        assert services.state() == before

    def test_snapshot_bytes_ignore_key_insertion_order(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        one = services.snapshot_config("camera-001", {"a": 1, "b": 2})
        two = services.snapshot_config("camera-001", {"b": 2, "a": 1})
        assert one.config_json == two.config_json

    def test_rollback_to_current_is_a_noop(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        current = services.state()["current_version"]["camera-001"]
        before = services.config_json("camera-001")
        entry = services.rollback("camera-001", current, admin)
        assert entry.details["no_op"] is True
        assert services.config_json("camera-001") == before
        assert services.state()["current_version"]["camera-001"] == current

    def test_rollback_unknown_version(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        with pytest.raises(NotFoundError):
            services.rollback("camera-001", "v-missing", admin)

    def test_rollback_rejects_other_devices_version(self):
        services, admin = make_services()
        services.register_device(camera_payload("camera-a"), admin)
        services.register_device(camera_payload("camera-b"), admin)
        foreign = services.snapshot_config("camera-b", {"fps": 10})
        with pytest.raises(NotFoundError):
            services.rollback("camera-a", foreign.version_id, admin)

    def test_rollback_requires_admin(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        version_id = services.state()["current_version"]["camera-001"]
        with pytest.raises(AuthError):
            services.rollback("camera-001", version_id, token.token)

    def test_unknown_version_lookup(self):
        services, _ = make_services()
        with pytest.raises(NotFoundError):
            services.version("v-404")


class TestActions:
    def make_gate(self, services, admin, device_id="gate-007"):
        return services.register_device(actuator_payload(device_id), admin)

    def test_actions_run_fifo_per_device(self):
        services, admin = make_services()
        self.make_gate(services, admin)
        app = services.issue_token("ops", ("app",), 3600.0).token
        ids = [
            services.enqueue_action({"device_id": "gate-007", "payload": {"n": n}}, app)
            for n in range(3)
        ]
        ran = []
        services.process_actions(lambda action, apply: ran.append(action.action_id))
        assert ran == ids
        assert all(services.action(a).state == "committed" for a in ids)

    def test_devices_drain_in_sorted_order(self):
        services, admin = make_services()
        self.make_gate(services, admin, "gate-zz")
        self.make_gate(services, admin, "gate-aa")
        app = services.issue_token("ops", ("app",), 3600.0).token
        services.enqueue_action({"device_id": "gate-zz", "payload": {}}, app)
        services.enqueue_action({"device_id": "gate-aa", "payload": {}}, app)
        ran = []
        services.process_actions(lambda action, apply: ran.append(action.device_id))
        assert ran == ["gate-aa", "gate-zz"]

    def test_fault_rolls_configuration_back_exactly(self):
        services, admin = make_services()
        self.make_gate(services, admin)
        baseline = services.snapshot_config("gate-007", {"angle": 0, "locked": True})
        app = services.issue_token("ops", ("app",), 3600.0).token
        action_id = services.enqueue_action(
            {"device_id": "gate-007", "payload": {"cmd": "open"}}, app
        )

        def faulty(action, apply_config):
            apply_config({"angle": 90, "locked": False})
            raise RuntimeError("motor jam")

        services.process_actions(faulty)
        assert services.action(action_id).state == "rolled_back"
        assert services.config_json("gate-007") == baseline.config_json
        last = services.log_records()[-1]
        assert last["details"]["state"] == "rolled_back"
        assert "motor jam" in last["details"]["reason"]

    def test_commit_keeps_applied_config(self):
        services, admin = make_services()
        self.make_gate(services, admin)
        app = services.issue_token("ops", ("app",), 3600.0).token
        action_id = services.enqueue_action(
            {"device_id": "gate-007", "payload": {"cmd": "open"}}, app
        )
        services.process_actions(lambda action, apply: apply({"angle": 90}))
        assert services.action(action_id).state == "committed"
        assert services.config_json("gate-007") == canonical_json({"angle": 90})

    def test_offline_target_retries_with_backoff_then_rolls_back(self):
        sleeps = []
        services, admin = make_services(sleeper=sleeps.append)
        gate = self.make_gate(services, admin)
        services.update_status(gate.token, "offline", None)
        app = services.issue_token("ops", ("app",), 3600.0).token
        action_id = services.enqueue_action({"device_id": "gate-007", "payload": {}}, app)
        called = []
        services.process_actions(lambda action, apply: called.append(action.action_id))
        assert sleeps == [0.1, 0.2]
        assert called == []
        assert services.action(action_id).state == "rolled_back"
        last = services.log_records()[-1]
        assert last["details"]["reason"] == "target offline"

    def test_target_recovering_mid_retry_commits(self):
        services_box = {}
        sleeps = []

        def sleeper(seconds):
            sleeps.append(seconds)
            services_box["svc"].update_status(services_box["token"], "online", None)

        services, admin = make_services(sleeper=sleeper)
        gate = self.make_gate(services, admin)
        services_box["svc"] = services
        services_box["token"] = gate.token
        services.update_status(gate.token, "offline", None)
        app = services.issue_token("ops", ("app",), 3600.0).token
        action_id = services.enqueue_action({"device_id": "gate-007", "payload": {}}, app)
        services.process_actions(lambda action, apply: None)
        assert sleeps == [0.1]
        assert services.action(action_id).state == "committed"

    def test_maintenance_does_not_block_actions(self):
        services, admin = make_services()
        gate = self.make_gate(services, admin)
        services.update_status(gate.token, "maintenance", None)
        app = services.issue_token("ops", ("app",), 3600.0).token
        action_id = services.enqueue_action({"device_id": "gate-007", "payload": {}}, app)
        services.process_actions(lambda action, apply: None)
        assert services.action(action_id).state == "committed"

    def test_enqueue_permissions(self):
        services, admin = make_services()
        gate = self.make_gate(services, admin)
        command = {"device_id": "gate-007", "payload": {}}
        with pytest.raises(AuthError):
            services.enqueue_action(command, gate.token)
        services.enqueue_action(command, admin)

    def test_enqueue_rejects_non_actuator(self):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        with pytest.raises(ValidationError) as err:
            services.enqueue_action({"device_id": "camera-001", "payload": {}}, admin)
        assert err.value.fields == ("device_id",)

    def test_enqueue_unknown_device(self):
        services, admin = make_services()
        with pytest.raises(NotFoundError):
            services.enqueue_action({"device_id": "gate-404", "payload": {}}, admin)

    def test_enqueue_reports_missing_fields(self):
        services, admin = make_services()
        with pytest.raises(ValidationError) as err:
            services.enqueue_action({}, admin)
        assert err.value.fields == ("device_id", "payload")

    def test_unknown_action_lookup(self):
        services, _ = make_services()
        with pytest.raises(NotFoundError):
            services.action("a-404")

    def test_log_shows_legal_state_sequences_only(self):
        """Every action's log trail is queued, executing, then a terminal."""
        services, admin = make_services()
        self.make_gate(services, admin, "gate-a")
        gate_b = self.make_gate(services, admin, "gate-b")
        services.update_status(gate_b.token, "offline", None)
        app = services.issue_token("ops", ("app",), 3600.0).token
        services.enqueue_action({"device_id": "gate-a", "payload": {}}, app)
        services.enqueue_action({"device_id": "gate-a", "payload": {"boom": 1}}, app)
        services.enqueue_action({"device_id": "gate-b", "payload": {}}, app)

        def executor(action, apply_config):
            if action.payload.get("boom"):
                raise RuntimeError("boom")

        services.process_actions(executor)
        trails: dict[str, list[str]] = {}
        for record in services.log_records():
            if record["activity_type"] == "action":
                details = record["details"]
                trails.setdefault(details["action_id"], []).append(details["state"])
        assert len(trails) == 3
        for states in trails.values():
            assert states[:2] == ["queued", "executing"]
            assert len(states) == 3
            assert states[2] in ("committed", "rolled_back")


def wire_samples(device_id, count=100):
    """``count`` wire samples for ``POST /capture``, local_ts 0..count-1."""
    return [
        {"device_id": device_id, "modality": "camera_series", "local_ts": t_ns, "payload": [float(t_ns % 7)]}
        for t_ns in range(count)
    ]


def response_row(sample, capture_id, location=(40.0, -70.0)):
    """The ``GET /capture`` row a stored wire sample should come back as: ``corrected_ts`` is
    its ``local_ts``, and payload and location are tuples."""
    return {
        "capture_id": capture_id,
        "device_id": sample["device_id"],
        "modality": sample["modality"],
        "local_ts": sample["local_ts"],
        "corrected_ts": sample["local_ts"],
        "payload": tuple(float(v) for v in sample["payload"]),
        "location": tuple(location),
    }


class TestCapture:
    def test_range_query_is_half_open_and_sorted(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        shuffled = wire_samples("camera-001")
        random.Random(3).shuffle(shuffled)
        services.capture_ingest(token.token, shuffled)
        hits = services.query_captures("camera-001", 10, 20, admin)
        assert [h["corrected_ts"] for h in hits] == list(range(10, 20))

    def test_full_query_matches_sort_oracle(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        shuffled = wire_samples("camera-001", count=50)
        random.Random(11).shuffle(shuffled)
        ids = services.capture_ingest(token.token, shuffled)
        hits = services.query_captures("camera-001", 0, 10**9, admin)
        rows = [response_row(s, i) for s, i in zip(shuffled, ids)]
        assert hits == sorted(rows, key=lambda r: (r["corrected_ts"], r["capture_id"]))
        assert [list(h) for h in hits] == [list(rows[0])] * 50

    def test_location_stamped_from_registry(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        services.capture_ingest(token.token, wire_samples("camera-001", 1))
        assert services.query_captures("camera-001", 0, 1, admin)[0]["location"] == (40.0, -70.0)

    def test_sample_device_must_match_token_subject(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        services.register_device(camera_payload("camera-002"), admin)
        with pytest.raises(AuthError):
            services.capture_ingest(token.token, wire_samples("camera-002", 1))

    def test_unregistered_subject_cannot_ingest(self):
        services, admin = make_services()
        ghost = services.issue_token("ghost-9", ("device",), 3600.0).token
        with pytest.raises(AuthError):
            services.capture_ingest(ghost, wire_samples("ghost-9", 1))

    def test_query_permissions(self):
        services, admin = make_services()
        cam_a = services.register_device(camera_payload("camera-a"), admin)
        cam_b = services.register_device(camera_payload("camera-b"), admin)
        services.capture_ingest(cam_a.token, wire_samples("camera-a", 5))
        app = services.issue_token("ops", ("app",), 3600.0).token

        assert len(services.query_captures("camera-a", 0, 10, cam_a.token)) == 5
        assert len(services.query_captures("camera-a", 0, 10, app)) == 5
        assert len(services.query_captures("camera-a", 0, 10, admin)) == 5
        with pytest.raises(AuthError):
            services.query_captures("camera-a", 0, 10, cam_b.token)

    @pytest.mark.parametrize("roles", ["appliance", "administrator", ["application"], 5, None])
    def test_query_of_another_device_needs_an_exact_role(self, roles):
        """Key-signed claims whose roles hold "app" or "admin" only as a
        substring, or are no list at all, read no other device's captures;
        the same claims read the subject's own."""
        services, admin = make_services()
        services.register_device(camera_payload("camera-a"), admin)
        services.register_device(camera_payload("someone"), admin)
        expires = 1_700_000_000.0 + 86_400.0
        token = signed({"subject": "someone", "roles": roles, "expires_at": expires})
        with pytest.raises(AuthError, match="^capture queries need the app or admin role$"):
            services.query_captures("camera-a", 0, 10, token)
        assert services.query_captures("someone", 0, 10, token) == []
        exact = signed({"subject": "someone", "roles": ["app"], "expires_at": expires})
        assert services.query_captures("camera-a", 0, 10, exact) == []

    def test_ingest_writes_one_access_entry(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        services.capture_ingest(token.token, wire_samples("camera-001"))
        access = [r for r in services.log_records() if r["activity_type"] == "data_access"]
        assert len(access) == 1
        assert access[0]["details"] == {"device_id": "camera-001", "op": "ingest", "count": 100}

    def test_ingest_takes_any_iterable(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        ids = services.capture_ingest(token.token, (s for s in wire_samples("camera-001", 5)))
        assert len(ids) == 5
        hits = services.query_captures("camera-001", 0, 10, admin)
        assert [(h["capture_id"], h["local_ts"]) for h in hits] == list(zip(ids, range(5)))

    def test_query_logs_access(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        services.capture_ingest(token.token, wire_samples("camera-001", 5))
        services.query_captures("camera-001", 0, 3, admin)
        last = services.log_records()[-1]
        assert last["activity_type"] == "data_access"
        assert last["details"] == {"device_id": "camera-001", "op": "query", "count": 3}

    @pytest.mark.parametrize("bound", ["a", None, 1.5, True, False, 10.0, "5"])
    @pytest.mark.parametrize("which", ["start_ns", "end_ns"])
    def test_query_bounds_must_be_integers(self, which, bound):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin)
        services.capture_ingest(token.token, wire_samples("camera-001", 5))
        bounds = {"start_ns": 0, "end_ns": 10, which: bound}
        with pytest.raises(UsageError, match=which):
            services.query_captures("camera-001", bounds["start_ns"], bounds["end_ns"], admin)
        numpy_bounds = services.query_captures("camera-001", np.int64(1), np.uint8(3), admin)
        assert [h["local_ts"] for h in numpy_bounds] == [1, 2]

    @pytest.mark.parametrize(
        "batch",
        [
            None,
            5,
            [None],
            [wire_samples("camera-001", 1)[0], "camera-001"],
            [{"modality": "imu", "local_ts": 1, "payload": [0.5]}],
            [{"device_id": "camera-001", "modality": "imu", "payload": [0.5]}],
            [{"device_id": "camera-001", "local_ts": 1, "payload": [0.5]}],
            [{"device_id": "", "modality": "imu", "local_ts": 1}],
            [{"device_id": 7, "modality": "imu", "local_ts": 1}],
            [{"device_id": "camera-001", "modality": "imu", "local_ts": 1, "payload": None}],
            [{"device_id": "camera-001", "modality": "imu", "local_ts": 1, "payload": [10**400]}],
            # indexes by field name like a sample, but is no mapping
            np.array([("camera-001", "imu", 1)], dtype=[("device_id", "U10"), ("modality", "U6"), ("local_ts", "i8")]),
        ],
        ids=["null", "number", "null-sample", "text-sample", "no-device-id", "no-local-ts", "no-modality",
             "empty-device-id", "numeric-device-id", "null-payload", "payload-overflows-float", "structured-record"],
    )
    def test_malformed_batch_is_a_usage_error(self, batch):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin).token
        before = len(services.log_records())
        with pytest.raises(UsageError):
            services.capture_ingest(token, batch)
        assert len(services.log_records()) == before
        status, body = ServiceRouter(services).handle(
            "POST", "/capture", {"samples": batch}, {"Authorization": f"Bearer {token}"}
        )
        assert status == 400
        assert isinstance(body["error"], str)
        assert services.query_captures("camera-001", -(2**63), 2**63, admin) == []


CAPTURE_DEVICES = ("camera-a", "camera-b")
# small timestamp ranges so batches interleave and timestamps repeat
CAPTURE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.sampled_from(CAPTURE_DEVICES),
            st.lists(st.integers(0, 40), max_size=12),
        ),
        st.tuples(
            st.just("query"),
            st.sampled_from(CAPTURE_DEVICES),
            st.integers(-5, 50),
            st.integers(-5, 50),
        ),
    ),
    max_size=25,
)


def check_capture_ops(services, admin, tokens, ops, drawn=None):
    """Run ``ops`` against ``services`` and hold every query, and each device's whole store at the
    end, to a scan and sort of the rows ingested; ``drawn`` lists the ids an injected factory made."""
    ingested = {d: [] for d in tokens}
    for op, device_id, *args in ops:
        if op == "ingest":
            samples = [
                {"device_id": device_id, "modality": "imu", "local_ts": t, "payload": [float(i)]}
                for i, t in enumerate(args[0])
            ]
            capture_ids = services.capture_ingest(tokens[device_id], samples)
            if drawn is not None:
                # one id per sample, drawn and returned in input order
                assert capture_ids == tuple(drawn[len(drawn) - len(samples):])
            ingested[device_id].extend(response_row(s, i) for s, i in zip(samples, capture_ids))
        else:
            got = services.query_captures(device_id, *args, admin)
            assert got == query_captures_scan(ingested[device_id], *args)
    for device_id in tokens:
        everything = services.query_captures(device_id, -(2**63), 2**63, admin)
        assert everything == query_captures_scan(ingested[device_id], -(2**63), 2**63)
        assert len(everything) == len(ingested[device_id])


class TestCaptureStore:
    """The sorted store answers every window as a scan and sort of all ingested rows would."""

    @settings(max_examples=budget(200), deadline=None)
    @given(ops=CAPTURE_OPS, id_seed=st.integers(0, 2**16))
    # a strictly increasing batch that lands before stored rows: the merge path
    @example(ops=[("ingest", "camera-a", [20, 30]), ("ingest", "camera-a", [5, 25, 26]), ("query", "camera-a", 0, 27)], id_seed=1)
    # tied timestamps, whose order is their ids'
    @example(ops=[("ingest", "camera-a", [7, 7, 7, 8, 8]), ("ingest", "camera-a", [8, 8]), ("query", "camera-a", 7, 9)], id_seed=2)
    # a falling batch, alone and after stored rows
    @example(ops=[("ingest", "camera-b", [9, 4, 1]), ("ingest", "camera-b", [40, 12, 3]), ("query", "camera-b", 2, 13)], id_seed=3)
    def test_queries_match_scan_and_sort(self, ops, id_seed):
        # ids from a small pool: ties on corrected_ts are broken by ids
        # that arrive out of order, and sometimes by equal ids
        rng = random.Random(id_seed)
        drawn = []

        def ids():
            drawn.append(f"id-{rng.randrange(64):02d}")
            return drawn[-1]

        services, admin = make_services(id_factory=ids)
        tokens = {d: services.register_device(camera_payload(d), admin).token for d in CAPTURE_DEVICES}
        check_capture_ops(services, admin, tokens, ops, drawn)

    @settings(max_examples=budget(50), deadline=None)
    @given(ops=CAPTURE_OPS)
    def test_queries_with_default_ids_match_scan_and_sort(self, ops):
        services, admin = make_services(id_factory=None)
        tokens = {d: services.register_device(camera_payload(d), admin).token for d in CAPTURE_DEVICES}
        check_capture_ops(services, admin, tokens, ops)

    def test_response_rows_do_not_alias_the_store(self):
        services, admin = make_services()
        router = ServiceRouter(services)
        device = services.register_device(camera_payload(), admin).token
        samples = [{"device_id": "camera-001", "modality": "imu", "local_ts": t, "payload": [0.5, t]} for t in range(4)]
        status, _ = router.handle("POST", "/capture", {"samples": samples}, {"Authorization": f"Bearer {device}"})
        assert status == 201
        query = {"device_id": "camera-001", "start_ns": "0", "end_ns": "10"}
        status, body = router.handle("GET", "/capture", None, {"Authorization": f"Bearer {admin}"}, query)
        original = json.dumps(body)
        for row in body["samples"]:
            # payload and location are the stored tuples, which refuse mutation
            with pytest.raises(AttributeError):
                row["payload"].append(9.0)
            with pytest.raises(TypeError):
                row["payload"][0] = -1.0
            with pytest.raises(TypeError):
                row["location"][0] = 0.0
            row["corrected_ts"] = -1
            del row["capture_id"]
        body["samples"].clear()
        status, again = router.handle("GET", "/capture", None, {"Authorization": f"Bearer {admin}"}, query)
        assert status == 200
        assert json.dumps(again) == original
        assert len(again["samples"]) == 4
        # nor do the posted samples: changing them after the POST changes nothing stored
        for sample in samples:
            sample["payload"][0] = 7.0
            sample["local_ts"] = 99
        status, again = router.handle("GET", "/capture", None, {"Authorization": f"Bearer {admin}"}, query)
        assert json.dumps(again) == original

    def test_query_rows_give_the_collector_nothing_to_walk(self):
        services, admin = make_services()
        router = ServiceRouter(services)
        device = services.register_device(camera_payload(), admin).token
        samples = [{"device_id": "camera-001", "modality": "imu", "local_ts": t, "payload": [0.5, t]} for t in range(50)]
        status, _ = router.handle("POST", "/capture", {"samples": samples}, {"Authorization": f"Bearer {device}"})
        assert status == 201
        # a collection untracks the stored tuples of atomic values, as the
        # program's own collections do between an ingest and its queries
        gc.collect()
        query = {"device_id": "camera-001", "start_ns": "0", "end_ns": "100"}
        status, body = router.handle("GET", "/capture", None, {"Authorization": f"Bearer {admin}"}, query)
        assert status == 200 and len(body["samples"]) == 50
        assert not any(gc.is_tracked(row) for row in body["samples"])
        again = services.query_captures("camera-001", 0, 100, admin)
        for first, second in zip(body["samples"], again, strict=True):
            assert second["payload"] is first["payload"]
            assert second["location"] is first["location"]

    def test_default_ids_are_unique_version_4_uuids(self):
        services = CoreServices(KEY, clock=ticking_clock())
        admin = services.issue_token("root", ("admin",), 86_400.0).token
        token = services.register_device(camera_payload(), admin).token
        ids = services.capture_ingest(token, wire_samples("camera-001", 10_000))
        assert len(set(ids)) == 10_000
        for capture_id in ids:
            parsed = uuid.UUID(capture_id)
            assert parsed.version == 4
            assert parsed.variant == uuid.RFC_4122
            assert str(parsed) == capture_id
        version_id = services.state()["current_version"]["camera-001"]
        assert uuid.UUID(version_id).version == 4

    @pytest.mark.parametrize("n", [0, 1, 10, 300])
    def test_random_ids_are_distinct_version_4_uuids(self, n):
        ids = registry._random_ids(n)
        assert len(set(ids)) == len(ids) == n
        for capture_id in ids:
            parsed = uuid.UUID(capture_id)
            assert parsed.version == 4
            assert parsed.variant == uuid.RFC_4122
            assert str(parsed) == capture_id

    @settings(max_examples=budget(100), deadline=None)
    @given(raw=st.integers(0, 600).flatmap(lambda n: st.binary(min_size=16 * n, max_size=16 * n)))
    @example(raw=b"")
    @example(raw=bytes(range(16)))
    def test_format_ids_matches_fstring_and_uuid(self, raw):
        ids = registry._format_ids(raw)
        assert ids == format_ids_fstring(raw)
        assert ids == [str(uuid.UUID(bytes=raw[i:i + 16])) for i in range(0, len(raw), 16)]

    def test_injected_id_factory_called_once_per_stored_sample_in_order(self):
        calls = []

        def ids():
            calls.append(f"cap-{len(calls):03d}")
            return calls[-1]

        services, admin = make_services(id_factory=ids)
        token = services.register_device(camera_payload(), admin).token
        assert calls == ["cap-000"]  # the registration's version id
        local = [30, 10, 20, 10, 0]
        capture_ids = services.capture_ingest(
            token, [{"device_id": "camera-001", "modality": "imu", "local_ts": t, "payload": [float(t)]} for t in local]
        )
        assert calls == [f"cap-{i:03d}" for i in range(6)]
        assert capture_ids == tuple(calls[1:])
        hits = services.query_captures("camera-001", 0, 100, admin)
        assert [r["capture_id"] for r in hits] == ["cap-005", "cap-002", "cap-004", "cap-003", "cap-001"]
        assert {r["capture_id"]: r["local_ts"] for r in hits} == dict(zip(calls[1:], local))

    def test_rejected_batch_stores_nothing_and_draws_no_ids(self):
        calls = []

        def ids():
            calls.append(f"cap-{len(calls):03d}")
            return calls[-1]

        def sample(device_id, local_ts):
            return {"device_id": device_id, "modality": "imu", "local_ts": local_ts, "payload": [0.0]}

        services, admin = make_services(id_factory=ids)
        token = services.register_device(camera_payload(), admin).token
        services.register_device(camera_payload("camera-002"), admin)
        before = (len(calls), len(services.log_records()))
        good = [sample("camera-001", t) for t in (5, 6)]
        with pytest.raises(AuthError):
            services.capture_ingest(token, good + [sample("camera-002", 7)])
        with pytest.raises(ValidationError):
            services.capture_ingest(token, good + [sample("camera-001", 2**63)])
        with pytest.raises(ValidationError):
            services.capture_ingest(token, [sample("camera-001", -(2**63) - 1)])
        with pytest.raises(UsageError):
            services.capture_ingest(token, good + [sample("camera-001", 7.0)])
        assert (len(calls), len(services.log_records())) == before
        assert services.query_captures("camera-001", -(2**63), 2**63, admin) == []


def drive_random_ops(services, admin, seed, steps=40):
    """Exercise a random mix of control-plane operations."""
    rng = random.Random(seed)
    tokens: dict[str, str] = {}
    versions: dict[str, list[str]] = {}
    serial = itertools.count()

    def new_device():
        n = next(serial)
        kind = rng.choice(("sensor", "actuator"))
        payload = actuator_payload(f"dev-{seed}-{n}") if kind == "actuator" else camera_payload(f"dev-{seed}-{n}")
        token = services.register_device(payload, admin)
        tokens[payload["device_id"]] = token.token
        versions[payload["device_id"]] = [
            services.state()["current_version"][payload["device_id"]]
        ]

    new_device()
    for _ in range(steps):
        op = rng.choice(("register", "status", "snapshot", "rollback", "action", "capture"))
        device_id = rng.choice(sorted(tokens))
        if op == "register":
            new_device()
        elif op == "status":
            status = rng.choice(("online", "offline", "maintenance"))
            services.update_status(tokens[device_id], status, None)
        elif op == "snapshot":
            snapshot = services.snapshot_config(device_id, {"knob": rng.randint(0, 9)})
            versions[device_id].append(snapshot.version_id)
        elif op == "rollback":
            services.rollback(device_id, rng.choice(versions[device_id]), admin)
        elif op == "action":
            if services.device_record(device_id).type != "actuator":
                continue
            services.enqueue_action({"device_id": device_id, "payload": {"n": 1}}, admin)
            fail = rng.random() < 0.5

            def executor(action, apply_config, fail=fail):
                apply_config({"applied": action.action_id})
                if fail:
                    raise RuntimeError("injected fault")

            processed = services.process_actions(executor)
            for command in processed:
                target = command.device_id
                versions[target].append(services.state()["current_version"][target])
        elif op == "capture":
            samples = [
                {"device_id": device_id, "modality": "imu", "local_ts": rng.randrange(10**6), "payload": [rng.random()]}
                for _ in range(3)
            ]
            services.capture_ingest(tokens[device_id], samples)
            services.query_captures(device_id, 0, 10**6, admin)


class TestEventSourcing:
    @pytest.mark.parametrize("seed", range(20))
    def test_replay_reconstructs_state(self, seed):
        """Replaying the activity log from empty matches the live state."""
        services, admin = make_services()
        drive_random_ops(services, admin, seed)
        assert replay_log(services.log_records()) == services.state()

    def test_replay_of_empty_log(self):
        empty = replay_log(())
        assert empty["devices"] == {}
        assert empty["actions"] == {}

    @pytest.mark.parametrize("bad", [None, {}, "x", [1.0], {"details": None, "activity_type": "register"}], ids=repr)
    def test_replay_refuses_a_record_that_is_not_an_activity_record(self, bad):
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        records = list(services.log_records())
        with pytest.raises(IntegrityError, match="activity record 1 "):
            replay_log(records + [bad])

    def test_replay_refuses_a_log_that_lacks_its_first_records(self):
        services, admin = make_services()
        token = services.register_device(camera_payload(), admin).token
        services.update_status(token, "offline", None)
        # the update names a device whose registration is not in the log
        with pytest.raises(IntegrityError, match="activity record 0 .*camera-001"):
            replay_log(services.log_records()[1:])
        with pytest.raises(IntegrityError, match="activity record 0 .*device_id"):
            replay_log([{"timestamp": "t", "activity_type": "register", "details": {}}])

    @pytest.mark.parametrize("records", [None, 3, math.nan], ids=repr)
    def test_replay_of_a_value_that_is_no_sequence_is_a_usage_error(self, records):
        with pytest.raises(UsageError):
            replay_log(records)

    def test_identical_inputs_give_byte_identical_logs(self):
        lines = []
        for _ in range(2):
            services, admin = make_services()
            drive_random_ops(services, admin, seed=5)
            lines.append(
                "\n".join(json.dumps(r, separators=(",", ":")) for r in services.log_records())
            )
        assert lines[0] == lines[1]

    def test_file_log_survives_reopen(self, tmp_path):
        path = tmp_path / "activity.ndjson"
        log = FileLog(path)
        services, admin = make_services(log=log)
        drive_random_ops(services, admin, seed=2, steps=15)
        expected_state = services.state()
        expected_records = services.log_records()
        log.close()

        reopened = FileLog(path)
        assert reopened.records() == expected_records
        assert replay_log(reopened.records()) == expected_state
        reopened.close()

    def test_file_log_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "activity.ndjson"
        log = FileLog(path)
        log.append({"timestamp": "t", "activity_type": "update", "details": {}})
        log.close()
        with open(path, "a", encoding="utf-8") as fp:
            fp.write("{not json\n")
        with pytest.raises(IntegrityError, match="line 2"):
            FileLog(path)

    def test_file_log_drops_torn_final_line(self, tmp_path):
        path = tmp_path / "activity.ndjson"
        log = FileLog(path)
        log.append({"a": 1})
        log.close()
        intact = path.read_bytes()
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"b": ')
        reopened = FileLog(path)
        assert reopened.records() == ({"a": 1},)
        assert path.read_bytes() == intact
        reopened.append({"c": [2, 3]})
        reopened.close()
        again = FileLog(path)
        assert again.records() == ({"a": 1}, {"c": [2, 3]})
        again.close()
        assert path.read_bytes() == intact + b'{"c":[2,3]}\n'

    def test_memory_log_records_are_snapshots(self):
        log = MemoryLog()
        log.append({"a": 1})
        first = log.records()
        log.append({"b": 2})
        assert len(first) == 1
        assert len(log.records()) == 2


class TestRouter:
    def make_router(self):
        services, admin = make_services()
        return ServiceRouter(services), services, admin

    def auth(self, token):
        return {"Authorization": f"Bearer {token}"}

    def test_token_route(self):
        router, services, admin = self.make_router()
        status, body = router.handle(
            "POST", "/tokens", {"subject": "ops", "roles": ["app"], "ttl_s": 60}, self.auth(admin)
        )
        assert status == 201
        assert services.validate(body["token"])["roles"] == ["app"]

        app = body["token"]
        status, body = router.handle(
            "POST", "/tokens", {"subject": "x", "roles": ["admin"]}, self.auth(app)
        )
        assert status == 401

    def test_register_route(self):
        router, services, admin = self.make_router()
        status, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        assert status == 201
        assert list(body["record"]) == RECORD_FIELDS
        assert services.validate(body["device_token"])["subject"] == "camera-001"

        status, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        assert status == 409

    def test_register_route_reports_bad_fields(self):
        router, _, admin = self.make_router()
        payload = camera_payload()
        del payload["location"]
        status, body = router.handle("POST", "/devices", payload, self.auth(admin))
        assert status == 400
        assert "location.latitude" in body["fields"]

    def test_device_listing_requires_any_valid_token(self):
        router, services, admin = self.make_router()
        router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        status, body = router.handle("GET", "/devices", None, self.auth(admin))
        assert status == 200
        assert len(body["devices"]) == 1
        status, _ = router.handle("GET", "/devices", None, {})
        assert status == 401
        status, _ = router.handle("GET", "/devices", None, self.auth("Bearer nope"))
        assert status == 401

    def test_status_route_checks_path_subject(self):
        router, services, admin = self.make_router()
        _, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        device = body["device_token"]
        status, body = router.handle(
            "POST", "/devices/camera-001/status", {"status": "maintenance"}, self.auth(device)
        )
        assert status == 200
        assert body["details"]["status"] == "maintenance"

        status, _ = router.handle(
            "POST", "/devices/camera-other/status", {"status": "online"}, self.auth(device)
        )
        assert status == 401

    def test_status_route_requires_status_field(self):
        router, _, admin = self.make_router()
        _, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        status, body = router.handle(
            "POST", "/devices/camera-001/status", {}, self.auth(body["device_token"])
        )
        assert status == 400
        assert "missing field" in body["error"]

    def test_config_and_rollback_routes(self):
        router, services, admin = self.make_router()
        router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        initial = services.state()["current_version"]["camera-001"]

        status, body = router.handle(
            "POST", "/devices/camera-001/config", {"config": {"fps": 30}}, self.auth(admin)
        )
        assert status == 201
        assert services.config_json("camera-001") == canonical_json({"fps": 30})

        status, body = router.handle(
            "POST",
            "/devices/camera-001/rollback",
            {"target_version_id": initial},
            self.auth(admin),
        )
        assert status == 200
        assert body["details"]["new_version_id"] == initial

        status, _ = router.handle(
            "POST", "/devices/camera-001/rollback", {"target_version_id": "v-404"}, self.auth(admin)
        )
        assert status == 404

    def test_actions_route(self):
        services, admin = make_services()
        ran = []
        router = ServiceRouter(services, executor=lambda a, apply: ran.append(a.action_id))
        router.handle("POST", "/devices", actuator_payload(), self.auth(admin))
        status, body = router.handle(
            "POST", "/actions", {"device_id": "gate-007", "payload": {"cmd": "open"}}, self.auth(admin)
        )
        assert status == 202
        assert body["state"] == "committed"
        assert ran == [body["action_id"]]

        status, body = router.handle(
            "POST", "/actions", {"device_id": "gate-404", "payload": {}}, self.auth(admin)
        )
        assert status == 404

    def test_capture_routes(self):
        router, services, admin = self.make_router()
        _, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        device = body["device_token"]
        samples = [
            {"device_id": "camera-001", "modality": "imu", "local_ts": t, "payload": [0.5]}
            for t in range(5)
        ]
        status, body = router.handle(
            "POST", "/capture", {"samples": samples}, self.auth(device)
        )
        assert status == 201
        assert body["stored"] == 5

        status, body = router.handle(
            "GET",
            "/capture",
            None,
            self.auth(admin),
            {"device_id": "camera-001", "start_ns": "1", "end_ns": "4"},
        )
        assert status == 200
        assert [s["corrected_ts"] for s in body["samples"]] == [1, 2, 3]

        status, body = router.handle("GET", "/capture", None, self.auth(admin), {})
        assert status == 400

    def test_malformed_token_fields_are_bad_requests(self):
        router, _, admin = self.make_router()
        for bad in (
            {"subject": "ops", "ttl_s": "soon"},
            {"subject": "ops", "roles": 5},
            {"subject": "ops", "ttl_s": 10**400},
            {"subject": "ops", "ttl_s": math.nan},
            {"subject": ["ops"]},
            {"subject": "ops", "roles": [None]},
            {"subject": "ops", "roles": "admin"},
        ):
            status, body = router.handle("POST", "/tokens", bad, self.auth(admin))
            assert status == 400
            assert "must be" in body["error"]

    def test_malformed_control_fields_are_bad_requests(self):
        router, services, admin = self.make_router()
        _, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        device = body["device_token"]
        services.register_device(actuator_payload(), admin)
        for path, bad, token in (
            ("/devices/camera-001/status", {"status": "online", "last_sync_timestamp": [1]}, device),
            ("/devices/camera-001/status", {"status": "online", "last_sync_timestamp": 1e300}, device),
            ("/devices/camera-001/status", {"status": "online", "last_sync_timestamp": True}, device),
            ("/devices/camera-001/status", {"status": "online", "last_sync_timestamp": "soon"}, device),
            ("/devices/camera-001/status", {"status": "online", "last_sync_timestamp": "2024-02-30T00:00:00.0000"}, device),
            ("/devices/camera-001/status", {"status": "online", "last_sync_timestamp": "2024-10-05T21:19:45.388"}, device),
            ("/actions", {"device_id": "gate-007", "payload": [1]}, admin),
        ):
            status, _ = router.handle("POST", path, bad, self.auth(token))
            assert status == 400
        assert services.device_record("camera-001").last_sync_timestamp == camera_payload()["last_sync_timestamp"]
        for path, bad in (
            ("/actions", {"device_id": ["gate-007"], "payload": {}}),
            ("/devices/camera-001/rollback", {"target_version_id": ["id-00000"]}),
        ):
            status, _ = router.handle("POST", path, bad, self.auth(admin))
            assert status == 404

    def test_registration_timestamps_must_parse(self):
        router, services, admin = self.make_router()
        for stamps, fields in (
            ({"last_sync_timestamp": "soon"}, ["last_sync_timestamp"]),
            ({"registration_timestamp": 5}, ["registration_timestamp"]),
            ({"last_sync_timestamp": "2024-02-30T00:00:00.0000", "registration_timestamp": None},
             ["last_sync_timestamp", "registration_timestamp"]),
        ):
            status, body = router.handle("POST", "/devices", camera_payload() | stamps, self.auth(admin))
            assert (status, body["fields"]) == (400, fields)
        with pytest.raises(NotFoundError):
            services.device_record("camera-001")
        status, _ = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        assert status == 201
        record = services.device_record("camera-001")
        assert record.last_sync_timestamp == camera_payload()["last_sync_timestamp"]
        assert record.registration_timestamp == camera_payload()["registration_timestamp"]

    def test_non_object_body_is_a_bad_request(self):
        router, _, admin = self.make_router()
        status, body = router.handle("POST", "/devices", [camera_payload()], self.auth(admin))
        assert status == 400
        assert "JSON object" in body["error"]

    def test_non_integer_capture_fields_are_bad_requests(self):
        router, services, admin = self.make_router()
        _, body = router.handle("POST", "/devices", camera_payload(), self.auth(admin))
        device = body["device_token"]
        sample = {"device_id": "camera-001", "modality": "imu", "local_ts": "soon", "payload": [0.5]}
        status, body = router.handle("POST", "/capture", {"samples": [sample]}, self.auth(device))
        assert status == 400
        assert "capture sample" in body["error"]

        good = dict(sample, local_ts=7)
        for bad in (
            {"samples": [[1, 2]]},
            {"samples": "camera-001"},
            {"samples": [dict(sample, local_ts=1, payload=["x"])]},
            {"samples": [dict(sample, local_ts=1, payload=5)]},
            {"samples": [dict(sample, local_ts=math.inf)]},
            *(
                {"samples": samples}
                for local_ts in (1.9, 1.0, True, False, "12", None, 2**70, 2**63, -(2**63) - 1)
                for samples in ([dict(sample, local_ts=local_ts)], [good, dict(sample, local_ts=local_ts)])
            ),
        ):
            status, body = router.handle("POST", "/capture", bad, self.auth(device))
            assert status == 400, bad
        # a rejected batch stores nothing, its good samples included
        assert services.query_captures("camera-001", -(2**63), 2**63, admin) == []
        edges = [dict(sample, local_ts=t) for t in (-(2**63), 2**63 - 1)]
        status, body = router.handle("POST", "/capture", {"samples": edges}, self.auth(device))
        assert (status, body["stored"]) == (201, 2)

        for field in ("start_ns", "end_ns"):
            query = {"device_id": "camera-001", "start_ns": "1", "end_ns": "4", field: "1.5e3"}
            status, body = router.handle("GET", "/capture", None, self.auth(admin), query)
            assert status == 400
            assert field in body["error"]

    def test_unknown_route(self):
        router, _, admin = self.make_router()
        status, body = router.handle("GET", "/nowhere", None, self.auth(admin))
        assert status == 404
        status, _ = router.handle("PUT", "/devices", None, self.auth(admin))
        assert status == 404


class TestHttpServer:
    def test_round_trip_over_real_socket(self):
        services, admin = make_services()
        router = ServiceRouter(services)
        server = serve(router, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/devices",
                data=json.dumps(camera_payload()).encode(),
                headers={"Authorization": f"Bearer {admin}", "Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 201
                body = json.loads(response.read())
                assert body["record"]["device_id"] == "camera-001"

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/devices",
                headers={"Authorization": f"Bearer {admin}"},
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                assert len(json.loads(response.read())["devices"]) == 1

            bare = urllib.request.Request(f"http://127.0.0.1:{port}/devices")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bare)
            assert err.value.code == 401

            malformed = urllib.request.Request(
                f"http://127.0.0.1:{port}/devices",
                data=b'{"device_id": ',
                headers={"Authorization": f"Bearer {admin}", "Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(malformed)
            assert err.value.code == 400
            assert "not valid JSON" in json.loads(err.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


    def test_concurrent_registrations_of_one_device_conflict(self):
        # registration checks for the id, draws a version id, then
        # inserts; a slow id factory holds that window open, so without
        # the server lock several requests pass the check
        ids = sequential_ids()

        def slow_ids():
            time.sleep(0.005)
            return ids()

        services, admin = make_services(id_factory=slow_ids)
        server = serve(ServiceRouter(services), "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        statuses = []

        def register():
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/devices",
                data=json.dumps(camera_payload()).encode(),
                headers={"Authorization": f"Bearer {admin}", "Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=20) as response:
                    statuses.append(response.status)
            except urllib.error.HTTPError as error:
                statuses.append(error.code)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=register) for _ in range(8)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
            assert not any(client.is_alive() for client in clients)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert sorted(statuses) == [201] + [409] * 7
        assert replay_log(services.log_records()) == services.state()


FIELD_NAMES = (
    "subject", "roles", "ttl_s", "device_id", "type", "location", "capabilities", "data_format",
    "access_methods", "status", "last_sync_timestamp", "registration_timestamp", "owner", "config",
    "target_version_id", "payload", "samples", "modality", "local_ts",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), inner, max_size=5),
    max_leaves=16,
)
# one well-formed request per route: (method, path, body, query, token kind)
WELL_FORMED = (
    ("POST", "/tokens", {"subject": "ops", "roles": ["app"], "ttl_s": 60}, {}, "admin"),
    ("POST", "/devices", camera_payload("camera-002"), {}, "admin"),
    ("GET", "/devices", {}, {}, "admin"),
    ("POST", "/devices/camera-001/status", {"status": "online", "last_sync_timestamp": 1.7e9}, {}, "device"),
    ("POST", "/devices/gate-007/config", {"config": {"mode": "open"}}, {}, "admin"),
    ("POST", "/devices/gate-007/rollback", {"target_version_id": "id-00001"}, {}, "admin"),
    ("POST", "/actions", {"device_id": "gate-007", "payload": {"command": "open"}}, {}, "admin"),
    ("POST", "/capture", {"samples": [{"device_id": "camera-001", "local_ts": 5, "payload": [1.0]}]}, {}, "device"),
    ("GET", "/capture", {}, {"device_id": "camera-001", "start_ns": "0", "end_ns": "10"}, "device"),
)


@st.composite
def requests(draw):
    """A well-formed request with fields replaced, dropped or added, or
    with any method, path, body, token, header and query at all."""
    method, path, body, query, token = draw(st.sampled_from(WELL_FORMED))
    dropped = draw(st.sets(st.sampled_from(sorted(body)), max_size=2)) if body else set()
    body = {name: value for name, value in body.items() if name not in dropped}
    body.update(draw(st.dictionaries(st.sampled_from(sorted(set(body) | set(FIELD_NAMES))), JSON_VALUES, max_size=2)))
    query = dict(query, **draw(st.dictionaries(st.sampled_from(["device_id", "start_ns", "end_ns"]), st.text(max_size=12))))
    return (
        draw(st.just(method) | st.text(max_size=6)),
        draw(st.just(path) | st.text(max_size=20)),
        draw(st.just(body) | JSON_VALUES),
        draw(st.just(token) | st.text(max_size=12)),
        draw(st.dictionaries(st.text(max_size=12), st.text(max_size=12), max_size=3)),
        draw(st.just(query) | st.dictionaries(st.text(max_size=6), st.text(max_size=12), max_size=3)),
    )


# every bad field value that test_non_integer_capture_fields_are_bad_requests sends, and more
BAD_LOCAL_TS = ("soon", 1.9, 1.0, True, False, "12", None, 2**70, 2**63, -(2**63) - 1, math.inf, [1])
BAD_PAYLOADS = (["x"], 5, None, [None], [[1.0]], [10**400], {"a": 1.0})
BAD_MODALITIES = ("", "video", None, 5, ["imu"])
NOT_SAMPLES = ([1, 2], "camera-a", None, 5, True)
NOT_BATCHES = (None, 5, "camera-a", {"device_id": "camera-a"}, {}, True, 1.5)
EDGE_TS = (-(2**63), 2**63 - 1)
BAD_BOUNDS = ("1.5e3", "x", "", str(-(2**63)), str(2**70))
SAMPLE_FAULTS = ("none",) * 6 + ("local_ts", "payload", "modality", "device", "drop", "not_mapping")
TOKEN_KINDS = ("own",) * 8 + ("other", "admin", "app", "ghost", "garbage")


@st.composite
def capture_requests(draw):
    """One ``POST /capture`` or windowed ``GET /capture``: (method, body, query, device, token kind)."""
    device_id = draw(st.sampled_from(CAPTURE_DEVICES * 3 + ("camera-z",)))
    token = draw(st.sampled_from(TOKEN_KINDS))
    if draw(st.booleans()):
        start = draw(st.integers(-5, 30))
        bounds = [
            str(value) if draw(st.integers(0, 7)) else draw(st.sampled_from(BAD_BOUNDS))
            for value in (start, start + draw(st.integers(-2, 35)))
        ]
        query = {"device_id": device_id, "start_ns": bounds[0], "end_ns": bounds[1]}
        return "GET", None, query, device_id, token
    if draw(st.integers(0, 9)) == 0:
        return "POST", draw(st.sampled_from(({"samples": draw(st.sampled_from(NOT_BATCHES))}, {}))), None, device_id, token
    # one batch in four is drawn with faults, in about half its samples
    faulty = draw(st.integers(0, 3)) == 0
    batch = []
    for _ in range(draw(st.integers(0, 8))):
        sample = {
            "device_id": device_id,
            "modality": draw(st.sampled_from(MODALITIES)),
            "local_ts": draw(st.integers(0, 30)) if draw(st.integers(0, 7)) else draw(st.sampled_from(EDGE_TS)),
            "payload": draw(st.lists(st.floats(allow_nan=False) | st.integers(-3, 3) | st.booleans(), max_size=3)),
        }
        fault = draw(st.sampled_from(SAMPLE_FAULTS)) if faulty else "none"
        if fault == "local_ts":
            sample["local_ts"] = draw(st.sampled_from(BAD_LOCAL_TS))
        elif fault == "payload":
            sample["payload"] = draw(st.sampled_from(BAD_PAYLOADS))
        elif fault == "modality":
            sample["modality"] = draw(st.sampled_from(BAD_MODALITIES))
        elif fault == "device":
            sample["device_id"] = draw(st.sampled_from(CAPTURE_DEVICES + ("camera-z", "", 7, None)))
        elif fault == "drop":
            del sample[draw(st.sampled_from(sorted(sample)))]
        elif fault == "not_mapping":
            sample = draw(st.sampled_from(NOT_SAMPLES))
        batch.append(sample)
    return "POST", {"samples": batch}, None, device_id, token


class TestCaptureRoutesMatchOracle:
    """``POST``/``GET /capture`` answer as the one-object-per-sample path in ``oracles`` does."""

    @staticmethod
    def side(router_type, id_seed):
        rng = random.Random(id_seed)
        # ids from a small pool, so that ids repeat and ties need them
        services, admin = make_services(id_factory=lambda: f"id-{rng.randrange(16):02d}")
        router = router_type(services)
        tokens = {"admin": admin, "app": services.issue_token("ops", ("app",), 3600.0).token}
        tokens["ghost"] = services.issue_token("camera-z", ("device",), 3600.0).token
        for device_id in CAPTURE_DEVICES:
            tokens[device_id] = services.register_device(camera_payload(device_id), admin).token
        return router, services, tokens

    @settings(max_examples=budget(200), deadline=None)
    @given(st.lists(capture_requests(), min_size=1, max_size=16), st.integers(0, 2**16))
    def test_same_answers_as_oracle(self, requests, id_seed):
        router, services, tokens = self.side(ServiceRouter, id_seed)
        oracle, oracle_services, oracle_tokens = self.side(CaptureRouterOracle, id_seed)
        assert tokens == oracle_tokens
        for method, body, query, device_id, kind in requests:
            if kind == "own":
                token = tokens.get(device_id, "x.y")  # camera-z is not registered
            elif kind == "other":
                token = tokens["camera-b" if device_id == "camera-a" else "camera-a"]
            else:
                token = tokens.get(kind, "x.y")
            headers = {"Authorization": f"Bearer {token}"}
            # each side gets its own copy: neither may see what the other did to a body
            got = router.handle(method, "/capture", copy.deepcopy(body), headers, query)
            want = oracle.handle(method, "/capture", copy.deepcopy(body), headers, query)
            assert got[0] == want[0], (method, body, query, kind, got, want)
            if 200 <= want[0] < 300:
                # the oracle's rows hold lists, the router's the stored
                # tuples: the JSON bodies they serve must match byte for byte
                assert json.dumps(got[1]) == json.dumps(want[1])
            else:
                assert isinstance(got[1]["error"], str)
        assert services.log_records() == oracle_services.log_records()

    def test_malformed_batch_with_bad_token_is_a_bad_request(self):
        router, services, tokens = self.side(ServiceRouter, 0)
        oracle, *_ = self.side(CaptureRouterOracle, 0)
        good = wire_samples("camera-a", 1)[0]
        for batch in ([dict(good, local_ts=1.5)], [None], 5, [{"modality": "imu", "local_ts": 1}]):
            for token in ("x.y", tokens["camera-b"], tokens["ghost"]):
                for side in (router, oracle):
                    status, body = side.handle("POST", "/capture", {"samples": batch}, {"Authorization": f"Bearer {token}"})
                    assert (status, isinstance(body["error"], str)) == (400, True)
        # a well-formed batch with those tokens is refused for the token
        for token in ("x.y", tokens["camera-b"], tokens["ghost"]):
            status, _ = router.handle("POST", "/capture", {"samples": [good]}, {"Authorization": f"Bearer {token}"})
            assert status == 401


class TestRouterFuzz:
    """Whatever arrives, the router answers with a status and an object."""

    @settings(max_examples=200, deadline=None)
    @given(requests())
    def test_any_request_gets_a_response(self, request):
        method, path, body, token, headers, query = request
        services, admin = make_services()
        services.register_device(camera_payload(), admin)
        services.register_device(actuator_payload(), admin)
        device = services.issue_token("camera-001", ("device",), 3600).token
        bearer = {"admin": admin, "device": device}.get(token, token)
        headers = dict(headers, Authorization=f"Bearer {bearer}")
        status, payload = ServiceRouter(services).handle(method, path, body, headers, query)
        assert isinstance(status, int)
        assert isinstance(payload, dict)

    @pytest.mark.parametrize(
        "headers, query",
        [
            ([("Authorization", "Bearer token")], {}),
            ({1: "Bearer token"}, {}),
            ({"Authorization": 5}, {}),
            ({"Authorization": None}, {}),
            ({}, ["device_id", "start_ns", "end_ns"]),
            ({}, "device_id=camera-001"),
        ],
        ids=["headers-not-a-mapping", "header-name-not-text", "authorization-number", "authorization-null",
             "query-list", "query-text"],
    )
    def test_malformed_headers_and_query_get_an_error_response(self, headers, query):
        services, _ = make_services()
        status, payload = ServiceRouter(services).handle("GET", "/capture", None, headers, query)
        assert status in (400, 401)
        assert isinstance(payload["error"], str)
