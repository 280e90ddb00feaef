"""Records managed by the device control plane."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Mapping, Sequence

from ..errors import UsageError, ValidationError, checked_real

DEVICE_TYPES = ("sensor", "actuator")
DEVICE_STATUSES = ("online", "offline", "maintenance")
ACTIVITY_TYPES = ("register", "update", "rollback", "action", "data_access")
ACTION_STATES = ("queued", "executing", "committed", "rolled_back")
_TIMESTAMP_LAYOUT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{4}")

_ACTION_TRANSITIONS = {
    "queued": ("executing",),
    "executing": ("committed", "rolled_back"),
    "committed": (),
    "rolled_back": (),
}


@lru_cache(maxsize=64)
def _calendar_second(whole: int) -> str:
    """The ``YYYY-MM-DDTHH:MM:SS`` of a whole UTC epoch second.

    Stamps taken close together share their second, so each is
    formatted once; a second outside the calendar raises and is not kept.
    """
    return datetime.fromtimestamp(whole, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def format_timestamp(epoch_s: float) -> str:
    """ISO-8601 with exactly four fractional digits, no zone suffix."""
    epoch_s = checked_real(epoch_s, "timestamp", UsageError)
    if not math.isfinite(epoch_s):
        raise UsageError("timestamp must be finite")
    whole = int(epoch_s // 1)
    frac = round((epoch_s - whole) * 10_000)
    if frac == 10_000:
        whole += 1
        frac = 0
    try:
        second = _calendar_second(whole)
    except (OverflowError, OSError, ValueError) as exc:
        raise UsageError(f"timestamp {epoch_s!r} is outside the calendar") from exc
    return f"{second}.{frac:04d}"


def parse_timestamp(stamp: str) -> str:
    """``stamp`` itself if it is a calendar time in ``format_timestamp``'s layout.

    Anything else, a value that is not a string included, raises ``ValueError``.
    """
    if not isinstance(stamp, str) or not _TIMESTAMP_LAYOUT.fullmatch(stamp):
        raise ValueError(f"timestamp {stamp!r} is not laid out as YYYY-MM-DDTHH:MM:SS.ffff")
    datetime.strptime(stamp[:19], "%Y-%m-%dT%H:%M:%S")
    return stamp


def canonical_json(value) -> str:
    """The single serialization used wherever bytes must compare equal; a value JSON cannot hold is a UsageError."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"value is not JSON: {exc}") from None


@dataclass(frozen=True)
class Location:
    latitude: float
    longitude: float
    description: str


@dataclass(frozen=True)
class AccessMethods:
    api_endpoint: str
    protocols: str


@dataclass(frozen=True)
class DeviceRecord:
    """Registry entry for one device.

    The wire form preserves the field order of the registration payload
    format: identity, type, location, capabilities, data format, access
    methods, status, and the two timestamps, then the owner.
    """

    device_id: str
    type: str
    location: Location
    capabilities: tuple[str, ...]
    data_format: str
    access_methods: AccessMethods
    status: str
    last_sync_timestamp: str
    registration_timestamp: str
    owner: str

    def to_payload(self) -> dict:
        return {
            "device_id": self.device_id,
            "type": self.type,
            "location": {
                "latitude": self.location.latitude,
                "longitude": self.location.longitude,
                "description": self.location.description,
            },
            "capabilities": list(self.capabilities),
            "data_format": self.data_format,
            "access_methods": {
                "api_endpoint": self.access_methods.api_endpoint,
                "protocols": self.access_methods.protocols,
            },
            "status": self.status,
            "last_sync_timestamp": self.last_sync_timestamp,
            "registration_timestamp": self.registration_timestamp,
            "owner": self.owner,
        }


def record_from_payload(payload: Mapping, default_timestamp: str) -> DeviceRecord:
    """Validate a registration payload, reporting every bad field at once.

    Timestamps may be omitted; they default to the supplied stamp. A
    timestamp that is present must be in ``format_timestamp``'s layout.
    """
    bad: list[str] = []

    def text(name, container=payload, prefix=""):
        value = container.get(name)
        if not isinstance(value, str) or not value:
            bad.append(prefix + name)
            return ""
        return value

    device_id = text("device_id")
    dev_type = text("type")
    if dev_type and dev_type not in DEVICE_TYPES:
        bad.append("type")

    def number(container, name, prefix):
        value = container.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            bad.append(prefix + name)
            return 0.0
        return float(value)

    loc = payload.get("location")
    latitude = longitude = 0.0
    description = ""
    if not isinstance(loc, Mapping):
        bad.extend(["location.latitude", "location.longitude", "location.description"])
    else:
        latitude = number(loc, "latitude", "location.")
        longitude = number(loc, "longitude", "location.")
        description = text("description", loc, "location.")

    caps = payload.get("capabilities")
    if not isinstance(caps, Sequence) or isinstance(caps, str) or not all(isinstance(c, str) for c in caps):
        bad.append("capabilities")
        caps = ()

    data_format = text("data_format")

    methods = payload.get("access_methods")
    api_endpoint = protocols = ""
    if not isinstance(methods, Mapping):
        bad.extend(["access_methods.api_endpoint", "access_methods.protocols"])
    else:
        api_endpoint = text("api_endpoint", methods, "access_methods.")
        protocols = text("protocols", methods, "access_methods.")

    status = payload.get("status", "online")
    if status not in DEVICE_STATUSES:
        bad.append("status")

    owner = text("owner")

    def timestamp(name):
        value = payload.get(name, default_timestamp)
        if name in payload:
            try:
                parse_timestamp(value)
            except (TypeError, ValueError):
                bad.append(name)
        return value

    last_sync = timestamp("last_sync_timestamp")
    registered = timestamp("registration_timestamp")

    if bad:
        raise ValidationError(f"invalid device record: {', '.join(bad)}", fields=tuple(bad))

    return DeviceRecord(
        device_id=device_id,
        type=dev_type,
        location=Location(latitude, longitude, description),
        capabilities=tuple(caps),
        data_format=data_format,
        access_methods=AccessMethods(api_endpoint, protocols),
        status=status,
        last_sync_timestamp=last_sync,
        registration_timestamp=registered,
        owner=owner,
    )


@dataclass(frozen=True)
class VersionSnapshot:
    """A complete, self-contained configuration version.

    ``config_json`` is the canonical serialization; byte equality of two
    snapshots means equality of the configurations they restore.
    """

    version_id: str
    device_id: str
    config_json: str
    created_at: str

    @property
    def config(self) -> dict:
        return json.loads(self.config_json)


@dataclass(frozen=True)
class ActivityLogEntry:
    timestamp: str
    activity_type: str
    details: Mapping

    def __post_init__(self):
        if self.activity_type not in ACTIVITY_TYPES:
            raise UsageError(f"unknown activity type {self.activity_type!r}")
        object.__setattr__(self, "details", dict(self.details))

    def to_record(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "activity_type": self.activity_type,
            "details": dict(self.details),
        }


@dataclass
class ActionCommand:
    """A queued device command moving through a fixed state machine."""

    action_id: str
    device_id: str
    payload: dict
    state: str = "queued"

    def transition(self, new_state: str):
        if new_state not in _ACTION_TRANSITIONS.get(self.state, ()):
            raise UsageError(f"illegal action transition {self.state} -> {new_state}")
        self.state = new_state

