"""Device registry, version control, action queue, and capture store.

Every state-changing operation appends exactly one activity entry, and
the entry carries enough detail that replaying the log from empty
rebuilds the control-plane state. ``replay_log`` is that second,
independent accounting route; tests hold it equal to the live state.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from dataclasses import replace
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import AuthError, ConflictError, NotFoundError, UsageError, ValidationError, checked_int
from ..timebase import INT64_MAX, INT64_MIN, MODALITIES
from .store import MemoryLog
from .tokens import AccessToken, _check_key, _check_unexpired, issue_token, require_role, validate_token
from .types import (
    DEVICE_STATUSES,
    ActionCommand,
    ActivityLogEntry,
    DeviceRecord,
    VersionSnapshot,
    canonical_json,
    format_timestamp,
    parse_timestamp,
    record_from_payload,
)

DEFAULT_DEVICE_TTL_S = 30 * 86_400
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY_S = 0.1

# the most tokens one CoreServices keeps verified claims for; past it the
# longest-held entry makes room
_VERIFIED_TOKENS = 1024

# os.urandom bytes with the version-4 and the RFC 4122 variant bits set
_VERSION_4 = bytes(b & 0x0F | 0x40 for b in range(256))
_VARIANT_RFC_4122 = bytes(b & 0x3F | 0x80 for b in range(256))

# a stored capture row, one tuple per sample:
# (local_ts, capture_id, modality, payload, location);
# the order of a device's capture store and of every query result
_capture_key = itemgetter(0, 1)


def _random_ids(n: int) -> list[str]:
    """``n`` random RFC 4122 version-4 UUID strings from one ``os.urandom`` call."""
    raw = bytearray(os.urandom(16 * n))
    raw[6::16] = raw[6::16].translate(_VERSION_4)
    raw[8::16] = raw[8::16].translate(_VARIANT_RFC_4122)
    h = raw.hex()
    return [
        f"{h[i:i + 8]}-{h[i + 8:i + 12]}-{h[i + 12:i + 16]}-{h[i + 16:i + 20]}-{h[i + 20:i + 32]}"
        for i in range(0, 32 * n, 32)
    ]


def _issued_shape(claims: dict) -> bool:
    """Whether ``claims`` hold just what ``issue_token`` signs: a subject and a list of role strings
    beside the expiry, so that a copy of the dict and its role list shares nothing mutable."""
    roles = claims.get("roles")
    return (
        len(claims) == 3
        and type(claims["subject"]) is str
        and type(roles) is list
        and all(type(role) is str for role in roles)
    )


def _parse_samples(samples: Iterable[Mapping]) -> tuple[set, list, list, list]:
    """The device ids, modalities, local timestamps and payloads of a wire batch, each checked once.

    A UsageError for a batch that is not iterable, a sample that is not a mapping or lacks
    ``device_id``, ``modality`` or ``local_ts``, an unknown modality, an empty or non-text
    device id, a ``local_ts`` that is not an integer, or a payload that is not numbers.
    """
    devices, modalities, local, payloads = set(), [], [], []
    try:
        for sample in samples:
            if type(sample) is not dict and not isinstance(sample, Mapping):
                raise UsageError(f"capture sample must be an object, not {type(sample).__name__}")
            device_id, modality, local_ts = sample["device_id"], sample["modality"], sample["local_ts"]
            if not isinstance(device_id, str) or not device_id:
                raise UsageError("capture sample device_id must be a non-empty string")
            if modality not in MODALITIES:
                raise UsageError(f"unknown modality {modality!r}")
            if type(local_ts) is not int:
                local_ts = checked_int(local_ts, "capture sample local_ts", UsageError)
            devices.add(device_id)
            modalities.append(modality)
            local.append(local_ts)
            payloads.append(tuple(map(float, sample.get("payload", ()))))
    except KeyError as exc:
        raise UsageError(f"capture sample lacks field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        # a batch that is not a list, or a payload that is not numbers
        raise UsageError(f"malformed capture sample: {exc}") from exc
    return devices, modalities, local, payloads


class CoreServices:
    """The control plane: registration, versions, actions, capture.

    ``clock``, ``sleeper``, and ``id_factory`` are injectable so tests
    can pin time, observe backoff, and fix identifiers. An injected
    ``id_factory`` is called once per identifier, in the order the
    identifiers are used; without one, identifiers are random version-4
    UUIDs drawn a batch at a time.

    Each device's captures are rows ``(local_ts, capture_id, modality,
    payload, location)``, kept sorted by their first two fields beside
    a list of their ``local_ts`` values, so a windowed query is two
    bisections and a slice. No clock model is applied at capture: a
    row's ``corrected_ts`` is its ``local_ts``. Query rows hand out
    the stored ``payload`` and ``location`` tuples themselves.

    A token's MAC, base64 and JSON are verified once per instance: the
    claims ``validate_token`` returned are kept by exact token string,
    for at most ``_VERIFIED_TOKENS`` tokens. Expiry is checked on every
    use, against one clock read per call.
    """

    def __init__(
        self,
        key: bytes,
        log=None,
        clock: Callable[[], float] | None = None,
        sleeper: Callable[[float], None] | None = None,
        id_factory: Callable[[], str] | None = None,
        device_ttl_s: float = DEFAULT_DEVICE_TTL_S,
    ):
        _check_key(key)
        # kept claims were verified under the key as given: a bytearray
        # changed later must not change it here
        self._key = bytes(key)
        self._log = log if log is not None else MemoryLog()
        self._clock = clock or time.time
        self._sleep = sleeper or time.sleep
        self._id_factory = id_factory
        self._device_ttl_s = device_ttl_s
        self._devices: dict[str, DeviceRecord] = {}
        self._configs: dict[str, str] = {}
        self._current_version: dict[str, str] = {}
        self._versions: dict[str, VersionSnapshot] = {}
        self._actions: dict[str, ActionCommand] = {}
        self._pending: dict[str, list[str]] = {}
        self._captures: dict[str, list[tuple]] = {}
        self._capture_keys: dict[str, list[int]] = {}
        self._verified: dict[str, dict] = {}

    def _new_ids(self, n: int) -> list[str]:
        if self._id_factory is None:
            return _random_ids(n)
        return [self._id_factory() for _ in range(n)]

    def now_s(self) -> float:
        return self._clock()

    # -- tokens ------------------------------------------------------

    def issue_token(self, subject: str, roles, ttl_s: float) -> AccessToken:
        return issue_token(subject, roles, ttl_s, self._key, now=self._clock())

    def validate(self, token: str) -> dict:
        """``validate_token(token, key, now=clock())``, with the MAC checked once per token.

        Kept claims are dropped once seen expired, a failure is never
        kept, and every call hands out a dict of its own.
        """
        now = self._clock()
        claims = self._verified.get(token) if type(token) is str else None
        if claims is None:
            claims = validate_token(token, self._key, now=now)
            if not _issued_shape(claims):
                return claims
            if len(self._verified) >= _VERIFIED_TOKENS:
                del self._verified[next(iter(self._verified))]
            self._verified[token] = claims
        else:
            try:
                _check_unexpired(claims, now)
            except AuthError:
                del self._verified[token]
                raise
        return dict(claims, roles=list(claims["roles"]))

    # -- log plumbing ------------------------------------------------

    def _record(self, stamp: str, activity_type: str, details: dict):
        """Append one activity record; the log keeps ``details``, which no caller holds on to."""
        self._log.append({"timestamp": stamp, "activity_type": activity_type, "details": details})

    def log_records(self) -> tuple[dict, ...]:
        return self._log.records()

    # -- registration and status -------------------------------------

    def register_device(self, payload: Mapping, admin_token: str) -> AccessToken:
        claims = self.validate(admin_token)
        require_role(claims, "admin")
        stamp = format_timestamp(self._clock())
        record = record_from_payload(payload, default_timestamp=stamp)
        if record.device_id in self._devices:
            raise ConflictError(f"device {record.device_id} is already registered")

        version_id = self._new_ids(1)[0]
        config = record.to_payload()
        self._devices[record.device_id] = record
        self._store_version(version_id, record.device_id, canonical_json(config), stamp)
        self._pending.setdefault(record.device_id, [])
        self._record(stamp, "register", {
            "device_id": record.device_id,
            "record": config,
            "version_id": version_id,
        })
        return self.issue_token(record.device_id, ("device",), self._device_ttl_s)

    def update_status(self, device_token: str, status: str, sync_ts) -> ActivityLogEntry:
        claims = self.validate(device_token)
        device_id = claims["subject"]
        record = self._devices.get(device_id)
        if record is None:
            raise AuthError(f"token subject {device_id!r} is not a registered device")
        if status not in DEVICE_STATUSES:
            raise ValidationError(f"unknown status {status!r}", fields=("status",))
        if sync_ts is None:
            sync_ts = self._clock()
        try:
            last_sync = parse_timestamp(sync_ts) if isinstance(sync_ts, str) else format_timestamp(sync_ts)
        except (ValueError, UsageError) as exc:
            raise ValidationError(
                "last_sync_timestamp must be a timestamp string or epoch seconds",
                fields=("last_sync_timestamp",),
            ) from exc
        self._devices[device_id] = replace(record, status=status, last_sync_timestamp=last_sync)
        stamp = format_timestamp(self._clock())
        details = {"device_id": device_id, "status": status, "last_sync_timestamp": last_sync}
        self._record(stamp, "update", details)
        return ActivityLogEntry(stamp, "update", details)

    def device_record(self, device_id: str) -> DeviceRecord:
        record = self._devices.get(device_id) if isinstance(device_id, str) else None
        if record is None:
            raise NotFoundError(f"unknown device {device_id!r}")
        return record

    def list_devices(self) -> tuple[DeviceRecord, ...]:
        return tuple(self._devices[d] for d in sorted(self._devices))

    # -- versions ----------------------------------------------------

    def _store_version(self, version_id: str, device_id: str, config_json: str, stamp: str):
        self._versions[version_id] = VersionSnapshot(version_id, device_id, config_json, stamp)
        self._configs[device_id] = config_json
        self._current_version[device_id] = version_id

    def snapshot_config(self, device_id: str, config: Mapping) -> VersionSnapshot:
        self.device_record(device_id)
        stamp = format_timestamp(self._clock())
        version_id = self._new_ids(1)[0]
        blob = canonical_json(config)
        self._store_version(version_id, device_id, blob, stamp)
        self._record(stamp, "update", {
            "device_id": device_id,
            "version_id": version_id,
            "config": json.loads(blob),
        })
        return self._versions[version_id]

    def config_json(self, device_id: str) -> str:
        self.device_record(device_id)
        return self._configs[device_id]

    def version(self, version_id: str) -> VersionSnapshot:
        snapshot = self._versions.get(version_id) if isinstance(version_id, str) else None
        if snapshot is None:
            raise NotFoundError(f"unknown version {version_id!r}")
        return snapshot

    def rollback(self, device_id: str, target_version_id: str, admin_token: str) -> ActivityLogEntry:
        claims = self.validate(admin_token)
        require_role(claims, "admin")
        self.device_record(device_id)
        return self._rollback(device_id, target_version_id)

    def _rollback(self, device_id: str, target_version_id: str) -> ActivityLogEntry:
        snapshot = self.version(target_version_id)
        if snapshot.device_id != device_id:
            raise NotFoundError(
                f"version {target_version_id!r} does not belong to device {device_id!r}"
            )
        old_version_id = self._current_version[device_id]
        details = {
            "device_id": device_id,
            "old_version_id": old_version_id,
            "new_version_id": target_version_id,
        }
        if target_version_id == old_version_id:
            details["no_op"] = True
        else:
            self._configs[device_id] = snapshot.config_json
            self._current_version[device_id] = target_version_id
        stamp = format_timestamp(self._clock())
        self._record(stamp, "rollback", details)
        return ActivityLogEntry(stamp, "rollback", details)

    # -- action queue ------------------------------------------------

    def enqueue_action(self, command: Mapping, token: str) -> str:
        claims = self.validate(token)
        require_role(claims, "admin", "app")
        missing = [f for f in ("device_id", "payload") if f not in command]
        if missing:
            raise ValidationError(
                f"action command missing: {', '.join(missing)}", fields=tuple(missing)
            )
        device_id = command["device_id"]
        record = self.device_record(device_id)
        if record.type != "actuator":
            raise ValidationError(
                f"target device {device_id!r} is not an actuator", fields=("device_id",)
            )
        if not isinstance(command["payload"], Mapping):
            raise ValidationError("action payload must be an object", fields=("payload",))
        action = ActionCommand(self._new_ids(1)[0], device_id, dict(command["payload"]))
        self._actions[action.action_id] = action
        self._pending.setdefault(device_id, []).append(action.action_id)
        stamp = format_timestamp(self._clock())
        self._record(stamp, "action", {
            "action_id": action.action_id,
            "device_id": device_id,
            "state": "queued",
            "payload": action.payload,
        })
        return action.action_id

    def action(self, action_id: str) -> ActionCommand:
        command = self._actions.get(action_id)
        if command is None:
            raise NotFoundError(f"unknown action {action_id!r}")
        return command

    def process_actions(self, executor: Callable | None = None) -> list[ActionCommand]:
        """Run every pending action, strictly in order per device.

        The executor is called as ``executor(action, apply_config)``;
        it may apply intermediate configuration through the callback
        and raises to signal a device fault. A fault (or a target that
        stays offline through the retry schedule) rolls the device back
        to its pre-action version and marks the action rolled back.
        """
        processed: list[ActionCommand] = []
        for device_id in sorted(self._pending):
            queue = self._pending[device_id]
            while queue:
                action = self._actions[queue.pop(0)]
                self._execute(action, executor)
                processed.append(action)
        return processed

    def _transition(self, action: ActionCommand, state: str, extra: dict | None = None):
        action.transition(state)
        details = {"action_id": action.action_id, "device_id": action.device_id, "state": state}
        if extra:
            details.update(extra)
        self._record(format_timestamp(self._clock()), "action", details)

    def _execute(self, action: ActionCommand, executor: Callable | None):
        device_id = action.device_id
        pre_version = self._current_version[device_id]
        self._transition(action, "executing")

        online = self._devices[device_id].status != "offline"
        for attempt in range(RETRY_ATTEMPTS):
            if online:
                break
            if attempt < RETRY_ATTEMPTS - 1:
                self._sleep(RETRY_BASE_DELAY_S * 2**attempt)
            online = self._devices[device_id].status != "offline"
        if not online:
            self._rollback(device_id, pre_version)
            self._transition(action, "rolled_back", {"reason": "target offline"})
            return

        def apply_config(config: Mapping) -> VersionSnapshot:
            return self.snapshot_config(device_id, config)

        try:
            if executor is not None:
                executor(action, apply_config)
            self._transition(action, "committed")
        except Exception as fault:
            self._rollback(device_id, pre_version)
            self._transition(action, "rolled_back", {"reason": repr(fault)})

    # -- capture -----------------------------------------------------

    def capture_ingest(self, device_token: str, samples: Iterable[Mapping]) -> tuple[str, ...]:
        """Store wire samples as in a ``POST /capture`` body; their capture ids in input order.

        The samples are checked before the token, so a malformed batch is
        a UsageError whatever token comes with it.
        """
        devices, modalities, local, payloads = _parse_samples(samples)
        device_id = self.validate(device_token)["subject"]
        record = self._devices.get(device_id)
        if record is None:
            raise AuthError(f"token subject {device_id!r} is not a registered device")

        # the whole batch is checked before any id is drawn or anything
        # stored, so a rejected batch leaves no trace
        stray = devices - {device_id}
        if stray:
            raise AuthError(f"sample for {min(stray)!r} submitted with token for {device_id!r}")
        if local and not (INT64_MIN <= min(local) and max(local) <= INT64_MAX):
            raise ValidationError("capture timestamps must fit in int64", fields=("local_ts",))

        location = (record.location.latitude, record.location.longitude)
        capture_ids = self._new_ids(len(local))
        batch = sorted(
            zip(local, capture_ids, modalities, payloads, repeat(location)), key=_capture_key
        )
        rows = self._captures.setdefault(device_id, [])
        keys = self._capture_keys.setdefault(device_id, [])
        if batch and rows and _capture_key(batch[0]) < _capture_key(rows[-1]):
            # two sorted runs: the stable sort merges them in linear time
            rows.extend(batch)
            rows.sort(key=_capture_key)
            keys[:] = [row[0] for row in rows]
        else:
            rows.extend(batch)
            keys.extend(row[0] for row in batch)
        stamp = format_timestamp(self._clock())
        self._record(stamp, "data_access", {
            "device_id": device_id,
            "op": "ingest",
            "count": len(capture_ids),
        })
        return tuple(capture_ids)

    def query_captures(self, device_id: str, start_ns: int, end_ns: int, token: str) -> list[dict]:
        """``GET /capture`` rows for one device in [start_ns, end_ns), time-sorted.

        Each row is a fresh dict, but its ``payload`` and ``location`` are
        the stored row's own tuples, not list copies: a caller cannot
        change what is stored, since tuples refuse mutation, and ``json``
        writes them as arrays. A dict of strings, ints and untracked
        tuples is never tracked by the garbage collector, so a large
        result adds nothing for a collection to walk.
        """
        start_ns = checked_int(start_ns, "start_ns", UsageError)
        end_ns = checked_int(end_ns, "end_ns", UsageError)
        claims = self.validate(token)
        roles = claims.get("roles")
        # an exact role, as `require_role` asks: a text claim such as
        # "appliance" holds "app" only as a substring; claims come from
        # JSON, so a list is the only sequence they can hold
        if claims["subject"] != device_id and (type(roles) is not list or ("app" not in roles and "admin" not in roles)):
            raise AuthError("capture queries need the app or admin role")
        self.device_record(device_id)
        keys = self._capture_keys.get(device_id, [])
        hits = self._captures.get(device_id, [])[bisect_left(keys, start_ns):bisect_left(keys, end_ns)]
        stamp = format_timestamp(self._clock())
        self._record(stamp, "data_access", {
            "device_id": device_id,
            "op": "query",
            "count": len(hits),
        })
        return [
            {
                "capture_id": capture_id,
                "device_id": device_id,
                "modality": modality,
                "local_ts": local_ts,
                "corrected_ts": local_ts,
                "payload": payload,
                "location": location,
            }
            for local_ts, capture_id, modality, payload, location in hits
        ]

    # -- state for replay equality ------------------------------------

    def state(self) -> dict:
        return {
            "devices": {d: r.to_payload() for d, r in self._devices.items()},
            "configs": dict(self._configs),
            "current_version": dict(self._current_version),
            "versions": {
                v: {
                    "device_id": s.device_id,
                    "config_json": s.config_json,
                    "created_at": s.created_at,
                }
                for v, s in self._versions.items()
            },
            "actions": {a: c.state for a, c in self._actions.items()},
        }


def replay_log(records: Sequence[Mapping]) -> dict:
    """Rebuild control-plane state from activity records alone.

    Returns the same shape as ``CoreServices.state`` so the two can be
    compared directly. Data-access entries carry no control state and
    are skipped.
    """
    devices: dict[str, dict] = {}
    configs: dict[str, str] = {}
    current_version: dict[str, str] = {}
    versions: dict[str, dict] = {}
    actions: dict[str, str] = {}

    for record in records:
        details = record["details"]
        kind = record["activity_type"]
        if kind == "register":
            device_id = details["device_id"]
            devices[device_id] = dict(details["record"])
            blob = canonical_json(details["record"])
            versions[details["version_id"]] = {
                "device_id": device_id,
                "config_json": blob,
                "created_at": record["timestamp"],
            }
            configs[device_id] = blob
            current_version[device_id] = details["version_id"]
        elif kind == "update" and "status" in details:
            device_id = details["device_id"]
            devices[device_id] = dict(devices[device_id])
            devices[device_id]["status"] = details["status"]
            devices[device_id]["last_sync_timestamp"] = details["last_sync_timestamp"]
        elif kind == "update" and "version_id" in details:
            device_id = details["device_id"]
            blob = canonical_json(details["config"])
            versions[details["version_id"]] = {
                "device_id": device_id,
                "config_json": blob,
                "created_at": record["timestamp"],
            }
            configs[device_id] = blob
            current_version[device_id] = details["version_id"]
        elif kind == "rollback":
            if not details.get("no_op"):
                device_id = details["device_id"]
                target = details["new_version_id"]
                configs[device_id] = versions[target]["config_json"]
                current_version[device_id] = target
        elif kind == "action":
            actions[details["action_id"]] = details["state"]

    return {
        "devices": devices,
        "configs": configs,
        "current_version": current_version,
        "versions": versions,
        "actions": actions,
    }
