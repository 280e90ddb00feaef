"""Device control plane: registry, tokens, versions, actions, capture.

Devices register with attribute records and receive scoped bearer
tokens; configuration changes are versioned as self-contained snapshots
with byte-exact rollback; actions run strictly in order per device with
automatic rollback on faults; captured wire samples are checked once,
stored as plain tagged rows and read back by time window. Every state
change lands in an append-only activity log that alone reconstructs
the state.
"""

from .registry import CoreServices, replay_log
from .router import ServiceRouter, serve
from .store import FileLog, MemoryLog
from .tokens import AccessToken, issue_token, require_role, validate_token
from .types import (
    ACTION_STATES,
    ACTIVITY_TYPES,
    DEVICE_STATUSES,
    DEVICE_TYPES,
    AccessMethods,
    ActionCommand,
    ActivityLogEntry,
    DeviceRecord,
    Location,
    VersionSnapshot,
    canonical_json,
    format_timestamp,
    record_from_payload,
)

__all__ = [
    "ACTION_STATES",
    "ACTIVITY_TYPES",
    "DEVICE_STATUSES",
    "DEVICE_TYPES",
    "AccessMethods",
    "AccessToken",
    "ActionCommand",
    "ActivityLogEntry",
    "CoreServices",
    "DeviceRecord",
    "FileLog",
    "Location",
    "MemoryLog",
    "ServiceRouter",
    "VersionSnapshot",
    "canonical_json",
    "format_timestamp",
    "issue_token",
    "record_from_payload",
    "replay_log",
    "require_role",
    "serve",
    "validate_token",
]
