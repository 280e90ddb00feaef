"""Role-carrying bearer tokens with a keyed MAC.

A token is base64(canonical-JSON claims) + "." + hex MAC over those
exact bytes. Validation recomputes the MAC and also re-encodes the
payload, rejecting non-canonical base64; without that check, flips in
the unused trailing bits of the final base64 symbol would decode to the
same payload and slip through.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac
import json
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import AuthError, UsageError

# the types a token lifetime or a clock reading may have; both go into
# the claims' JSON, which has no form for numpy scalars
_SECONDS = (int, float)


@dataclass(frozen=True)
class AccessToken:
    subject: str
    roles: tuple[str, ...]
    expires_at: float
    token: str


def _mac(payload: bytes, key: bytes) -> str:
    return hmac.new(key, payload, hashlib.sha256).hexdigest()


def _check_key(key: bytes):
    if not isinstance(key, (bytes, bytearray)):
        raise UsageError(f"signing key must be bytes, not {type(key).__name__}")
    if not key:
        raise UsageError("signing key must not be empty")


def _moment(now: float | None) -> float:
    """``now``, or the wall clock when it is None.

    A NaN would compare as never expired, so it is refused along with
    anything that is not a number.
    """
    if now is None:
        return time.time()
    if not isinstance(now, _SECONDS) or now != now:
        raise UsageError(f"now must be a number of seconds, not {now!r}")
    return now


def _check_unexpired(claims: dict, now: float | None):
    """An AuthError if the verified ``claims`` have expired at ``now``."""
    if _moment(now) >= claims["expires_at"]:
        raise AuthError("token expired")


def issue_token(
    subject: str,
    roles: Iterable[str],
    ttl_s: float,
    key: bytes,
    now: float | None = None,
) -> AccessToken:
    _check_key(key)
    if not isinstance(ttl_s, _SECONDS):
        raise UsageError(f"ttl must be a number of seconds, not {type(ttl_s).__name__}")
    if not ttl_s >= 0:
        # a NaN ttl would give a token that never expires
        raise UsageError("ttl must be non-negative")
    issued = _moment(now)
    try:
        role_tuple = tuple(roles)
    except TypeError:
        raise UsageError("subject and roles must be strings") from None
    if not isinstance(subject, str) or not all(isinstance(r, str) for r in role_tuple):
        raise UsageError("subject and roles must be strings")
    claims = {
        "subject": subject,
        "roles": sorted(role_tuple),
        "expires_at": issued + ttl_s,
    }
    payload = json.dumps(claims, sort_keys=True, separators=(",", ":")).encode()
    encoded = base64.urlsafe_b64encode(payload).decode()
    return AccessToken(
        subject=subject,
        roles=role_tuple,
        expires_at=claims["expires_at"],
        token=f"{encoded}.{_mac(payload, key)}",
    )


def validate_token(token: str, key: bytes, now: float | None = None) -> dict:
    """Return the claims if and only if the token is intact and current.

    Any alteration, in the payload, the separator, or the MAC, fails
    with an auth error, as does an expired token.
    """
    _check_key(key)
    if not isinstance(token, str) or token.count(".") != 1:
        raise AuthError("malformed token")
    encoded, presented_mac = token.split(".")
    try:
        payload = base64.urlsafe_b64decode(encoded.encode())
    except (binascii.Error, ValueError):
        raise AuthError("malformed token") from None
    if base64.urlsafe_b64encode(payload).decode() != encoded:
        raise AuthError("malformed token")
    try:
        presented = presented_mac.encode("ascii")
    except UnicodeEncodeError:
        raise AuthError("token signature mismatch") from None
    if not hmac.compare_digest(_mac(payload, key).encode("ascii"), presented):
        raise AuthError("token signature mismatch")
    try:
        claims = json.loads(payload)
    except json.JSONDecodeError:
        raise AuthError("malformed token") from None
    if (
        not isinstance(claims, dict)
        or "subject" not in claims
        or not isinstance(claims.get("expires_at"), _SECONDS)
    ):
        raise AuthError("malformed token")
    _check_unexpired(claims, now)
    return claims


def require_role(claims: Mapping, *allowed: str):
    if type(claims) is not dict and not isinstance(claims, Mapping):
        raise UsageError(f"claims must be a mapping, not {type(claims).__name__}")
    roles = claims.get("roles", [])
    # a text claim would grant "admin" to "administrator" by substring
    if not isinstance(roles, (list, tuple)) or not any(role in roles for role in allowed):
        raise AuthError(f"requires one of roles: {', '.join(allowed)}")
