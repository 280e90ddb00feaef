"""Request routing over the control plane.

The router speaks (method, path, body, headers) tuples so callers can
use it in process; ``serve`` wraps the same router in a real HTTP
server for external clients. Bodies are JSON and errors map onto the
usual status codes. Capture samples and rows pass through unchanged;
the control plane checks them.
"""

from __future__ import annotations

import json
import re
import threading
from collections.abc import Callable, Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..errors import (
    AuthError,
    ConfigError,
    ConflictError,
    NotFoundError,
    SensorStackError,
    UsageError,
    ValidationError,
)
from .registry import CoreServices
from .tokens import require_role

_STATUS_PATH = re.compile(r"^/devices/([^/]+)/status$")
_CONFIG_PATH = re.compile(r"^/devices/([^/]+)/config$")
_ROLLBACK_PATH = re.compile(r"^/devices/([^/]+)/rollback$")


def _field(value, name: str, convert: Callable, kind: str):
    """A body or query field converted; a malformed value is a UsageError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"field {name!r} must be {kind}") from exc


def _error_status(error: Exception) -> int:
    if isinstance(error, AuthError):
        return 401
    if isinstance(error, NotFoundError):
        return 404
    if isinstance(error, ConflictError):
        return 409
    if isinstance(error, (ValidationError, UsageError, ConfigError)):
        return 400
    return 500


class ServiceRouter:
    """Maps paths onto CoreServices operations."""

    def __init__(self, services: CoreServices, executor: Callable | None = None):
        self._services = services
        self._executor = executor

    def handle(
        self,
        method: str,
        path: str,
        body: Mapping | None = None,
        headers: Mapping | None = None,
        query: Mapping | None = None,
    ) -> tuple[int, dict]:
        if not isinstance(path, str):
            return 400, {"error": "request path must be text"}
        body = body or {}
        if not isinstance(body, Mapping):
            return 400, {"error": "request body must be a JSON object"}
        headers = headers or {}
        query = query or {}
        if not (isinstance(headers, Mapping) and isinstance(query, Mapping)):
            return 400, {"error": "request headers and query must map names to values"}
        auth = ""
        for name, value in headers.items():
            if not isinstance(name, str):
                return 400, {"error": "request header names must be text"}
            if name.lower() == "authorization":
                auth = value
        if not isinstance(auth, str):
            return 401, {"error": "authorization header must be text"}
        token = ""
        if auth.startswith("Bearer "):
            token = auth[len("Bearer "):]
        try:
            return self._dispatch(method, path, body, token, query)
        except ValidationError as error:
            return _error_status(error), {"error": str(error), "fields": list(error.fields)}
        except SensorStackError as error:
            return _error_status(error), {"error": str(error)}
        except KeyError as error:
            return 400, {"error": f"missing field {error.args[0]!r}"}

    def _dispatch(self, method, path, body, token, query) -> tuple[int, dict]:
        services = self._services

        if path == "/tokens" and method == "POST":
            claims = services.validate(token)
            require_role(claims, "admin")
            roles = body.get("roles", [])
            if not isinstance(roles, list):
                raise UsageError("field 'roles' must be a list")
            issued = services.issue_token(
                body["subject"],
                tuple(roles),
                _field(body.get("ttl_s", 3600), "ttl_s", float, "a number"),
            )
            return 201, {
                "token": issued.token,
                "subject": issued.subject,
                "expires_at": issued.expires_at,
            }

        if path == "/devices" and method == "POST":
            device_token = services.register_device(body, token)
            record = services.device_record(body["device_id"])
            return 201, {"device_token": device_token.token, "record": record.to_payload()}

        if path == "/devices" and method == "GET":
            services.validate(token)
            return 200, {"devices": [r.to_payload() for r in services.list_devices()]}

        match = _STATUS_PATH.match(path)
        if match and method == "POST":
            claims = services.validate(token)
            if claims["subject"] != match.group(1):
                raise AuthError("token subject does not match the device")
            entry = services.update_status(
                token, body["status"], body.get("last_sync_timestamp", services.now_s())
            )
            return 200, entry.to_record()

        match = _CONFIG_PATH.match(path)
        if match and method == "POST":
            claims = services.validate(token)
            require_role(claims, "admin")
            snapshot = services.snapshot_config(match.group(1), body["config"])
            return 201, {
                "version_id": snapshot.version_id,
                "device_id": snapshot.device_id,
                "created_at": snapshot.created_at,
            }

        match = _ROLLBACK_PATH.match(path)
        if match and method == "POST":
            entry = services.rollback(match.group(1), body["target_version_id"], token)
            return 200, entry.to_record()

        if path == "/actions" and method == "POST":
            action_id = services.enqueue_action(body, token)
            services.process_actions(self._executor)
            return 202, {"action_id": action_id, "state": services.action(action_id).state}

        if path == "/capture" and method == "POST":
            capture_ids = services.capture_ingest(token, body.get("samples", []))
            return 201, {"stored": len(capture_ids), "capture_ids": list(capture_ids)}

        if path == "/capture" and method == "GET":
            # rows carry the store's immutable payload and location
            # tuples, which json writes as arrays, so nothing is copied
            rows = services.query_captures(
                query["device_id"],
                _field(query["start_ns"], "start_ns", int, "an integer"),
                _field(query["end_ns"], "end_ns", int, "an integer"),
                token,
            )
            return 200, {"samples": rows}

        return 404, {"error": f"no route for {method} {path}"}


def serve(router: ServiceRouter, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Expose the router over HTTP; caller drives serve_forever/shutdown.

    Requests arrive on threads of their own, but the control plane
    behind the router is not thread-safe (registration checks, then
    inserts), so one lock per server runs one request at a time.
    """
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def _run(self, method: str):
            parsed = urlparse(self.path)
            query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
            try:
                length = int(self.headers.get("Content-Length", 0) or 0)
                body = json.loads(self.rfile.read(length)) if length else {}
            except ValueError:
                status, payload = 400, {"error": "request body is not valid JSON"}
            else:
                with lock:
                    status, payload = router.handle(
                        method, parsed.path, body, dict(self.headers), query
                    )
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._run("GET")

        def do_POST(self):
            self._run("POST")

        def log_message(self, fmt, *args):
            pass

    return ThreadingHTTPServer((host, port), Handler)
