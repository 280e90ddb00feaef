"""Append-only activity log stores.

`FileLog` is the package's one JSON-lines file: one compact JSON
object per line, keys in record order, so identical records give
identical bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import IntegrityError, UsageError


class MemoryLog:
    """In-process append-only log, the default store."""

    def __init__(self):
        self._records: list[dict] = []

    def append(self, record: dict):
        self._records.append(record)

    def records(self) -> tuple[dict, ...]:
        return tuple(self._records)


class FileLog:
    """One JSON object per line in a single file.

    Existing content is loaded at construction, so reopening the same
    path resumes the log. Blank lines are skipped. Appends flush
    immediately. A final line without its newline is an append that
    never returned; reopening cuts it off so the next append starts on
    a clean line. A complete line that is not a JSON object raises an
    `IntegrityError` naming it.
    """

    def __init__(self, path):
        if not isinstance(path, (str, os.PathLike)):
            raise UsageError(f"log path must be text or a path, not {type(path).__name__}")
        self._path = Path(path)
        data = self._path.read_bytes() if self._path.exists() else b""
        complete = data[: data.rfind(b"\n") + 1]
        self._records = _read_lines(complete)
        if len(complete) < len(data):
            with open(self._path, "r+b") as fp:
                fp.truncate(len(complete))
        self._fp = open(self._path, "a", encoding="utf-8")

    def append(self, record: dict):
        self._fp.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fp.flush()
        self._records.append(record)

    def records(self) -> tuple[dict, ...]:
        return tuple(self._records)

    def close(self):
        self._fp.close()


def _read_lines(data: bytes) -> list[dict]:
    """The object on every non-blank line, in file order."""
    records = []
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            # a line of deeply nested brackets makes the scanner give up
            # with a RecursionError
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise IntegrityError(f"malformed line {line_no}: {exc}") from exc
        if not isinstance(record, dict):
            raise IntegrityError(f"malformed line {line_no}: expected a JSON object, got {type(record).__name__}")
        records.append(record)
    return records
