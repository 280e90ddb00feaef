"""Append-only activity log stores."""

from __future__ import annotations

from pathlib import Path

from .. import jsonl


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
    path resumes the log. Appends flush immediately. A final line
    without its newline is an append that never returned; reopening
    cuts it off so the next append starts on a clean line. A corrupt
    complete line raises an `IntegrityError` naming it.
    """

    def __init__(self, path):
        self._path = Path(path)
        data = self._path.read_bytes() if self._path.exists() else b""
        complete = data[: data.rfind(b"\n") + 1]
        self._records = list(jsonl.read_records(complete.split(b"\n"), dict))
        if len(complete) < len(data):
            with open(self._path, "r+b") as fp:
                fp.truncate(len(complete))
        self._fp = open(self._path, "a", encoding="utf-8")

    def append(self, record: dict):
        jsonl.write_records((record,), self._fp)
        self._fp.flush()
        self._records.append(record)

    def records(self) -> tuple[dict, ...]:
        return tuple(self._records)

    def close(self):
        self._fp.close()
