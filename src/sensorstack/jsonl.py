"""The package's one JSON-lines codec and its one decode-error mapping.

A writer puts one compact JSON object per line, keys in record order,
so identical records give identical bytes. The reader skips blank
lines, accepts only JSON objects, and reports a malformed line as an
`IntegrityError` naming it. `services.store.FileLog` and the fusion
NDJSON formats use it; the transform document reader shares
`decoding`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import IO, Any, Callable, Iterable, Iterator, Mapping

from .errors import IntegrityError

# what malformed input provokes while it is decoded: a list where an
# object's ``.get`` is called raises AttributeError, ``int(1e400)``
# OverflowError, a line of deeply nested brackets RecursionError
_MALFORMED = (ValueError, LookupError, TypeError, AttributeError, ArithmeticError, RecursionError)


@contextmanager
def decoding(what: str) -> Iterator[None]:
    """Raise an `IntegrityError` naming ``what`` for any failure of malformed input."""
    try:
        yield
    except _MALFORMED as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise IntegrityError(f"malformed {what}: {detail}") from exc


def loads_object(text: str | bytes) -> dict[str, Any]:
    """Parse one JSON document that must be an object."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def write_records(records: Iterable[Mapping], fp: IO[str]) -> None:
    """One compact JSON object per line, keys in record order."""
    for record in records:
        fp.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_records(fp: Iterable[str | bytes], parse: Callable[[dict], Any]) -> tuple:
    """``parse`` of every non-blank line's object, in file order; a line
    ``parse`` cannot use raises an `IntegrityError` naming its number."""
    out = []
    for line_no, line in enumerate(fp, start=1):
        if line.strip():
            with decoding(f"line {line_no}"):
                out.append(parse(loads_object(line)))
    return tuple(out)
