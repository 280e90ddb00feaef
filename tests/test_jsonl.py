"""The JSON-lines file of `FileLog`: what it writes and what it reads back.

Reopening is fed arbitrary text, arbitrary JSON values and arbitrary
bytes: whatever the input, the only exceptions that may escape are
`SensorStackError`s.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorstack.errors import IntegrityError, SensorStackError, UsageError
from sensorstack.services import FileLog


def reopened(data: bytes) -> tuple[dict, ...]:
    """The records of a `FileLog` opened over ``data`` on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "activity.ndjson"
        path.write_bytes(data)
        log = FileLog(path)
        log.close()
        return log.records()


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(("arrival", "dispatch", "end", "light", "medium")),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def objects(*fields):
    """Objects holding every named field, each with a value of any type."""
    return st.fixed_dictionaries({f: values for f in fields})


def documents(*fields):
    """Text that is arbitrary, any JSON value, or an object with the fields."""
    return st.one_of(st.text(max_size=40), values.map(json.dumps), objects(*fields).map(json.dumps))


# the fields each kind of log record carries
LINE_FIELDS = {
    "event_log": ("t_ns", "event", "task_id"),
    "file_log": ("timestamp", "activity_type", "details"),
}

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(LINE_FIELDS))
def test_line_readers_raise_only_package_errors(name):
    @FUZZ
    @given(st.lists(documents(*LINE_FIELDS[name]), max_size=3))
    def check(lines):
        try:
            reopened("".join(line + "\n" for line in lines).encode())
        except SensorStackError:
            pass

    check()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200))
def test_file_log_raises_only_package_errors_on_any_bytes(data):
    try:
        reopened(data)
    except SensorStackError:
        pass


@pytest.mark.parametrize("probe", ["{not json", "[1, 2]", '"text"'])
def test_malformed_event_log_line_names_it(probe):
    with pytest.raises(IntegrityError, match="line 3"):
        reopened(('{"event": "end"}\n\n' + probe + "\n").encode())


def test_deeply_nested_line_names_it():
    with pytest.raises(IntegrityError, match="line 2"):
        reopened(('{"a": 1}\n' + "[" * 100_000 + "\n").encode())


def test_writer_layout_is_compact_in_record_order(tmp_path):
    path = tmp_path / "activity.ndjson"
    log = FileLog(path)
    log.append({"b": 1, "a": [1.5, None]})
    log.append({})
    log.close()
    assert path.read_bytes() == b'{"b":1,"a":[1.5,null]}\n{}\n'


@pytest.mark.parametrize("path", [None, 3, b"activity.ndjson", ["activity.ndjson"]], ids=repr)
def test_path_that_is_not_text_or_a_path_rejected(path):
    with pytest.raises(UsageError, match="log path"):
        FileLog(path)


def test_reader_skips_blank_lines_and_keeps_order():
    assert reopened(b'\n{"a": 1}\n   \n{"a": 2}\n\n') == ({"a": 1}, {"a": 2})
