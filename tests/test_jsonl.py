"""The JSON-lines codec and every reader built on it.

Readers are fed arbitrary text, arbitrary JSON values and arbitrary
bytes: whatever the input, the only exceptions that may escape are
`SensorStackError`s. Fusion lines in the older writer layout (spaced
separators) must still read back to the same values, because
only whitespace and key order changed.
"""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorstack import jsonl
from sensorstack.errors import IntegrityError, SensorStackError
from sensorstack.fusion import (
    Detection,
    FusedDetection,
    PointPair,
    read_detections_ndjson,
    read_fused_ndjson,
    read_pairs_ndjson,
    read_transform_json,
    write_detections_ndjson,
    write_fused_ndjson,
    write_pairs_ndjson,
)
from sensorstack.services import FileLog


def read_file_log(fp):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "activity.ndjson"
        path.write_text(fp.read(), encoding="utf-8")
        FileLog(path).close()


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(("pedestrian", "vehicle", "coarse", "homography", "arrival", "dispatch", "end", "light", "medium")),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def objects(*fields, **fixed):
    """Objects holding every named field, each with a value of any type."""
    return st.fixed_dictionaries({**{f: values for f in fields}, **{k: st.just(v) for k, v in fixed.items()}})


def documents(*fields, **fixed):
    """Text that is arbitrary, any JSON value, or an object with the fields."""
    return st.one_of(st.text(max_size=40), values.map(json.dumps), objects(*fields, **fixed).map(json.dumps))


# reader, and the fields its records carry
LINE_READERS = {
    "pairs": (read_pairs_ndjson, ("source", "target")),
    "detections": (read_detections_ndjson, ("camera_id", "class", "center", "confidence", "frame_ts_ns")),
    "fused": (read_fused_ndjson, ("class", "center", "confidence", "cameras", "threshold", "merged_count")),
    "event_log": (lambda fp: jsonl.read_records(fp, dict), ("t_ns", "event", "task_id")),
    "file_log": (read_file_log, ("timestamp", "activity_type", "details")),
}

DOCUMENT_READERS = {
    "transform": (lambda text: read_transform_json(io.StringIO(text)), documents("matrix", kind="homography")),
}

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(LINE_READERS))
def test_line_readers_raise_only_package_errors(name):
    reader, fields = LINE_READERS[name]

    @FUZZ
    @given(st.lists(documents(*fields), max_size=3).map("\n".join))
    def check(text):
        try:
            reader(io.StringIO(text))
        except SensorStackError:
            pass

    check()


@pytest.mark.parametrize("name", sorted(DOCUMENT_READERS))
def test_document_readers_raise_only_package_errors(name):
    reader, texts = DOCUMENT_READERS[name]

    @FUZZ
    @given(texts)
    def check(text):
        try:
            reader(text)
        except SensorStackError:
            pass

    check()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200))
def test_file_log_raises_only_package_errors_on_any_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "activity.ndjson"
        path.write_bytes(data)
        try:
            FileLog(path).close()
        except SensorStackError:
            pass


GOOD_LINES = {
    "pairs": '{"source": [0, 1], "target": [2, 3]}',
    "detections": '{"camera_id": "a", "class": "vehicle", "center": [1, 2], "confidence": 0.5, "frame_ts_ns": 7}',
    "fused": '{"class": "vehicle", "center": [1, 2], "confidence": 0.5, "cameras": ["a"], "threshold": 1.0, "merged_count": 1}',
}
# per reader: a required field to drop, and a field with a value of the wrong type
BREAKS = {
    "pairs": ("target", ("source", 3)),
    "detections": ("class", ("frame_ts_ns", [1])),
    "fused": ("cameras", ("center", "xy")),
}


def probe_lines(name):
    good = GOOD_LINES[name]
    missing, (field, bad) = BREAKS[name]
    dropped = {k: v for k, v in json.loads(good).items() if k != missing}
    wrong = {**json.loads(good), field: bad}
    return {
        "bad_json": "{not json",
        "non_object": "[1, 2]",
        "missing_field": json.dumps(dropped),
        "wrong_type": json.dumps(wrong),
    }


@pytest.mark.parametrize("name", sorted(GOOD_LINES))
@pytest.mark.parametrize("probe", ["bad_json", "non_object", "missing_field", "wrong_type"])
def test_malformed_line_is_reported_as_package_error(name, probe):
    text = GOOD_LINES[name] + "\n" + probe_lines(name)[probe] + "\n"
    with pytest.raises(IntegrityError, match="line 2"):
        LINE_READERS[name][0](io.StringIO(text))


@pytest.mark.parametrize("probe", ["{not json", "[1, 2]", '"text"'])
def test_malformed_event_log_line_names_it(probe):
    with pytest.raises(IntegrityError, match="line 3"):
        jsonl.read_records(io.StringIO('{"event": "end"}\n\n' + probe + "\n"), dict)


def test_deeply_nested_line_names_it():
    # the JSON scanner gives up on deep nesting with a RecursionError
    with pytest.raises(IntegrityError, match="line 2"):
        jsonl.read_records(io.StringIO('{"a": 1}\n' + "[" * 100_000 + "\n"), dict)


def test_writer_layout_is_compact_in_record_order():
    buf = io.StringIO()
    jsonl.write_records([{"b": 1, "a": [1.5, None]}, {}], buf)
    assert buf.getvalue() == '{"b":1,"a":[1.5,null]}\n{}\n'


def test_reader_skips_blank_lines_and_keeps_order():
    text = '\n{"a": 1}\n   \n{"a": 2}\n\n'
    assert jsonl.read_records(io.StringIO(text), dict) == ({"a": 1}, {"a": 2})


class TestOlderWriterLayouts:
    """Lines as the writers laid them out before the shared codec."""

    @pytest.mark.parametrize(
        "reader, writer, text, expected",
        [
            (
                read_pairs_ndjson,
                write_pairs_ndjson,
                '{"source": [0.5, 1.5], "target": [2.5, -3.5]}\n',
                (PointPair((0.5, 1.5), (2.5, -3.5)),),
            ),
            (
                read_detections_ndjson,
                write_detections_ndjson,
                '{"camera_id": "a", "class": "pedestrian", "center": [1.25, -2.5], '
                '"confidence": 0.75, "frame_ts_ns": 123}\n',
                (Detection("a", "pedestrian", (1.25, -2.5), 0.75, 123),),
            ),
            (
                read_fused_ndjson,
                write_fused_ndjson,
                '{"class": "vehicle", "center": [0.1, 0.2], "confidence": 0.9, '
                '"cameras": ["a", "b"], "threshold": 2.0, "merged_count": 2}\n',
                (FusedDetection("vehicle", (0.1, 0.2), 0.9, ("a", "b"), 2.0, 2),),
            ),
        ],
    )
    def test_fusion_lines_with_spaced_separators(self, reader, writer, text, expected):
        assert reader(io.StringIO(text)) == expected
        buf = io.StringIO()
        writer(expected, buf)
        assert buf.getvalue() == text.replace(", ", ",").replace(": ", ":")
        buf.seek(0)
        assert reader(buf) == expected


class TestSingleDocumentReaders:
    """A single-document reader turns malformed input into a package error."""

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '[{"kind": "homography"}]',
            '{"kind": "homography"}',
            '{"kind": "homography", "matrix": [[1, 0], [0, "a"]]}',
        ],
    )
    def test_transform(self, text):
        with pytest.raises(IntegrityError):
            read_transform_json(io.StringIO(text))
