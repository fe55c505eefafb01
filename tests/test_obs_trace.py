"""The tracer and its sinks: schema-versioned JSONL records."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analyze import iter_records, load_records
from repro.obs.trace import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    TraceError,
    Tracer,
    short_hash,
)


def test_emit_stamps_version_event_and_time():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.emit("block_gen", 12.5, miner=3, size=1000)
    assert sink.records == [
        {"v": SCHEMA_VERSION, "ev": "block_gen", "t": 12.5,
         "miner": 3, "size": 1000}
    ]
    assert tracer.records_written == 1


def test_short_hash_is_twelve_hex_chars():
    digest = bytes(range(32))
    assert short_hash(digest) == digest.hex()[:12]
    assert len(short_hash(digest)) == 12


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "nested" / "run.trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    tracer.emit("trace_start", 0.0, seed=7)
    tracer.emit("send", 1.0, src=0, dst=1, kind="inv", size=61)
    tracer.close()
    assert path.exists()  # parent dir created lazily
    records = load_records(path)
    assert [r["ev"] for r in records] == ["trace_start", "send"]
    assert records[1]["size"] == 61


def test_jsonl_sink_writes_compact_lines(tmp_path):
    path = tmp_path / "t.trace.jsonl"
    sink = JsonlSink(path)
    Tracer(sink).emit("x", 0.0)
    sink.close()
    line = path.read_text().strip()
    assert " " not in line  # compact separators, one object per line
    assert sink.records_written == 1


def test_iter_records_rejects_unknown_schema_version(tmp_path):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text(json.dumps({"v": 999, "ev": "x", "t": 0.0}) + "\n")
    with pytest.raises(TraceError, match="schema version"):
        list(iter_records(path))


def test_iter_records_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text('{"v": 1, "ev": "ok", "t": 0.0}\nnot json\n')
    with pytest.raises(TraceError, match="not valid JSON"):
        list(iter_records(path))


def test_iter_records_skips_blank_lines(tmp_path):
    path = tmp_path / "t.trace.jsonl"
    path.write_text('{"v": 1, "ev": "a", "t": 0.0}\n\n{"v": 1, "ev": "b", "t": 1.0}\n')
    assert [r["ev"] for r in iter_records(path)] == ["a", "b"]


def test_memory_sink_rejects_lines_that_are_not_json():
    sink = MemorySink()
    with pytest.raises(TraceError, match="newline"):
        sink.write('{"v":1,"ev":"x","t":0.0}')
    with pytest.raises(ValueError):
        sink.write("not json\n")
    assert sink.records == []


class _LineSink:
    """Keeps the raw lines a tracer writes."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def write(self, line: str) -> None:
        self.lines.append(line)


def _generic_line(ev, t, **fields):
    record = {"v": SCHEMA_VERSION, "ev": ev, "t": t, **fields}
    return json.dumps(record, separators=(",", ":")) + "\n"


# Times and delays: -0.0, subnormals, 1e16 and up, 1e-7, NaN and ±inf
# all come up, plus plain ints (the clock starts at 0).
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e-7, 1e16, 1.5e16, 1e300, float("nan"),
         float("inf"), float("-inf")]
    ),
    st.integers(min_value=-(2**70), max_value=2**70),
)
ints = st.integers(min_value=-(2**80), max_value=2**80)
# Kinds with quotes, backslashes, control and non-ASCII characters.
kinds = st.one_of(
    st.text(),
    st.sampled_from(
        ["inv", 'a"b', "a\\b", "\x00\n\t\x1f", "é√😀", "\u2028"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(t=numbers, src=ints, dst=ints, kind=kinds, size=ints, qd=numbers,
       arr=numbers)
def test_send_line_equals_the_generic_encoding(t, src, dst, kind, size, qd, arr):
    sink = _LineSink()
    tracer = Tracer(sink)
    tracer.send(t, src, dst, kind, size, qd, arr)
    tracer.send(t, src, dst, kind, size, qd, arr)  # memoised kind
    expected = _generic_line(
        "send", t, src=src, dst=dst, kind=kind, size=size, qd=qd, arr=arr
    )
    assert sink.lines == [expected, expected]


@settings(max_examples=300, deadline=None)
@given(ev=st.sampled_from(["deliver", "drop"]), t=numbers, src=ints,
       dst=ints, kind=kinds, size=ints)
def test_message_line_equals_the_generic_encoding(ev, t, src, dst, kind, size):
    sink = _LineSink()
    tracer = Tracer(sink)
    tracer.message(ev, t, src, dst, kind, size)
    tracer.message(ev, t, src, dst, kind, size)
    expected = _generic_line(ev, t, src=src, dst=dst, kind=kind, size=size)
    assert sink.lines == [expected, expected]
