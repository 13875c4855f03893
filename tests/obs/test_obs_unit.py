"""Unit tests for the observability primitives themselves."""

import json

import pytest

from repro.obs.events import EventKind, TraceEvent
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TraceBuffer, TraceSession


# ---------------------------------------------------------------------
# TraceEvent serialization
# ---------------------------------------------------------------------
def test_event_json_is_canonical():
    e = TraceEvent(seq=3, kind=EventKind.WRITE, fields={"b": 2, "a": 1})
    line = e.to_json()
    assert line == '{"a":1,"b":2,"kind":"write","seq":3}'
    assert TraceEvent.from_json(line) == e


def test_event_json_has_no_whitespace_or_unsorted_keys():
    e = TraceEvent(
        seq=0, kind=EventKind.COLLECT, fields={"vpns": [3, 1], "n_vpns": 2}
    )
    line = e.to_json()
    assert " " not in line
    keys = list(json.loads(line))
    assert keys == sorted(keys)


# ---------------------------------------------------------------------
# TraceBuffer
# ---------------------------------------------------------------------
def _ev(seq):
    return TraceEvent(seq=seq, kind=EventKind.RETRY, fields={"attempt": seq})


def test_buffer_keeps_prefix_and_counts_drops():
    buf = TraceBuffer(capacity=2)
    for seq in range(5):
        buf.append(_ev(seq))
    assert len(buf) == 2
    assert [e.seq for e in buf.events] == [0, 1]
    assert buf.n_dropped == 3


def test_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TraceBuffer(capacity=0)


def test_buffer_jsonl_roundtrip(tmp_path):
    buf = TraceBuffer()
    buf.append(_ev(0))
    buf.append(_ev(1))
    path = buf.write_jsonl(tmp_path / "sub" / "trace.jsonl")
    again = TraceBuffer.read_jsonl(path)
    assert again.to_jsonl() == buf.to_jsonl()
    assert [e.seq for e in again.events] == [0, 1]


def test_buffer_kind_helpers():
    buf = TraceBuffer()
    buf.append(_ev(0))
    buf.append(TraceEvent(seq=1, kind=EventKind.VMEXIT, fields={"reason": "x"}))
    assert len(buf.by_kind(EventKind.RETRY)) == 1
    assert buf.kind_counts() == {"retry": 1, "vmexit": 1}


# ---------------------------------------------------------------------
# TraceSession
# ---------------------------------------------------------------------
def test_session_seq_is_monotonic_and_dense():
    s = TraceSession()
    for _ in range(4):
        s.emit(EventKind.TLB_FLUSH, n_cached=0)
    assert [e.seq for e in s.trace.events] == [0, 1, 2, 3]
    assert s.n_emitted == 4


def test_session_counts_emissions_past_capacity():
    s = TraceSession(capacity=2)
    for _ in range(5):
        s.emit(EventKind.TLB_FLUSH, n_cached=0)
    assert s.n_emitted == 5
    assert len(s.trace) == 2
    assert s.trace.n_dropped == 3


# ---------------------------------------------------------------------
# Histogram / MetricsRegistry
# ---------------------------------------------------------------------
def test_histogram_bucketing_and_overflow():
    h = Histogram(bounds=(1, 4, 16))
    for v in (0, 1, 2, 4, 100):
        h.observe(v)
    assert h.count == 5
    assert h.total == 107
    snap = h.snapshot()
    # bisect_left: value == bound lands in that bound's bucket.
    assert snap["buckets"] == {"1": 2, "4": 2, "+inf": 1}


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(4, 1))


def test_registry_counters_and_snapshot_are_sorted():
    m = MetricsRegistry()
    m.inc("z.late")
    m.inc("a.early", 3)
    m.observe("occupancy", 7)
    snap = m.snapshot()
    assert list(snap["counters"]) == ["a.early", "z.late"]
    assert m.counter("a.early") == 3
    assert m.counter("missing") == 0
    assert m.counters_with_prefix("a.") == {"a.early": 3}
    assert snap["histograms"]["occupancy"]["count"] == 1


def test_registry_render_mentions_everything():
    m = MetricsRegistry()
    m.inc("vmexit.pml_full", 2)
    m.observe("pml.occupancy_at_flush", 512)
    text = m.render("T")
    assert "vmexit.pml_full" in text
    assert "pml.occupancy_at_flush" in text
    assert MetricsRegistry().render("T").endswith("(empty)")
