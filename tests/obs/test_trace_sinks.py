"""Tracer: kind validation and sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TeeSink,
    TraceEvent,
    Tracer,
)


class TestKindValidation:
    def test_bare_string_rejected(self):
        # A bare string used to iterate into single characters and
        # silently filter out every real event kind.
        with pytest.raises(TypeError, match="bare"):
            Tracer(kinds="dispatch")

    def test_bytes_rejected(self):
        with pytest.raises(TypeError):
            Tracer(kinds=b"dispatch")

    def test_error_suggests_the_fix(self):
        with pytest.raises(TypeError, match=r"kinds=\{'dispatch'\}"):
            Tracer(kinds="dispatch")

    def test_non_string_member_rejected(self):
        with pytest.raises(TypeError, match="strings"):
            Tracer(kinds={"dispatch", 7})

    def test_iterables_accepted(self):
        for kinds in ({"a"}, ["a", "b"], ("a",), frozenset({"a"})):
            assert "a" in Tracer(kinds=kinds).kinds


class TestTracerFiltering:
    def test_kinds_filter(self):
        t = Tracer(kinds={"keep"})
        t.emit(1, "c", "keep", x=1)
        t.emit(2, "c", "drop")
        assert [e.kind for e in t.events] == ["keep"]

    def test_limit_counts_dropped(self):
        t = Tracer(limit=2)
        for i in range(5):
            t.emit(i, "c", "k")
        assert len(t) == 2
        assert t.dropped == 3
        assert "dropped" in t.format()

    def test_queries(self):
        t = Tracer()
        t.emit(1, "c", "a", tid=7)
        t.emit(2, "c", "b", tid=8)
        assert [e.cycle for e in t.of_kind("a")] == [1]
        assert [e.cycle for e in t.of_thread(8)] == [2]
        assert t.kinds_seen() == {"a", "b"}


class TestMemorySink:
    def test_unlimited(self):
        sink = MemorySink(limit=None)
        for i in range(10):
            sink.emit(TraceEvent(i, "c", "k"))
        assert len(sink.events) == 10
        assert sink.dropped == 0


class TestJsonlSink:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        t = Tracer(sink=JsonlSink(path))
        t.emit(3, "spu0", "dispatch", tid=1, pf=True)
        t.emit(9, "mfc0", "dma-command", tag=2, bytes=64)
        t.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "cycle": 3,
            "source": "spu0",
            "kind": "dispatch",
            "fields": {"tid": 1, "pf": True},
        }

    def test_file_object_left_open(self, tmp_path):
        with open(tmp_path / "e.jsonl", "w") as fh:
            sink = JsonlSink(fh)
            sink.emit(TraceEvent(1, "c", "k"))
            sink.close()
            assert not fh.closed
        assert sink.emitted == 1

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "e.jsonl")
        sink.close()
        sink.close()


class TestTeeSink:
    def test_fans_out_and_serves_queries(self, tmp_path):
        memory = MemorySink()
        jsonl = JsonlSink(tmp_path / "e.jsonl")
        t = Tracer(sink=TeeSink([memory, jsonl]))
        t.emit(1, "c", "k")
        t.close()
        # Queries find the in-memory member behind the tee.
        assert len(t.events) == 1
        assert jsonl.emitted == 1

    def test_no_memory_member_yields_empty_queries(self, tmp_path):
        t = Tracer(sink=JsonlSink(tmp_path / "e.jsonl"))
        t.emit(1, "c", "k")
        t.close()
        assert t.events == []
        assert len(t) == 0

