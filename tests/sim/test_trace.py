"""Tracing: event recording, filtering, and lifecycle ordering."""

from __future__ import annotations

from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.obs.trace import TraceEvent, Tracer
from repro.testing import small_config
from repro.workloads import matmul


def traced_run(prefetch: bool, **tracer_kw):
    wl = matmul.build(n=4, threads=2)
    activity = prefetch_transform(wl.activity) if prefetch else wl.activity
    m = Machine(small_config(num_spes=2))
    tracer = Tracer(**tracer_kw)
    m.attach_tracer(tracer)
    m.load(activity)
    m.run()
    return tracer, m


class TestTracerBasics:
    def test_emit_and_query(self):
        t = Tracer()
        t.emit(5, "x", "boom", detail=1)
        assert len(t) == 1
        assert t.of_kind("boom")[0].fields["detail"] == 1

    def test_kind_filter(self):
        t = Tracer(kinds={"keep"})
        t.emit(1, "x", "keep")
        t.emit(2, "x", "drop")
        assert t.kinds_seen() == {"keep"}

    def test_limit_drops_and_counts(self):
        t = Tracer(limit=2)
        for i in range(5):
            t.emit(i, "x", "e")
        assert len(t) == 2 and t.dropped == 3

    def test_format(self):
        t = Tracer()
        t.emit(3, "spu0", "dispatch", tid=7)
        text = t.format()
        assert "spu0" in text and "dispatch" in text and "tid=7" in text

    def test_format_truncates(self):
        t = Tracer()
        for i in range(10):
            t.emit(i, "x", "e")
        text = t.format(max_lines=3)
        assert "7 more events" in text

    def test_event_str(self):
        e = TraceEvent(cycle=1, source="a", kind="k", fields={"x": 2})
        assert "x=2" in str(e)


class TestMachineTracing:
    def test_baseline_run_emits_lifecycle_events(self):
        tracer, m = traced_run(prefetch=False)
        assert {"thread-created", "thread-ready", "dispatch",
                "thread-stop", "thread-done"} <= tracer.kinds_seen()
        # No DMA in the baseline.
        assert "dma-command" not in tracer.kinds_seen()

    def test_prefetch_run_emits_dma_events(self):
        tracer, m = traced_run(prefetch=True)
        assert {"dma-command", "dma-tag-done", "yield-dma"} <= tracer.kinds_seen()

    def test_every_thread_follows_the_lifecycle_order(self):
        tracer, m = traced_run(prefetch=True)
        for tid in range(m.threads_created):
            events = tracer.of_thread(tid)
            kinds = [e.kind for e in events]
            assert kinds[0] == "thread-created"
            assert kinds[-1] == "thread-done"
            assert kinds.index("thread-ready") < kinds.index("dispatch")
            # Cycles are monotone.
            cycles = [e.cycle for e in events]
            assert cycles == sorted(cycles)

    def test_yield_resume_ordering(self):
        """A thread that yields at its PF boundary is re-readied only
        after its DMA tag group completes."""
        tracer, m = traced_run(prefetch=True)
        yielded = {e.fields["tid"] for e in tracer.of_kind("yield-dma")}
        assert yielded  # workers with PF blocks yielded
        for tid in yielded:
            events = tracer.of_thread(tid)
            kinds = [e.kind for e in events]
            y = kinds.index("yield-dma")
            tag_done = [i for i, k in enumerate(kinds) if k == "dma-tag-done"]
            resumed = [
                i for i, k in enumerate(kinds)
                if k == "thread-ready" and events[i].fields.get("resumed")
            ]
            assert resumed and tag_done
            assert max(tag_done) >= y
            assert resumed[0] > y

    def test_untraced_run_records_nothing(self):
        wl = matmul.build(n=4, threads=2)
        m = Machine(small_config(num_spes=1))
        m.load(wl.activity)
        m.run()  # no tracer attached; must simply not crash
