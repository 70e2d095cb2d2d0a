"""Scheduler snapshots: capture, aggregates, invariants."""

from __future__ import annotations

from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.core.scheduler import SchedulerSnapshot
from repro.testing import small_config
from repro.workloads import bitcount, matmul


class TestCapture:
    def test_snapshot_before_run_is_empty(self):
        m = Machine(small_config(num_spes=2))
        snap = SchedulerSnapshot.capture(m)
        assert snap.live_threads == 0
        assert snap.frames_used == 0
        assert snap.check_invariants() == []

    def test_snapshot_after_run_is_drained(self):
        m = Machine(small_config(num_spes=2))
        m.load(matmul.build(n=4, threads=2).activity)
        m.run()
        snap = SchedulerSnapshot.capture(m)
        assert snap.live_threads == 0
        assert snap.threads_created == snap.threads_completed == 3
        assert snap.frames_used == 0
        assert snap.check_invariants() == []

    def test_mid_run_snapshots_satisfy_invariants(self):
        """Capture at several points during a fork-heavy run."""
        m = Machine(small_config(num_spes=2))
        m.load(bitcount.build(iterations=8, unroll=4).activity)
        checkpoints = []

        # Run in slices by bounding cycles and resuming.
        target = [2000]

        def until():
            if m.engine.now >= target[0]:
                snap = SchedulerSnapshot.capture(m)
                checkpoints.append(snap)
                target[0] += 2000
            return (
                m.ppe.done
                and m.threads_created > 0
                and m.threads_completed == m.threads_created
            )

        m.engine.run(until=until)
        assert checkpoints, "expected at least one mid-run snapshot"
        for snap in checkpoints:
            assert snap.check_invariants() == [], snap.format()

    def test_waiting_dma_visible_mid_run(self):
        activity = prefetch_transform(matmul.build(n=8, threads=8).activity)
        m = Machine(small_config(num_spes=1))
        m.load(activity)
        seen_waiting = []

        def until():
            snap = SchedulerSnapshot.capture(m)
            if snap.waiting_dma:
                seen_waiting.append(snap.waiting_dma)
            return (
                m.ppe.done
                and m.threads_created > 0
                and m.threads_completed == m.threads_created
            )

        m.engine.run(until=until)
        assert seen_waiting, "threads should be observed in WAIT_DMA"

    def test_format_is_compact_and_informative(self):
        m = Machine(small_config(num_spes=2))
        m.load(matmul.build(n=4, threads=2).activity)
        m.run()
        text = SchedulerSnapshot.capture(m).format()
        assert "lse0" in text and "dse: load" in text and "done" in text
