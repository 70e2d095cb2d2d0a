"""Event-skipping engine: scheduling, ordering, deadlock detection."""

from __future__ import annotations

import pytest

from repro.sim.component import Component
from repro.sim.engine import Engine, SimulationDeadlock, SimulationLimitExceeded


class Ticker(Component):
    """Ticks every ``period`` cycles, ``count`` times, recording cycles."""

    def __init__(self, name: str, period: int = 1, count: int = 5) -> None:
        super().__init__(name)
        self.period = period
        self.remaining = count
        self.ticks: list[int] = []

    def tick(self, now: int) -> int | None:
        self.ticks.append(now)
        self.remaining -= 1
        return now + self.period if self.remaining > 0 else None


class TestBasicScheduling:
    def test_single_component_ticks_at_requested_cycles(self):
        eng = Engine()
        t = eng.register(Ticker("t", period=3, count=4))
        eng.schedule(t, 1)
        eng.drain()
        assert t.ticks == [1, 4, 7, 10]

    def test_engine_skips_dead_cycles(self):
        eng = Engine()
        t = eng.register(Ticker("t", period=1000, count=3))
        eng.schedule(t, 1)
        eng.drain()
        assert eng.now == 2001
        assert eng.ticks_dispatched == 3

    def test_schedule_clamps_past_cycles_to_next(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 0)  # now is 0; clamped to 1
        eng.drain()
        assert t.ticks == [1]

    def test_duplicate_schedule_is_idempotent(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 5)
        eng.schedule(t, 5)
        eng.schedule(t, 9)  # later than existing -> ignored
        eng.drain()
        assert t.ticks == [5]

    def test_earlier_schedule_wins(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 9)
        eng.schedule(t, 3)
        eng.drain()
        assert t.ticks == [3]

    def test_earlier_wake_supersedes_pending_tick(self):
        # A later-scheduled tick is superseded by an earlier wake; the
        # stale heap entry is lazily discarded, not dispatched twice.
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 40)
        eng.schedule(t, 12)
        eng.drain()
        assert t.ticks == [12]
        assert eng.ticks_dispatched == 1

    def test_callback_wake_supersedes_pending_tick(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 50)
        eng.call_at(10, lambda: eng.schedule(t, 11))
        eng.drain()
        assert t.ticks == [11]
        assert eng.ticks_dispatched == 1

    def test_unregistered_component_rejected(self):
        eng = Engine()
        t = Ticker("t")
        with pytest.raises(RuntimeError):
            eng.schedule(t)

    def test_component_cannot_join_two_engines(self):
        e1, e2 = Engine(), Engine()
        t = e1.register(Ticker("t"))
        with pytest.raises(RuntimeError):
            e2.register(t)


class TestCounters:
    def test_callbacks_counted_separately_from_ticks(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=2))
        eng.schedule(t, 1)
        eng.call_at(3, lambda: None)
        eng.call_at(4, lambda: None)
        eng.drain()
        assert eng.ticks_dispatched == 2
        assert eng.callbacks_dispatched == 2

    def test_stale_skipped_counts_superseded_pops(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 40)
        eng.schedule(t, 12)  # cycle-40 entry goes stale
        eng.drain()
        assert t.ticks == [12]
        assert eng.stale_skipped == 1
        assert eng.ticks_dispatched == 1

    def test_pending_count_reports_live_entries_only(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 40)
        eng.schedule(t, 12)
        eng.call_at(5, lambda: None)
        # Heap holds 3 entries, but only the tick at 12 and the callback
        # are live: the gauge must not count the stale cycle-40 entry.
        assert len(eng._heap) == 3
        assert eng.pending_count == 2
        assert eng.stale_count == 1
        eng.drain()
        assert eng.pending_count == 0
        assert eng.stale_count == 0


class TestCompaction:
    def test_supersede_heavy_scheduling_keeps_heap_bounded(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        # Each schedule is earlier than the last: every call supersedes,
        # leaving one more stale entry behind.
        for cycle in range(100_000, 100_000 - 5_000, -1):
            eng.schedule(t, cycle)
        assert eng.compactions > 0
        # One live entry; stale garbage stays below the compaction
        # threshold plus the entries added since the last pass.
        assert eng.pending_count == 1
        assert len(eng._heap) < 200
        eng.drain()
        assert t.ticks == [100_000 - 5_000 + 1]
        assert eng.ticks_dispatched == 1

    def test_small_stale_populations_are_left_alone(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        for cycle in (50, 40, 30):
            eng.schedule(t, cycle)
        assert eng.compactions == 0  # below COMPACT_MIN_STALE
        eng.drain()
        assert t.ticks == [30]


class TestOrdering:
    def test_same_cycle_priority_order(self):
        order: list[str] = []

        class P(Component):
            def __init__(self, name, prio):
                super().__init__(name)
                self.priority = prio

            def tick(self, now):
                order.append(self.name)
                return None

        eng = Engine()
        low = eng.register(P("low", 90))
        high = eng.register(P("high", 10))
        eng.schedule(low, 5)
        eng.schedule(high, 5)
        eng.drain()
        assert order == ["high", "low"]

    def test_same_priority_ties_follow_registration_order(self):
        # Ties on (cycle, priority) break by registration index, NOT push
        # order: a component that scheduled its tick far in advance (e.g.
        # an SPU that ran ahead of the engine) must not jump ahead
        # of a peer that scheduled the same cycle later.
        order: list[str] = []

        class P(Component):
            def tick(self, now):
                order.append(self.name)
                return None

        eng = Engine()
        first = eng.register(P("first"))
        second = eng.register(P("second"))
        # Push in reverse registration order, at different times.
        eng.schedule(second, 50)
        eng.call_at(40, lambda: eng.schedule(first, 50))
        eng.drain()
        assert order == ["first", "second"]

    def test_callbacks_run_before_ticks(self):
        order: list[str] = []
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 5)
        eng.call_at(5, lambda: order.append("cb"))
        eng.drain()
        assert order == ["cb"]
        assert t.ticks == [5]

    def test_call_at_clamps_past_and_current_cycles(self):
        eng = Engine()
        seen: list[int] = []
        eng.call_at(0, lambda: seen.append(eng.now))  # now is 0
        eng.call_at(-7, lambda: seen.append(eng.now))
        eng.drain()
        assert seen == [1, 1]

    def test_callback_requesting_current_cycle_defers_to_next(self):
        # A callback can never re-enter its own cycle: call_at clamps a
        # same-cycle request to now + 1, so the dispatch loop is finite.
        eng = Engine()
        fired: list[tuple[str, int]] = []

        def outer() -> None:
            fired.append(("outer", eng.now))
            eng.call_at(eng.now, lambda: fired.append(("inner", eng.now)))

        eng.call_at(3, outer)
        eng.drain()
        assert fired == [("outer", 3), ("inner", 4)]

    def test_tick_requesting_current_cycle_callback_defers(self):
        class CallsBack(Component):
            def __init__(self, name: str) -> None:
                super().__init__(name)
                self.cb_cycles: list[int] = []

            def tick(self, now: int) -> None:
                self.engine.call_at(
                    now, lambda: self.cb_cycles.append(self.engine.now)
                )
                return None

        eng = Engine()
        c = eng.register(CallsBack("c"))
        eng.schedule(c, 5)
        eng.drain()
        assert c.cb_cycles == [6]

    def test_non_advancing_tick_raises(self):
        class Bad(Component):
            def tick(self, now):
                return now

        eng = Engine()
        bad = eng.register(Bad("bad"))
        eng.schedule(bad, 1)
        with pytest.raises(RuntimeError, match="non-advancing"):
            eng.drain()


class TestRunControl:
    def test_until_condition_stops_run(self):
        eng = Engine()
        t = eng.register(Ticker("t", period=2, count=100))
        eng.schedule(t, 1)
        eng.run(until=lambda: len(t.ticks) >= 3)
        assert len(t.ticks) == 3

    def test_deadlock_raises_with_component_states(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 1)
        with pytest.raises(SimulationDeadlock, match="t:"):
            eng.run(until=lambda: False)

    def test_max_cycles_enforced(self):
        eng = Engine()
        t = eng.register(Ticker("t", period=10, count=1000))
        eng.schedule(t, 1)
        with pytest.raises(SimulationLimitExceeded):
            eng.run(until=lambda: False, max_cycles=100)

    def test_drain_returns_final_cycle(self):
        eng = Engine()
        t = eng.register(Ticker("t", period=7, count=3))
        eng.schedule(t, 1)
        assert eng.drain() == 15

    def test_empty_engine_drains_immediately(self):
        assert Engine().drain() == 0

    def test_wake_from_callback(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.call_at(10, lambda: eng.schedule(t, 20))
        eng.drain()
        assert t.ticks == [20]

    def test_pending_events_view(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 7)
        pend = list(eng.pending_events())
        assert pend == [(7, t)]


class Stopper(Component):
    """Ticks every cycle, recording (name, cycle); stops the run at
    ``stop_at``."""

    def __init__(self, name, log, priority=50, stop_at=None):
        super().__init__(name)
        self.priority = priority
        self.log = log
        self.stop_at = stop_at

    def tick(self, now):
        self.log.append((self.name, now))
        if now == self.stop_at:
            self.engine.stop()
        return now + 1


class TestStop:
    def test_stop_ends_the_run_after_the_current_cycle(self):
        log: list[tuple[str, int]] = []
        eng = Engine()
        first = eng.register(Stopper("first", log, priority=10, stop_at=3))
        second = eng.register(Stopper("second", log, priority=20))
        eng.schedule(first, 1)
        eng.schedule(second, 1)
        assert eng.run(until_stopped=True) == 3
        # The rest of cycle 3 still dispatched; cycle 4 did not.
        assert log[-2:] == [("first", 3), ("second", 3)]
        # The request was consumed: the next run goes on from cycle 4.
        eng.run(until=lambda: eng.now >= 4)
        assert log[-2:] == [("first", 4), ("second", 4)]

    def test_stop_from_a_callback(self):
        log: list[tuple[str, int]] = []
        eng = Engine()
        t = eng.register(Stopper("t", log))
        eng.schedule(t, 1)
        eng.call_at(5, eng.stop)
        assert eng.run(until_stopped=True) == 5
        assert log[-1] == ("t", 5)

    def test_stop_also_ends_an_until_run(self):
        log: list[tuple[str, int]] = []
        eng = Engine()
        t = eng.register(Stopper("t", log, stop_at=2))
        eng.schedule(t, 1)
        assert eng.run(until=lambda: False) == 2

    def test_stop_before_the_run_returns_at_once(self):
        eng = Engine()
        t = eng.register(Ticker("t"))
        eng.schedule(t, 1)
        eng.stop()
        assert eng.run(until_stopped=True) == 0
        assert t.ticks == []
        assert eng.ticks_dispatched == 0

    def test_drained_queue_without_a_stop_deadlocks(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=3))
        eng.schedule(t, 1)
        with pytest.raises(SimulationDeadlock, match="t:"):
            eng.run(until_stopped=True)
        assert t.ticks == [1, 2, 3]

    def test_max_cycles_still_raises(self):
        eng = Engine()
        t = eng.register(Ticker("t", period=10, count=1000))
        eng.schedule(t, 1)
        with pytest.raises(SimulationLimitExceeded):
            eng.run(until_stopped=True, max_cycles=100)

    def test_register_rejects_a_negative_priority(self):
        # Dispatch tells a callback (priority -1) from a tick by the sign
        # of the heap entry's priority alone.
        eng = Engine()
        t = Ticker("t")
        t.priority = -1
        with pytest.raises(ValueError, match="negative priority"):
            eng.register(t)
        assert eng.components == ()


class TestDiagnostics:
    def test_deadlock_report_says_queue_drained(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 1)
        with pytest.raises(SimulationDeadlock) as exc:
            eng.run(until=lambda: False)
        text = str(exc.value)
        assert "event queue drained" in text
        assert "component states:" in text

    def test_limit_report_does_not_claim_queue_drained(self):
        # The old code reused the deadlock report here, falsely claiming
        # "event queue drained" while events were in fact still pending.
        eng = Engine()
        t = eng.register(Ticker("t", period=10, count=1000))
        eng.schedule(t, 1)
        with pytest.raises(SimulationLimitExceeded) as exc:
            eng.run(until=lambda: False, max_cycles=100)
        text = str(exc.value)
        assert "event queue drained" not in text
        assert "exceeded max_cycles=100" in text
        assert "events still pending" in text
        assert "component states:" in text
        assert "next pending events:" in text
        assert "tick t" in text

    def test_peek_events_orders_and_formats(self):
        def named_callback() -> None:
            pass

        eng = Engine()
        a = eng.register(Ticker("a", count=1))
        b = eng.register(Ticker("b", count=1))
        eng.schedule(a, 20)
        eng.schedule(b, 5)
        eng.call_at(10, named_callback)
        lines = eng.peek_events()
        assert len(lines) == 3
        assert lines[0] == "cycle 5: tick b"
        assert lines[1].startswith("cycle 10: callback ")
        assert lines[1].endswith("named_callback")
        assert lines[2] == "cycle 20: tick a"

    def test_peek_events_skips_stale_entries_and_honours_limit(self):
        eng = Engine()
        t = eng.register(Ticker("t", count=1))
        eng.schedule(t, 40)
        eng.schedule(t, 12)  # supersedes: the cycle-40 entry goes stale
        assert eng.peek_events() == ["cycle 12: tick t"]
        for cycle in range(50, 60):
            eng.call_at(cycle, lambda: None)
        assert len(eng.peek_events(limit=4)) == 4
