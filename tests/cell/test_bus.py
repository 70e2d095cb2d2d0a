"""Interconnect bus: timing, arbitration, stats."""

from __future__ import annotations

from repro.cell.bus import Bus
from repro.core.messages import Message, StoreMsg
from repro.sim.config import BusConfig
from repro.sim.engine import Engine


class Sink:
    def __init__(self) -> None:
        self.received: list[tuple[int, Message]] = []
        self.engine: Engine | None = None

    def deliver(self, msg: Message) -> None:
        assert self.engine is not None
        self.received.append((self.engine.now, msg))


def make_bus(**kw):
    eng = Engine()
    bus = eng.register(Bus("bus", BusConfig(**kw)))
    return eng, bus


def msg(size: int = 16) -> Message:
    return StoreMsg(handle=0, slot=0, value=size)  # 16 B on the wire


class TestTiming:
    def test_delivery_latency(self):
        eng, bus = make_bus(num_buses=1, bytes_per_cycle=8)
        sink = Sink()
        sink.engine = eng
        bus.send(sink, msg())  # 16 B -> 2 cycles + 1 arb
        eng.drain()
        # Granted at cycle 1 (first tick), finish = 1 + 1 + 2 = 4.
        assert sink.received[0][0] == 4

    def test_parallel_buses_carry_parallel_transfers(self):
        eng, bus = make_bus(num_buses=2, bytes_per_cycle=8)
        sink = Sink()
        sink.engine = eng
        for _ in range(2):
            bus.send(sink, msg())
        eng.drain()
        t1, t2 = (t for t, _ in sink.received)
        assert t1 == t2  # both granted in the same cycle

    def test_single_bus_serializes(self):
        eng, bus = make_bus(num_buses=1, bytes_per_cycle=8)
        sink = Sink()
        sink.engine = eng
        for _ in range(3):
            bus.send(sink, msg())
        eng.drain()
        times = [t for t, _ in sink.received]
        assert times == sorted(times)
        assert len(set(times)) == 3  # 2-cycle occupancy each


class TestStats:
    def test_counts_transfers_and_bytes(self):
        eng, bus = make_bus()
        sink = Sink()
        sink.engine = eng
        for _ in range(5):
            bus.send(sink, msg())
        eng.drain()
        assert bus.stats.transfers == 5
        assert bus.stats.bytes_moved == 5 * 16

    def test_queue_wait_accrues_under_contention(self):
        eng, bus = make_bus(num_buses=1, bytes_per_cycle=1)  # slow bus
        sink = Sink()
        sink.engine = eng
        for _ in range(4):
            bus.send(sink, msg())
        eng.drain()
        assert bus.stats.queue_wait_cycles > 0

    def test_describe_state(self):
        _eng, bus = make_bus()
        assert "queued" in bus.describe_state()
