"""Main memory: functional storage, latency, port acceptance, messages."""

from __future__ import annotations

import pytest

from repro.cell.bus import Bus
from repro.cell.main_memory import MainMemory, MemoryFault
from repro.core.messages import (
    DmaReadRequest,
    DmaReadResponse,
    DmaWriteRequest,
    Message,
    ReadRequest,
    ReadResponse,
    WriteAck,
    WriteRequest,
)
from repro.sim.config import BusConfig, MainMemoryConfig
from repro.sim.engine import Engine


class Requester:
    def __init__(self, eng: Engine) -> None:
        self.eng = eng
        self.received: list[tuple[int, Message]] = []

    def deliver(self, msg: Message) -> None:
        self.received.append((self.eng.now, msg))


def make_memory(latency: int = 10, ports: int = 1):
    eng = Engine()
    bus = eng.register(Bus("bus", BusConfig()))
    mem = eng.register(
        MainMemory("mem", MainMemoryConfig(latency=latency, ports=ports))
    )
    mem.attach_bus(bus)
    req = Requester(eng)
    mem.directory = {0: req}
    return eng, bus, mem, req


class TestFunctionalStorage:
    def test_roundtrip(self):
        _, _, mem, _ = make_memory()
        mem.write_word(0x1000, 99)
        assert mem.read_word(0x1000) == 99

    def test_unwritten_reads_zero(self):
        _, _, mem, _ = make_memory()
        assert mem.read_word(0x2000) == 0

    def test_unaligned_rejected(self):
        _, _, mem, _ = make_memory()
        with pytest.raises(MemoryFault, match="unaligned"):
            mem.read_word(5)

    def test_out_of_range_rejected(self):
        _, _, mem, _ = make_memory()
        with pytest.raises(MemoryFault):
            mem.write_word(mem.config.size, 1)

    def test_block_helpers(self):
        _, _, mem, _ = make_memory()
        mem.load_block(0x100, [7, 8, 9])
        assert mem.read_block(0x100, 3) == [7, 8, 9]


class TestTimedProtocol:
    def test_read_response_carries_value_after_latency(self):
        eng, _, mem, req = make_memory(latency=10)
        mem.write_word(0x40, 1234)
        mem.deliver(ReadRequest(addr=0x40, reply_key=0, requester_spe=0))
        eng.drain()
        (t, msg), = req.received
        assert isinstance(msg, ReadResponse) and msg.value == 1234
        assert t >= 10

    def test_write_applies_and_acks(self):
        eng, _, mem, req = make_memory()
        mem.deliver(WriteRequest(addr=0x80, value=5, requester_spe=0))
        eng.drain()
        assert mem.read_word(0x80) == 5
        assert any(isinstance(m, WriteAck) for _, m in req.received)

    def test_dma_read_returns_block(self):
        eng, _, mem, req = make_memory()
        mem.load_block(0x100, [1, 2, 3, 4])
        mem.deliver(
            DmaReadRequest(addr=0x100, size=16, command_id=7, chunk_index=0,
                           requester_spe=0)
        )
        eng.drain()
        (_, msg), = req.received
        assert isinstance(msg, DmaReadResponse)
        assert msg.words == (1, 2, 3, 4)
        assert msg.command_id == 7

    def test_dma_write_applies_and_acks(self):
        eng, _, mem, req = make_memory()
        mem.deliver(
            DmaWriteRequest(addr=0x200, words=(9, 8), command_id=1,
                            chunk_index=0, requester_spe=0)
        )
        eng.drain()
        assert mem.read_block(0x200, 2) == [9, 8]
        assert len(req.received) == 1

    def test_single_port_serializes_acceptance(self):
        eng, _, mem, req = make_memory(latency=5, ports=1)
        for i in range(4):
            mem.deliver(ReadRequest(addr=4 * i, reply_key=i, requester_spe=0))
        eng.drain()
        times = sorted(t for t, _ in req.received)
        # One acceptance per cycle -> the last response is strictly later
        # than the first (the 4-channel bus may still bunch pairs).
        assert times[-1] > times[0]
        assert mem.stats.port_wait_cycles > 0

    def test_two_ports_accept_two_per_cycle(self):
        eng, _, mem, req = make_memory(latency=5, ports=2)
        for i in range(4):
            mem.deliver(ReadRequest(addr=4 * i, reply_key=i, requester_spe=0))
        eng.drain()
        times = sorted(t for t, _ in req.received)
        assert times[-1] - times[0] <= 2

    def test_unknown_requester_faults(self):
        eng, _, mem, _ = make_memory()
        mem.deliver(ReadRequest(addr=0, reply_key=0, requester_spe=42))
        with pytest.raises(MemoryFault, match="endpoint"):
            eng.drain()

    def test_stats_count_bytes(self):
        eng, _, mem, _ = make_memory()
        mem.deliver(WriteRequest(addr=0, value=1, requester_spe=0))
        mem.deliver(
            DmaReadRequest(addr=0, size=64, command_id=0, chunk_index=0,
                           requester_spe=0)
        )
        eng.drain()
        assert mem.stats.bytes_written == 4
        assert mem.stats.bytes_read == 64
