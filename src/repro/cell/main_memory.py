"""Main memory model.

Table 2: 512 MB, 150-cycle latency, one port.  The port accepts one
request per cycle; service is pipelined, so the latency is paid per
request but throughput is one request per port per cycle (the bus is the
bandwidth limiter for bulk data, which is what makes DMA able to "fully
utilize the bandwidth" while scalar READs cannot — Sec. 4.3).

Storage is a sparse word dictionary so the full 512 MB address space is
addressable without allocating it.  Values are functionally read at
request *acceptance* and written at acceptance too, preserving per-source
program order for the race-free programs DTA produces (inputs are
read-only during an activity; outputs are written by exactly one thread).
"""

from __future__ import annotations

from collections import deque

from repro.core.messages import (
    CacheFillRequest,
    CacheFillResponse,
    DmaGatherRequest,
    DmaReadRequest,
    DmaReadResponse,
    DmaWriteRequest,
    Message,
    ReadRequest,
    ReadResponse,
    WriteAck,
    WriteRequest,
)
from repro.sim.component import Component
from repro.sim.config import MainMemoryConfig
from repro.sim.engine import Callback, register_callback
from repro.sim.stats import MemoryStats

__all__ = ["MainMemory", "MemoryFault"]


class MemoryFault(RuntimeError):
    """An out-of-range or misaligned main-memory access."""


class MainMemory(Component):
    """The single off-chip memory, attached to the bus."""

    priority = 20

    def __init__(
        self,
        name: str,
        config: MainMemoryConfig,
        stats: MemoryStats | None = None,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.stats = stats if stats is not None else MemoryStats()
        self._words: dict[int, int] = {}
        self._queue: deque[tuple[Message, int]] = deque()  # (msg, arrival)
        #: Wired by the machine: spe_id -> bus endpoint for responses.
        self.directory: dict[int, object] = {}
        self._bus = None  # wired by the machine
        self._injector = None  # optional FaultInjector
        # Hub instruments (bound in _bind_metrics; None = observability off).
        self._m_wait = None
        self._m_requests = None
        self._g_queue = None

    def attach_bus(self, bus) -> None:
        self._bus = bus

    def _bind_metrics(self, hub) -> None:
        self._m_wait = hub.bucket_series("memory.port_wait_cycles")
        self._m_requests = hub.bucket_series("memory.requests")
        self._g_queue = hub.gauge("memory.queue_depth")

    def attach_faults(self, injector=None) -> None:
        self._injector = injector

    def _stall(self) -> int:
        """Injected extra service latency for one request (usually 0)."""
        return 0 if self._injector is None else self._injector.mem_stall()

    # -- functional storage (offline access for loaders/oracles) -----------------

    def _check(self, addr: int) -> None:
        if addr % 4:
            raise MemoryFault(f"unaligned main-memory access at {addr:#x}")
        if not 0 <= addr < self.config.size:
            raise MemoryFault(
                f"main-memory access at {addr:#x} outside 0..{self.config.size:#x}"
            )

    def read_word(self, addr: int) -> int:
        self._check(addr)
        return self._words.get(addr >> 2, 0)

    def write_word(self, addr: int, value: int) -> None:
        self._check(addr)
        self._words[addr >> 2] = value

    def load_block(self, addr: int, values: "list[int] | tuple[int, ...]") -> None:
        """Bulk functional store (used to place global objects)."""
        for i, v in enumerate(values):
            self.write_word(addr + 4 * i, v)

    def read_block(self, addr: int, words: int) -> list[int]:
        """Bulk functional read (used to extract results)."""
        return [self.read_word(addr + 4 * i) for i in range(words)]

    # -- bus endpoint -------------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        engine = self._engine or self.engine
        self._queue.append((msg, engine._now))
        engine.schedule(self)

    # -- component ------------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        queue = self._queue
        config = self.config
        stats = self.stats
        accepted = 0
        while queue and accepted < config.ports:
            msg, arrival = queue.popleft()
            accepted += 1
            stats.port_wait_cycles += now - arrival
            if self._m_wait is not None:
                self._m_requests.add(now, 1)
                if now > arrival:
                    self._m_wait.add(now, now - arrival)
            if type(msg) is not ReadRequest:
                self._serve(msg, now)
                continue
            # A scalar READ, the blocking round trip of the unprefetched
            # baseline: read_word, _endpoint and _respond, inline.
            stats.read_requests += 1
            stats.bytes_read += 4
            addr = msg.addr
            if addr % 4 or not 0 <= addr < config.size:
                self._check(addr)  # raises MemoryFault
            endpoint = self.directory.get(msg.requester_spe)
            if endpoint is None:
                self._endpoint(msg.requester_spe)  # raises MemoryFault
            if self._bus is None:
                raise RuntimeError(f"{self.name}: bus not attached")
            ready = now + config.latency
            if self._injector is not None:
                ready += self._injector.mem_stall()
            self._engine.call_at(ready, Callback(
                "memory.send", self,
                (endpoint, ReadResponse(reply_key=msg.reply_key,
                                        value=self._words.get(addr >> 2, 0))),
            ))
        if self._g_queue is not None and accepted:
            self._g_queue.observe(now, len(queue))
        return now + 1 if queue else None

    def _endpoint(self, spe_id: int):
        try:
            return self.directory[spe_id]
        except KeyError:
            raise MemoryFault(
                f"no response endpoint registered for SPE {spe_id}"
            ) from None

    def _respond(self, endpoint, msg: Message, now: int) -> None:
        if self._bus is None:
            raise RuntimeError(f"{self.name}: bus not attached")
        ready = now + self.config.latency + self._stall()
        self.engine.call_at(ready, Callback("memory.send", self, (endpoint, msg)))

    def _send(self, endpoint, msg: Message) -> None:
        """Put a finished response on the bus (deferred by ``call_at``)."""
        self._bus.send(endpoint, msg)

    def _serve(self, msg: Message, now: int) -> None:
        """Serve every request but a scalar READ (:meth:`tick` does those)."""
        if isinstance(msg, WriteRequest):
            self.stats.write_requests += 1
            self.stats.bytes_written += 4
            self.write_word(msg.addr, msg.value)
            # Credit the SPU's store queue as soon as the port accepts the
            # write (posted stores never wait for the array access itself).
            endpoint = self._endpoint(msg.requester_spe)
            ack = WriteAck(requester_spe=msg.requester_spe)
            extra = self._stall()
            if extra:
                self.engine.call_at(
                    now + extra, Callback("memory.send", self, (endpoint, ack))
                )
            else:
                self._bus.send(endpoint, ack)
        elif isinstance(msg, DmaReadRequest):
            self.stats.read_requests += 1
            self.stats.bytes_read += msg.size
            words = tuple(
                self.read_word(msg.addr + 4 * i) for i in range(msg.size // 4)
            )
            self._respond(
                self._endpoint(msg.requester_spe),
                DmaReadResponse(
                    command_id=msg.command_id,
                    chunk_index=msg.chunk_index,
                    ls_addr=0,  # filled in by the MFC from its command table
                    words=words,
                ),
                now,
            )
        elif isinstance(msg, CacheFillRequest):
            self.stats.read_requests += 1
            self.stats.bytes_read += msg.size
            words = tuple(
                self.read_word(msg.addr + 4 * i) for i in range(msg.size // 4)
            )
            self._respond(
                self._endpoint(msg.requester_spe),
                CacheFillResponse(
                    addr=msg.addr, words=words,
                    requester_spe=msg.requester_spe,
                ),
                now,
            )
        elif isinstance(msg, DmaGatherRequest):
            # Strided gather: each element is a separate array access, so
            # the response is delayed by one extra port-cycle per element
            # beyond the first (on top of the access latency).
            self.stats.read_requests += 1
            self.stats.bytes_read += 4 * msg.count
            words = tuple(
                self.read_word(msg.addr + i * msg.stride)
                for i in range(msg.count)
            )
            response = DmaReadResponse(
                command_id=msg.command_id,
                chunk_index=msg.chunk_index,
                ls_addr=0,
                words=words,
            )
            endpoint = self._endpoint(msg.requester_spe)
            ready = now + self.config.latency + (msg.count - 1) + self._stall()
            self.engine.call_at(
                ready, Callback("memory.send", self, (endpoint, response))
            )
        elif isinstance(msg, DmaWriteRequest):
            self.stats.write_requests += 1
            self.stats.bytes_written += 4 * len(msg.words)
            for i, value in enumerate(msg.words):
                self.write_word(msg.addr + 4 * i, value)
            # Write-backs are acknowledged so the MFC can retire the tag.
            self._respond(
                self._endpoint(msg.requester_spe),
                DmaReadResponse(
                    command_id=msg.command_id,
                    chunk_index=msg.chunk_index,
                    ls_addr=-1,
                    words=(),
                ),
                now,
            )
        else:
            raise MemoryFault(f"main memory cannot serve {type(msg).__name__}")

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a port (metrics sampling)."""
        return len(self._queue)

    def describe_state(self) -> str:
        return f"{len(self._queue)} queued requests"


register_callback("memory.send", MainMemory._send)
