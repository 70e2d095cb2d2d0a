"""Memory Flow Controller — the per-SPE DMA engine.

The PF code block programs this unit (paper Table 3: LS address, main
memory address, data size, tag ID).  Commands sit in a 16-entry queue
(Table 4); the 30-cycle command latency is paid on the SPU side while the
channel interface is written (that is precisely the paper's "prefetching
overhead ... due to the fact that SPU must spend some time in order to
program the DMA unit").

A command is split into chunks of at most ``max_transfer_size`` bytes;
the MFC issues one chunk request per cycle to main memory over the bus,
and writes returned data into the Local Store at 16 bytes per port-cycle.
When the last chunk of a command lands, the MFC notifies the LSE, which
decrements the waiting thread's DMA tag counter — the standard DTA
synchronization-counter mechanism reused for DMA completion (Sec. 3).

The reproduction keys outstanding commands by ``(thread, tag)`` rather
than a per-SPU tag register: several waiting threads may coexist on one
SPE, and hardware would partition or rename the tag space per context.
"""

from __future__ import annotations

import enum
import typing
from collections import deque
from dataclasses import dataclass, field

from repro.core.messages import (
    DmaGatherRequest,
    DmaReadRequest,
    DmaReadResponse,
    DmaWriteRequest,
)
from repro.faults.integrity import checksum_words, corrupt_words
from repro.sim.component import Component
from repro.sim.config import MFCConfig
from repro.sim.engine import Callback, register_callback
from repro.sim.stats import MFCStats

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.local_store import LocalStore

__all__ = ["MFC", "DmaKind", "DmaCommand"]

#: LS write bandwidth per port-cycle.
_LS_WRITE_BYTES_PER_CYCLE = 16


class DmaKind(enum.Enum):
    GET = "get"  # main memory -> LS (prefetch)
    PUT = "put"  # LS -> main memory (write-back extension)


@dataclass(slots=True)
class DmaCommand:
    """One queued DMA command."""

    command_id: int
    kind: DmaKind
    ls_addr: int
    mem_addr: int
    size: int
    tag: int
    tid: int
    chunks: list[tuple[int, int]] = field(default_factory=list)  # (offset, size)
    next_chunk: int = 0
    done_chunks: int = 0
    #: Byte distance between gathered elements (4 = contiguous transfer).
    stride: int = 4
    #: Whole-transfer re-fetches performed after checksum mismatches
    #: (bounded by the fault plan's ``data_max_refetches``).
    refetches: int = 0

    @property
    def issued_all(self) -> bool:
        return self.next_chunk >= len(self.chunks)

    @property
    def complete(self) -> bool:
        return self.done_chunks >= len(self.chunks)


class MFC(Component):
    """DMA controller of one SPE."""

    priority = 30

    def __init__(
        self,
        name: str,
        spe_id: int,
        config: MFCConfig,
        local_store: "LocalStore",
        stats: MFCStats | None = None,
    ) -> None:
        super().__init__(name)
        self.spe_id = spe_id
        self.config = config
        self.ls = local_store
        self.stats = stats if stats is not None else MFCStats()
        self._queue: deque[DmaCommand] = deque()
        self._inflight: dict[int, DmaCommand] = {}
        self._next_id = 0
        #: Bytes of not-yet-completed commands (incremental, O(1) to read).
        self._outstanding_bytes = 0
        # Hub instruments (bound in _bind_metrics; None = observability off).
        self._m_bytes = None
        self._m_commands = None
        self._g_inflight = None
        self._m_refetches = None
        # Wired by the SPE/machine.
        self._bus = None
        self._memory = None
        self._lse = None
        self._endpoint = None  # the SPE bus endpoint responses return to
        self._injector = None  # optional FaultInjector
        self._sanitizer = None  # optional Sanitizer

    def _bind_metrics(self, hub) -> None:
        prefix = f"mfc{self.spe_id}"
        self._m_bytes = hub.bucket_series(f"{prefix}.bytes")
        self._m_commands = hub.counter(f"{prefix}.commands")
        self._g_inflight = hub.gauge(f"{prefix}.inflight_bytes")
        self._m_refetches = hub.counter(f"{prefix}.refetches")

    def wire(self, bus, memory, lse, endpoint, injector=None,
             sanitizer=None) -> None:
        self._bus = bus
        self._memory = memory
        self._lse = lse
        self._endpoint = endpoint
        self._injector = injector
        self._sanitizer = sanitizer

    # -- SPU-facing API -------------------------------------------------------

    @property
    def queue_free(self) -> bool:
        return len(self._queue) + len(self._inflight) < self.config.command_queue_size

    def enqueue(
        self, kind: DmaKind, ls_addr: int, mem_addr: int, size: int, tag: int,
        tid: int, stride: int = 4,
    ) -> bool:
        """Queue a DMA command; returns False when the queue is full.

        ``size`` counts the bytes *transferred*; with ``stride > 4`` the
        command gathers ``size // 4`` words, one every ``stride`` bytes
        of main memory, into a contiguous LS buffer (DMAGETS).
        """
        if size <= 0 or size % 4:
            raise ValueError(f"DMA size must be a positive word multiple, got {size}")
        if stride < 4 or stride % 4:
            raise ValueError(f"DMA stride must be a word multiple, got {stride}")
        if stride > 4 and kind is not DmaKind.GET:
            raise ValueError("strided transfers are gather (GET) only")
        if not self.queue_free:
            self.stats.queue_full_rejections += 1
            return False
        chunks: list[tuple[int, int]] = []
        offset = 0
        # Chunks are (LS offset, bytes); a strided chunk still moves at
        # most max_transfer_size bytes of payload.
        while offset < size:
            csize = min(self.config.max_transfer_size, size - offset)
            chunks.append((offset, csize))
            offset += csize
        cmd = DmaCommand(
            command_id=self._next_id,
            kind=kind,
            ls_addr=ls_addr,
            mem_addr=mem_addr,
            size=size,
            tag=tag,
            tid=tid,
            chunks=chunks,
            stride=stride,
        )
        self._next_id += 1
        if self._sanitizer is not None and kind is DmaKind.GET:
            self._sanitizer.dma_write_begin(
                self.name, cmd.command_id, ls_addr, size
            )
        self._queue.append(cmd)
        self._trace("dma-command", direction=kind.value, bytes=size, tag=tag,
                    tid=tid, chunks=len(chunks))
        self.stats.commands += 1
        self.stats.bytes_transferred += size
        self._outstanding_bytes += size
        if self._m_bytes is not None:
            self._m_bytes.add(self.now, size)
            self._m_commands.add()
            self._g_inflight.observe(self.now, self._outstanding_bytes)
        if self._lse is not None:
            self._lse.dma_command_issued(tid, tag)
        self.wake()
        return True

    # -- component ----------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        """Issue one chunk request per cycle (FIFO across commands)."""
        if not self._queue:
            return None
        cmd = self._queue[0]
        chunk_index = cmd.next_chunk
        offset, csize = cmd.chunks[chunk_index]
        if cmd.kind is DmaKind.GET and cmd.stride > 4:
            # Strided gather: this chunk covers csize//4 elements whose
            # memory addresses advance by the stride.
            first_element = offset // 4
            msg: object = DmaGatherRequest(
                addr=cmd.mem_addr + first_element * cmd.stride,
                count=csize // 4,
                stride=cmd.stride,
                command_id=cmd.command_id,
                chunk_index=chunk_index,
                requester_spe=self.spe_id,
            )
        elif cmd.kind is DmaKind.GET:
            msg = DmaReadRequest(
                addr=cmd.mem_addr + offset,
                size=csize,
                command_id=cmd.command_id,
                chunk_index=chunk_index,
                requester_spe=self.spe_id,
            )
        else:
            # PUT: read the LS data now (charging one port-cycle per 16 B
            # would be symmetric; reads are cheap and bounded, so charge
            # one port this cycle as an approximation).  Snapshotting the
            # words here also makes delayed/retried sends safe: the thread
            # may STOP and its buffers be reused before the bus request
            # actually departs.
            self.ls.reserve_port(now)
            words = tuple(self.ls.read_block(cmd.ls_addr + offset, csize // 4))
            msg = DmaWriteRequest(
                addr=cmd.mem_addr + offset,
                words=words,
                command_id=cmd.command_id,
                chunk_index=chunk_index,
                requester_spe=self.spe_id,
            )
        cmd.next_chunk += 1
        if cmd.issued_all:
            self._queue.popleft()
            self._inflight[cmd.command_id] = cmd
        self._launch_chunk(cmd, msg, attempt=0)
        return now + 1 if self._queue else None

    def _launch_chunk(self, cmd: DmaCommand, msg, attempt: int) -> None:
        """Send one chunk's bus request, subject to injected faults.

        A transient failure re-launches the chunk after exponential
        backoff; retry exhaustion degrades it to
        :meth:`_fallback_chunk`.  All of this perturbs timing only — the
        request eventually carries the exact same payload.
        """
        inj = self._injector
        if inj is None:
            self._bus.send(self._endpoint, self._memory, msg)
            return
        if inj.dma_chunk_fails(self.name):
            if attempt < inj.plan.dma_max_retries:
                wait = inj.plan.backoff_cycles(attempt)
                inj.stats.dma_retries += 1
                inj.stats.dma_backoff_cycles += wait
                self._trace("dma-chunk-retry", command=cmd.command_id,
                            attempt=attempt, wait=wait)
                self.engine.call_at(
                    self.now + wait,
                    Callback("mfc.retry", self, (cmd, msg, attempt + 1)),
                )
            else:
                inj.stats.dma_fallbacks += 1
                self._trace("dma-chunk-fallback", command=cmd.command_id)
                self._fallback_chunk(cmd, msg)
            return
        delay = inj.dma_chunk_delay(self.name)
        if delay:
            self.engine.call_at(
                self.now + delay, Callback("mfc.send", self, (msg,))
            )
        else:
            self._bus.send(self._endpoint, self._memory, msg)

    def _send_chunk(self, msg) -> None:
        """Dispatch a fault-delayed chunk request onto the bus."""
        self._bus.send(self._endpoint, self._memory, msg)

    def _fallback_chunk(self, cmd: DmaCommand, msg) -> None:
        """Retries exhausted: the DMA engine gives up on this chunk and the
        owning thread effectively performs blocking scalar accesses instead.

        Functionally the transfer still happens (same words, same
        addresses); the cost is one serialized memory round-trip per word
        — the scalar-READ price Sec. 4.3 says DMA exists to avoid.  The
        chunk then completes through the normal tag mechanism, so the
        thread never wedges.
        """
        if isinstance(msg, DmaWriteRequest):
            for i, value in enumerate(msg.words):
                self._memory.write_word(msg.addr + 4 * i, value)
            words = len(msg.words)
        else:
            offset, _csize = cmd.chunks[msg.chunk_index]
            if isinstance(msg, DmaGatherRequest):
                data = tuple(
                    self._memory.read_word(msg.addr + i * msg.stride)
                    for i in range(msg.count)
                )
            else:
                data = tuple(
                    self._memory.read_word(msg.addr + 4 * i)
                    for i in range(msg.size // 4)
                )
            self.ls.write_block(cmd.ls_addr + offset, data)
            words = len(data)
        finish = self.now + words * (self._memory.config.latency + 2)
        self._chunk_done(cmd, finish)

    # -- response path ---------------------------------------------------------------

    def deliver(self, msg: DmaReadResponse) -> None:
        """Handle a chunk arriving from main memory (routed via the SPE)."""
        cmd = self._inflight.get(msg.command_id)
        if cmd is None and self._queue and (
            self._queue[0].command_id == msg.command_id
        ):
            # Only the queue head issues chunks, and it moves to
            # _inflight with its last one; at low memory latency an
            # earlier chunk can answer before then.
            cmd = self._queue[0]
        if cmd is None:
            raise RuntimeError(
                f"{self.name}: response for unknown DMA command {msg.command_id}"
            )
        if cmd.kind is DmaKind.GET:
            offset, csize = cmd.chunks[msg.chunk_index]
            words = msg.words
            inj = self._injector
            if inj is not None and inj.plan.data_active:
                fault = inj.dma_chunk_corruption(self.name)
                if fault is not None:
                    self._trace("data-fault", what=fault[0],
                                command=cmd.command_id, tag=cmd.tag)
                    words = corrupt_words(words, fault)
            if words is not None:
                self.ls.write_block(cmd.ls_addr + offset, words)
            # Charge LS write ports: 16 B per port-cycle, starting at the
            # first cycle with a free port.  Charged identically whether
            # or not the payload was corrupted — data faults damage
            # bytes, not the port schedule.
            cycles = max(1, -(-csize // _LS_WRITE_BYTES_PER_CYCLE))
            when = self.now
            for _ in range(cycles):
                when = self.ls.next_free_port_cycle(when)
                self.ls.reserve_port(when)
                when += 1
            finish = when
        else:
            finish = self.now + 1
        self._chunk_done(cmd, finish)

    def _chunk_done(self, cmd: DmaCommand, finish: int) -> None:
        """Retire one chunk; on the last, notify the LSE at ``finish``."""
        cmd.done_chunks += 1
        if cmd.complete:
            inj = self._injector
            if (inj is not None and inj.plan.data_active
                    and cmd.kind is DmaKind.GET
                    and not self._verify_transfer(cmd)):
                self._transfer_corrupt(cmd)
                return
            del self._inflight[cmd.command_id]
            self._outstanding_bytes -= cmd.size
            if self._g_inflight is not None:
                self._g_inflight.observe(self.now, self._outstanding_bytes)
            if self._sanitizer is not None and cmd.kind is DmaKind.GET:
                self._sanitizer.dma_write_end(self.name, cmd.command_id)
            self.engine.call_at(
                finish, Callback("mfc.dma_done", self, (cmd.tid, cmd.tag))
            )

    # -- transfer integrity ------------------------------------------------------

    def _verify_transfer(self, cmd: DmaCommand) -> bool:
        """Compare the landed LS region against the source checksum.

        The source checksum is computed over the transfer's main-memory
        words (stride-aware for gathers) — exactly what an MFC stamping
        a checksum onto the transfer descriptor would carry.
        """
        n = cmd.size // 4
        got = checksum_words(self.ls.read_block(cmd.ls_addr, n))
        if cmd.stride > 4:
            source = (
                self._memory.read_word(cmd.mem_addr + i * cmd.stride)
                for i in range(n)
            )
        else:
            source = self._memory.read_block(cmd.mem_addr, n)
        return got == checksum_words(source)

    def _transfer_corrupt(self, cmd: DmaCommand) -> None:
        """A completed GET failed verification: re-fetch the whole
        transfer, or escalate to the LSE once the budget is exhausted.

        The re-fetch is synchronous bookkeeping (reset chunk cursors,
        back into the command queue) — no new callback kinds, so a
        checkpoint taken mid re-fetch restores for free.  The command
        stays accounted in ``_outstanding_bytes`` and keeps its
        sanitizer LS-range registration: it is still the same in-flight
        transfer, just trying again.
        """
        inj = self._injector
        inj.stats.dma_verify_failures += 1
        if cmd.refetches < inj.plan.data_max_refetches:
            cmd.refetches += 1
            inj.stats.dma_refetches += 1
            if self._m_refetches is not None:
                self._m_refetches.add()
            self._trace("dma-reverify", command=cmd.command_id, tag=cmd.tag,
                        tid=cmd.tid, attempt=cmd.refetches)
            del self._inflight[cmd.command_id]
            cmd.next_chunk = 0
            cmd.done_chunks = 0
            self._queue.append(cmd)
            self.wake()
            return
        # Budget exhausted: cancel the command and hand the decision to
        # the LSE, which squashes the owning thread for re-execution or
        # raises a structured DataCorruptionError.
        del self._inflight[cmd.command_id]
        self._outstanding_bytes -= cmd.size
        if self._g_inflight is not None:
            self._g_inflight.observe(self.now, self._outstanding_bytes)
        if self._sanitizer is not None:
            self._sanitizer.dma_write_end(self.name, cmd.command_id)
        self._lse.transfer_corrupt(cmd)

    def _notify_done(self, tid: int, tag: int) -> None:
        """Tell the LSE a command's last chunk has fully landed."""
        self._lse.dma_command_done(tid, tag)

    @property
    def outstanding_commands(self) -> int:
        """Commands queued or in flight (watchdog diagnostics)."""
        return len(self._queue) + len(self._inflight)

    @property
    def outstanding_bytes(self) -> int:
        """Bytes of queued or in-flight commands (metrics sampling)."""
        return self._outstanding_bytes

    def describe_state(self) -> str:
        return (
            f"{len(self._queue)} queued, {len(self._inflight)} in-flight commands"
        )


register_callback("mfc.retry", MFC._launch_chunk)
register_callback("mfc.send", MFC._send_chunk)
register_callback("mfc.dma_done", MFC._notify_done)
