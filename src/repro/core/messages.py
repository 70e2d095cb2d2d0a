"""Scheduler message protocol.

DTA scheduler elements (LSEs and DSEs) communicate exclusively by sending
messages (paper Sec. 2): FALLOC-Request / FALLOC-Response for frame
allocation, FFREE for releasing frames, and remote-store messages for
writing into frames of threads on other PEs.  On CellDTA these ride the
element interconnect bus, so every message declares its size in bytes for
bus timing.

The reproduction adds one bookkeeping message that a hardware
implementation would fold into the same wires: ``FrameFreed`` (LSE -> DSE
load accounting).  DMA completion needs no message: MFC and LSE sit in the
same SPE, so the MFC calls :meth:`LSE.dma_command_done
<repro.core.lse.LSE.dma_command_done>` directly.

Messages are allocated on the simulator's hot path (one per store, per
bus flit, per DMA chunk), so every class uses ``slots=True``.  A message
whose size is fixed declares it as a class constant, read without a
call; only messages that carry a payload of words compute it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Message",
    "FallocRequest",
    "AllocFrame",
    "FallocResponse",
    "StoreMsg",
    "FFreeMsg",
    "FrameFreed",
    "ReadRequest",
    "WriteRequest",
    "ReadResponse",
    "WriteAck",
    "CacheFillRequest",
    "CacheFillResponse",
    "DmaReadRequest",
    "DmaGatherRequest",
    "DmaReadResponse",
    "DmaWriteRequest",
]


@dataclass(frozen=True, slots=True)
class Message:
    """Base class: every message knows its wire size."""

    #: Wire size in bytes (a class constant unless the payload varies).
    size_bytes = 16


@dataclass(frozen=True, slots=True)
class FallocRequest(Message):
    """LSE -> DSE: a thread asked for a new frame (FALLOC).

    ``requester`` names the LSE waiting for the response; ``request_id``
    correlates the eventual :class:`FallocResponse`.
    """

    request_id: int
    requester_spe: int
    template_id: int
    sc: int


@dataclass(frozen=True, slots=True)
class AllocFrame(Message):
    """DSE -> target LSE: allocate a frame for a new thread here."""

    request_id: int
    requester_spe: int
    template_id: int
    sc: int


@dataclass(frozen=True, slots=True)
class FallocResponse(Message):
    """Target LSE -> requesting LSE: the new thread's frame handle."""

    request_id: int
    handle: int
    tid: int


@dataclass(frozen=True, slots=True)
class StoreMsg(Message):
    """LSE -> LSE: store one word into a remote frame (decrements SC)."""

    handle: int
    slot: int
    value: int
    #: Integrity check code of ``value`` (repro.faults.integrity), stamped
    #: when the message enters the bus under an active data-fault plan;
    #: 0 (and unverified) otherwise.
    check: int = 0

    size_bytes = 16  # header + address + 4-byte datum, rounded to flit


@dataclass(frozen=True, slots=True)
class FFreeMsg(Message):
    """Explicit FFREE of a remote frame handle."""

    handle: int

    size_bytes = 8


@dataclass(frozen=True, slots=True)
class FrameFreed(Message):
    """LSE -> DSE: a frame was released (load bookkeeping)."""

    spe_id: int

    size_bytes = 8


# -- main-memory traffic -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReadRequest(Message):
    """SPU -> main memory: scalar READ of one word."""

    addr: int
    reply_key: int
    requester_spe: int

    size_bytes = 8


@dataclass(frozen=True, slots=True)
class ReadResponse(Message):
    """Main memory -> SPU: the word for a scalar READ."""

    reply_key: int
    value: int

    size_bytes = 8  # 4-byte datum padded to one bus flit


@dataclass(frozen=True, slots=True)
class WriteRequest(Message):
    """SPU -> main memory: posted scalar WRITE of one word."""

    addr: int
    value: int
    requester_spe: int

    size_bytes = 12


@dataclass(frozen=True, slots=True)
class WriteAck(Message):
    """Main memory -> SPU: a posted WRITE was accepted (store-queue credit)."""

    requester_spe: int

    size_bytes = 8


@dataclass(frozen=True, slots=True)
class CacheFillRequest(Message):
    """Data cache -> main memory: fetch one line."""

    addr: int
    size: int
    requester_spe: int

    size_bytes = 8


@dataclass(frozen=True, slots=True)
class CacheFillResponse(Message):
    """Main memory -> data cache: one line of data."""

    addr: int
    words: tuple[int, ...]
    requester_spe: int

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.words)


@dataclass(frozen=True, slots=True)
class DmaReadRequest(Message):
    """MFC -> main memory: fetch one DMA chunk."""

    addr: int
    size: int
    command_id: int
    chunk_index: int
    requester_spe: int

    size_bytes = 8


@dataclass(frozen=True, slots=True)
class DmaGatherRequest(Message):
    """MFC -> main memory: gather ``count`` words, one every ``stride`` B."""

    addr: int
    count: int
    stride: int
    command_id: int
    chunk_index: int
    requester_spe: int

    size_bytes = 16  # address + count + stride + ids


@dataclass(frozen=True, slots=True)
class DmaReadResponse(Message):
    """Main memory -> MFC: one DMA chunk of data."""

    command_id: int
    chunk_index: int
    ls_addr: int
    words: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.words)


@dataclass(frozen=True, slots=True)
class DmaWriteRequest(Message):
    """MFC -> main memory: one DMA write-back chunk (DMAPUT)."""

    addr: int
    words: tuple[int, ...]
    command_id: int
    chunk_index: int
    requester_spe: int

    @property
    def size_bytes(self) -> int:
        return 8 + 4 * len(self.words)
