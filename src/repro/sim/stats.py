"""Statistics containers for the CellDTA simulator.

The paper reports three kinds of numbers and everything here exists to
regenerate them:

* **Execution-time breakdown** (Figure 5): per-SPU cycles split into
  Working / Idle / Memory stalls / LS stalls / LSE stalls / Prefetching
  overhead.  :class:`TimeBreakdown` holds one such split and enforces the
  invariant that the buckets partition total time.
* **Pipeline usage** (Figure 9): fraction of cycles in which the SPU issued
  at least one instruction.
* **Dynamic instruction counts** (Table 5): total instructions plus the
  frame-memory (LOAD/STORE) and main-memory (READ/WRITE) access counts.
  :class:`InstructionMix` tracks them.

Component-local stats (bus bytes, MFC commands, scheduler messages, memory
requests) live in small dataclasses aggregated by
:class:`~repro.cell.machine.Machine` into a :class:`MachineStats`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Bucket",
    "TimeBreakdown",
    "InstructionMix",
    "SpuStats",
    "BusStats",
    "MemoryStats",
    "MFCStats",
    "SchedulerStats",
    "FaultStats",
    "MachineStats",
]


class Bucket:
    """Names of the Figure 5 execution-time buckets."""

    WORKING = "working"
    IDLE = "idle"
    MEM_STALL = "mem_stall"
    LS_STALL = "ls_stall"
    LSE_STALL = "lse_stall"
    PREFETCH = "prefetch"

    ALL = (WORKING, IDLE, MEM_STALL, LS_STALL, LSE_STALL, PREFETCH)


@dataclass
class TimeBreakdown:
    """Cycles per Figure 5 bucket for one SPU (or averaged over SPUs)."""

    working: float = 0
    idle: float = 0
    mem_stall: float = 0
    ls_stall: float = 0
    lse_stall: float = 0
    prefetch: float = 0

    @property
    def total(self) -> float:
        return (
            self.working
            + self.idle
            + self.mem_stall
            + self.ls_stall
            + self.lse_stall
            + self.prefetch
        )

    def fraction(self, bucket: str) -> float:
        """Bucket share of total time (0 if the breakdown is empty)."""
        if bucket not in Bucket.ALL:
            raise KeyError(f"unknown bucket {bucket!r}")
        total = self.total
        return getattr(self, bucket) / total if total else 0.0

    def fractions(self) -> dict[str, float]:
        """All bucket shares, keyed by bucket name."""
        return {b: self.fraction(b) for b in Bucket.ALL}

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            **{b: getattr(self, b) + getattr(other, b) for b in Bucket.ALL}
        )

    def scaled(self, factor: float) -> "TimeBreakdown":
        """A copy with every bucket multiplied by ``factor``."""
        return TimeBreakdown(**{b: getattr(self, b) * factor for b in Bucket.ALL})

    @staticmethod
    def average(parts: "list[TimeBreakdown]") -> "TimeBreakdown":
        """Arithmetic mean of several breakdowns (Figure 5 averages SPUs)."""
        if not parts:
            return TimeBreakdown()
        acc = TimeBreakdown()
        for p in parts:
            acc = acc + p
        return acc.scaled(1.0 / len(parts))


@dataclass
class InstructionMix:
    """Dynamic instruction counts in the Table 5 categories.

    ``by_opcode`` counts every executed instruction by mnemonic; the named
    properties expose the paper's categories: LOAD/STORE are *frame memory*
    accesses, READ/WRITE are *main memory* accesses.
    """

    by_opcode: Counter = field(default_factory=Counter)
    #: Local-store loads of prefetched data count as LOADs (the compiler
    #: literally rewrites READ into LOAD); kept separately for analysis.
    prefetched_loads: int = 0

    @property
    def total(self) -> int:
        return sum(self.by_opcode.values())

    @property
    def loads(self) -> int:
        """Frame-memory LOADs (including rewritten prefetched-data loads)."""
        return self.by_opcode["LOAD"] + self.by_opcode["LLOAD"]

    @property
    def stores(self) -> int:
        """Frame-memory STOREs."""
        return self.by_opcode["STORE"]

    @property
    def reads(self) -> int:
        """Main-memory READs left in the program."""
        return self.by_opcode["READ"]

    @property
    def writes(self) -> int:
        """Main-memory WRITEs."""
        return self.by_opcode["WRITE"]

    def merge(self, other: "InstructionMix") -> None:
        self.by_opcode.update(other.by_opcode)
        self.prefetched_loads += other.prefetched_loads

    def table5_row(self) -> dict[str, int]:
        """The Table 5 columns for this run."""
        return {
            "total": self.total,
            "LOAD": self.loads,
            "STORE": self.stores,
            "READ": self.reads,
            "WRITE": self.writes,
        }


@dataclass
class SpuStats:
    """Per-SPU statistics."""

    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    mix: InstructionMix = field(default_factory=InstructionMix)
    #: Cycles charged while each thread template occupied the pipeline
    #: (working + stalls; idle is unattributable).  Answers "where did
    #: the time go?" per template.
    template_cycles: Counter = field(default_factory=Counter)
    #: Cycles in which at least one instruction issued.
    issue_cycles: int = 0
    #: Cycles in which both issue slots were used.
    dual_issue_cycles: int = 0
    #: Threads run to completion on this SPU.
    threads_executed: int = 0
    #: Cycles the SPU was observed (first dispatch to finish).
    observed_cycles: int = 0

    @property
    def pipeline_usage(self) -> float:
        """Figure 9 metric: fraction of cycles with an instruction issued."""
        total = self.breakdown.total
        return self.issue_cycles / total if total else 0.0

    @property
    def slot_utilization(self) -> float:
        """Fraction of issue slots filled (dual-issue machine)."""
        total = self.breakdown.total
        if not total:
            return 0.0
        return (self.issue_cycles + self.dual_issue_cycles) / (2 * total)


@dataclass
class BusStats:
    """Interconnect statistics."""

    transfers: int = 0
    bytes_moved: int = 0
    busy_bus_cycles: int = 0
    #: Cycles a transfer spent queued waiting for a free bus.
    queue_wait_cycles: int = 0


@dataclass
class MemoryStats:
    """Main-memory statistics."""

    read_requests: int = 0
    write_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Cycles requests spent waiting for a port.
    port_wait_cycles: int = 0


@dataclass
class MFCStats:
    """DMA-controller statistics (one aggregated over all SPEs)."""

    commands: int = 0
    bytes_transferred: int = 0
    #: Commands rejected because the queue was full (SPU retried).
    queue_full_rejections: int = 0


@dataclass
class SchedulerStats:
    """Distributed-scheduler statistics."""

    fallocs: int = 0
    ffrees: int = 0
    remote_stores: int = 0
    messages: int = 0
    #: FALLOCs that had to wait for a free frame.
    falloc_waits: int = 0


@dataclass
class FaultStats:
    """Injected-fault and recovery counters (see :mod:`repro.faults`).

    All zeros when no fault plan is active; under faults these are the
    evidence that perturbations actually fired and were absorbed — the
    chaos tests require them nonzero while architectural outputs stay
    bit-identical to the fault-free run.
    """

    #: DMA chunk issues delayed, and the cycles added.
    dma_delays: int = 0
    dma_delay_cycles: int = 0
    #: Transient DMA chunk failures injected.
    dma_drops: int = 0
    #: Chunk re-issues performed after a transient failure.
    dma_retries: int = 0
    #: Cycles spent in exponential backoff before retries.
    dma_backoff_cycles: int = 0
    #: Chunks that exhausted retries and fell back to blocking reads.
    dma_fallbacks: int = 0
    #: Bus transfers delivered late, and the cycles added.
    bus_delays: int = 0
    bus_delay_cycles: int = 0
    #: Bus transfers duplicated, and duplicates absorbed on delivery.
    bus_duplicates: int = 0
    bus_duplicates_absorbed: int = 0
    #: Main-memory requests stalled, and the cycles added.
    mem_stalls: int = 0
    mem_stall_cycles: int = 0
    #: Data faults injected: GET chunk words bit-flipped, chunk writes
    #: truncated, chunk writes dropped (stale LS), frame-store messages
    #: corrupted on the bus.
    data_flips: int = 0
    data_truncations: int = 0
    data_stale_drops: int = 0
    data_store_corruptions: int = 0
    #: Detection/recovery: transfer checksum mismatches, whole-transfer
    #: re-fetches, frame words poisoned at the commit boundary, poisoned
    #: words scrubbed at read time, and thread-level re-executions.
    dma_verify_failures: int = 0
    dma_refetches: int = 0
    frame_poisons: int = 0
    frame_scrubs: int = 0
    thread_reexecs: int = 0

    @property
    def any_fired(self) -> bool:
        return any(
            getattr(self, f) > 0
            for f in ("dma_delays", "dma_drops", "bus_delays",
                      "bus_duplicates", "mem_stalls", "data_flips",
                      "data_truncations", "data_stale_drops",
                      "data_store_corruptions")
        )

    @property
    def any_data_fired(self) -> bool:
        """True when any corrupting fault actually fired."""
        return any(
            getattr(self, f) > 0
            for f in ("data_flips", "data_truncations", "data_stale_drops",
                      "data_store_corruptions")
        )

    @property
    def any_recovered(self) -> bool:
        """True when detection/recovery machinery actually acted."""
        return any(
            getattr(self, f) > 0
            for f in ("dma_refetches", "frame_scrubs", "thread_reexecs")
        )

    def recovery_counters(self) -> dict:
        """The data-fault/recovery counter block as a plain dict —
        embedded in degraded manifests, journal entries and exports."""
        return {
            "data_flips": self.data_flips,
            "data_truncations": self.data_truncations,
            "data_stale_drops": self.data_stale_drops,
            "data_store_corruptions": self.data_store_corruptions,
            "dma_verify_failures": self.dma_verify_failures,
            "dma_refetches": self.dma_refetches,
            "frame_poisons": self.frame_poisons,
            "frame_scrubs": self.frame_scrubs,
            "thread_reexecs": self.thread_reexecs,
        }

    def summary(self) -> str:
        """One-line counter rendering for reports."""
        line = (
            f"dma: {self.dma_delays} delayed / {self.dma_drops} dropped / "
            f"{self.dma_retries} retried / {self.dma_fallbacks} fell back "
            f"({self.dma_backoff_cycles} backoff cycles); "
            f"bus: {self.bus_delays} delayed / {self.bus_duplicates} "
            f"duplicated ({self.bus_duplicates_absorbed} absorbed); "
            f"memory: {self.mem_stalls} stalled "
            f"(+{self.mem_stall_cycles} cycles)"
        )
        if self.any_data_fired or self.any_recovered:
            line += (
                f"; data: {self.data_flips} flipped / "
                f"{self.data_truncations} truncated / "
                f"{self.data_stale_drops} stale / "
                f"{self.data_store_corruptions} store-corrupt — recovered "
                f"via {self.dma_refetches} re-fetches / "
                f"{self.frame_scrubs} scrubs / "
                f"{self.thread_reexecs} re-executions"
            )
        return line


@dataclass
class MachineStats:
    """Everything a run produces, aggregated over the machine."""

    cycles: int = 0
    spus: list[SpuStats] = field(default_factory=list)
    bus: BusStats = field(default_factory=BusStats)
    memory: MemoryStats = field(default_factory=MemoryStats)
    mfc: MFCStats = field(default_factory=MFCStats)
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def mix(self) -> InstructionMix:
        """Machine-wide dynamic instruction mix (Table 5)."""
        merged = InstructionMix()
        for spu in self.spus:
            merged.merge(spu.mix)
        return merged

    @property
    def template_cycles(self) -> Counter:
        """Machine-wide pipeline cycles per thread template."""
        merged: Counter = Counter()
        for spu in self.spus:
            merged.update(spu.template_cycles)
        return merged

    @property
    def average_breakdown(self) -> TimeBreakdown:
        """Figure 5's "average SPU execution time" breakdown."""
        return TimeBreakdown.average([s.breakdown for s in self.spus])

    @property
    def average_pipeline_usage(self) -> float:
        """Figure 9 metric averaged over SPUs."""
        if not self.spus:
            return 0.0
        return sum(s.pipeline_usage for s in self.spus) / len(self.spus)

    def bucket_fractions(self) -> Mapping[str, float]:
        return self.average_breakdown.fractions()
