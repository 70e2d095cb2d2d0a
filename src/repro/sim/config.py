"""Machine configuration for the CellDTA reproduction.

The dataclasses below encode every architectural parameter used by the
simulator.  The defaults reproduce Tables 2, 3 and 4 of the paper:

* Table 2 — memory subsystem: main memory of 512 MB with a 150-cycle
  latency and a single port; a 156 kB Local Store with a 6-cycle latency
  and three ports.
* Table 4 — communication subsystem: four buses of 8 bytes/cycle each
  (the paper quotes 8.1 GB/s at 2.4 GHz for a single bus) and an MFC
  (DMA controller) with a 16-entry command queue and a 30-cycle command
  latency.
* Table 3 is the DMA command format (LS address, memory address, size,
  tag): the DMA opcodes in :mod:`repro.isa.opcodes`, their rows in
  :mod:`repro.isa.decoded`, and :meth:`repro.cell.mfc.MFC.enqueue`.

Everything is a plain frozen dataclass so configurations hash, compare and
serialize trivially, and so that an experiment can never mutate the machine
description of another experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan

__all__ = [
    "MainMemoryConfig",
    "LocalStoreConfig",
    "BusConfig",
    "MFCConfig",
    "SPUConfig",
    "CacheConfig",
    "LSEConfig",
    "DSEConfig",
    "WatchdogConfig",
    "MachineConfig",
    "paper_config",
    "latency1_config",
    "cached_config",
]

KIB = 1024
MIB = 1024 * KIB

#: Size in bytes of one machine word.  The paper's bandwidth argument relies
#: on a scalar READ moving 4 bytes while the network moves 32 bytes/cycle.
WORD_SIZE = 4


@dataclass(frozen=True)
class MainMemoryConfig:
    """Off-chip main memory (Table 2, "Main memory")."""

    #: Total capacity in bytes (address-space bound; storage is sparse).
    size: int = 512 * MIB
    #: Access latency in cycles from request acceptance to response.
    latency: int = 150
    #: Number of request ports; each port accepts one request per cycle.
    ports: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"main memory size must be positive, got {self.size}")
        if self.latency < 1:
            raise ValueError(f"main memory latency must be >= 1, got {self.latency}")
        if self.ports < 1:
            raise ValueError(f"main memory needs >= 1 port, got {self.ports}")


@dataclass(frozen=True)
class LocalStoreConfig:
    """Per-SPE Local Store (Table 2, "Local Store").

    The LS holds thread code (not modeled as storage), the frame region and
    the prefetch buffer region.  ``frame_region`` bytes are reserved for
    frames; the remainder is the prefetch heap.
    """

    size: int = 156 * KIB
    latency: int = 6
    ports: int = 3
    #: Bytes reserved for thread frames (the rest backs prefetch buffers).
    frame_region: int = 64 * KIB

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"local store size must be positive, got {self.size}")
        if self.latency < 1:
            raise ValueError(f"local store latency must be >= 1, got {self.latency}")
        if self.ports < 1:
            raise ValueError(f"local store needs >= 1 port, got {self.ports}")
        if not 0 < self.frame_region < self.size:
            raise ValueError(
                f"frame region must fit inside the local store "
                f"(got {self.frame_region} of {self.size})"
            )

    @property
    def prefetch_region(self) -> int:
        """Bytes available to the prefetch-buffer allocator."""
        return self.size - self.frame_region


@dataclass(frozen=True)
class BusConfig:
    """Element-interconnect bus (Table 4, "Bus")."""

    #: Number of independent buses; transfers are assigned round-robin.
    num_buses: int = 4
    #: Payload bytes each bus moves per cycle.
    bytes_per_cycle: int = 8
    #: Fixed per-message arbitration/propagation latency in cycles.
    arbitration_latency: int = 1

    def __post_init__(self) -> None:
        if self.num_buses < 1:
            raise ValueError(f"need >= 1 bus, got {self.num_buses}")
        if self.bytes_per_cycle < 1:
            raise ValueError(
                f"bus width must be >= 1 byte/cycle, got {self.bytes_per_cycle}"
            )
        if self.arbitration_latency < 0:
            raise ValueError(
                f"arbitration latency must be >= 0, got {self.arbitration_latency}"
            )

    @property
    def total_bandwidth(self) -> int:
        """Aggregate bytes per cycle across all buses."""
        return self.num_buses * self.bytes_per_cycle


@dataclass(frozen=True)
class MFCConfig:
    """Memory Flow Controller / DMA engine (Table 4, "MFC")."""

    #: DMA command queue depth; a full queue back-pressures the SPU.
    command_queue_size: int = 16
    #: Cycles the MFC spends decoding a command before issuing transfers.
    command_latency: int = 30
    #: Largest single bus transfer the MFC issues; bigger DMAs are split.
    max_transfer_size: int = 128

    def __post_init__(self) -> None:
        if self.command_queue_size < 1:
            raise ValueError(
                f"MFC queue must hold >= 1 command, got {self.command_queue_size}"
            )
        if self.command_latency < 0:
            raise ValueError(
                f"MFC command latency must be >= 0, got {self.command_latency}"
            )
        if self.max_transfer_size < WORD_SIZE:
            raise ValueError(
                f"MFC max transfer must be >= {WORD_SIZE}, got {self.max_transfer_size}"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Optional per-SPE data cache for scalar main-memory accesses.

    Disabled by default — CellDTA has no cache (the paper's Sec. 4.3
    bounds a perfect one with latency-1 runs instead); enabling it lets
    the cache-vs-prefetch comparison be run directly (ablation A8).
    """

    enabled: bool = False
    size_bytes: int = 8 * KIB
    line_bytes: int = 64
    ways: int = 2
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise ValueError(
                f"cache size must be a positive line multiple, got "
                f"{self.size_bytes}"
            )
        if self.line_bytes < 4 or self.line_bytes % 4:
            raise ValueError(
                f"line size must be a word multiple >= 4, got {self.line_bytes}"
            )
        if self.ways < 1:
            raise ValueError(f"need >= 1 way, got {self.ways}")
        if self.hit_latency < 1:
            raise ValueError(f"hit latency must be >= 1, got {self.hit_latency}")
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.ways)


@dataclass(frozen=True)
class SPUConfig:
    """Synergistic Processing Unit pipeline model.

    The SPU is an in-order, dual-issue core (paper: "two instructions in
    each cycle (one memory and one calculation)"): at most one
    memory-class and one compute/control-class instruction issue per
    cycle, in program order, with no branch prediction, caches or reorder
    buffer.
    """

    #: Extra cycles charged when a branch is taken (no branch prediction).
    branch_taken_penalty: int = 3
    #: Architectural register count.
    num_registers: int = 128
    #: Depth of the posted-write queue for main-memory WRITEs.
    store_queue_size: int = 8

    def __post_init__(self) -> None:
        if self.branch_taken_penalty < 0:
            raise ValueError(
                f"branch penalty must be >= 0, got {self.branch_taken_penalty}"
            )
        if self.num_registers < 8:
            raise ValueError(f"need >= 8 registers, got {self.num_registers}")
        if self.store_queue_size < 1:
            raise ValueError(
                f"store queue must hold >= 1 entry, got {self.store_queue_size}"
            )


@dataclass(frozen=True)
class LSEConfig:
    """Local Scheduler Element.

    ``dual_pipelines`` models the SP/XP split of the original DTA LSE that
    lets DMA programming overlap thread execution (the paper notes CellDTA
    does *not* have it yet — so it defaults to off and is exercised by
    ablation A2).  ``virtual_frame_pointers`` models the DTA-C feature the
    paper cites as a fix for bitcnt's LSE stalls (ablation A3).
    """

    #: Frames each LSE manages (bounded by the LS frame region).
    num_frames: int = 64
    #: Words per frame.
    frame_size_words: int = 32
    #: Cycles the LSE needs to process one request.
    request_latency: int = 2
    #: Enable the SP/XP dual pipelines (overlaps DMA programming).
    dual_pipelines: bool = False
    #: Enable virtual frame pointers (decouples FALLOC from physical frames).
    virtual_frame_pointers: bool = False
    #: Pending FALLOCs a virtual-frame LSE may hold beyond physical frames.
    virtual_frame_depth: int = 256

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise ValueError(f"need >= 1 frame, got {self.num_frames}")
        if self.frame_size_words < 1:
            raise ValueError(
                f"frame size must be >= 1 word, got {self.frame_size_words}"
            )
        if self.request_latency < 1:
            raise ValueError(
                f"LSE request latency must be >= 1, got {self.request_latency}"
            )
        if self.virtual_frame_depth < 1:
            raise ValueError(
                f"virtual frame depth must be >= 1, got {self.virtual_frame_depth}"
            )

    @property
    def frame_size_bytes(self) -> int:
        return self.frame_size_words * WORD_SIZE


@dataclass(frozen=True)
class DSEConfig:
    """Distributed Scheduler Element (one per machine)."""

    #: Cycles the DSE needs to process one request.
    request_latency: int = 2

    def __post_init__(self) -> None:
        if self.request_latency < 1:
            raise ValueError(
                f"DSE request latency must be >= 1, got {self.request_latency}"
            )


@dataclass(frozen=True)
class WatchdogConfig:
    """Progress watchdog (see :mod:`repro.sim.watchdog`).

    Enabled by default: the watchdog is pure observation — it never
    perturbs component timing — and turns a run that would silently burn
    to ``max_cycles`` into a rich :class:`~repro.sim.watchdog.SimulationLivelock`
    report as soon as forward progress (threads retired + instructions
    committed) stops for ``stall_cycles``.
    """

    enabled: bool = True
    #: Cycles between progress samples (each sample is one engine event).
    interval: int = 5_000
    #: Raise when no forward progress for this many cycles.  Must dwarf
    #: any legitimate stall (memory latency is ~150 cycles).
    stall_cycles: int = 200_000

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(
                f"watchdog interval must be >= 1 cycle, got {self.interval}"
            )
        if self.stall_cycles < self.interval:
            raise ValueError(
                f"watchdog stall_cycles ({self.stall_cycles}) must be >= "
                f"its sampling interval ({self.interval})"
            )


@dataclass(frozen=True)
class MachineConfig:
    """Complete CellDTA machine description: one DTA node (Sec. 4.1)."""

    #: Number of SPEs (paper sweeps 1..8).
    num_spes: int = 8
    main_memory: MainMemoryConfig = field(default_factory=MainMemoryConfig)
    local_store: LocalStoreConfig = field(default_factory=LocalStoreConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    mfc: MFCConfig = field(default_factory=MFCConfig)
    spu: SPUConfig = field(default_factory=SPUConfig)
    lse: LSEConfig = field(default_factory=LSEConfig)
    dse: DSEConfig = field(default_factory=DSEConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Deterministic fault plan (inert by default; see :mod:`repro.faults`).
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Opt-in invariant sanitizer (see :mod:`repro.sim.sanitize`).
    sanitize: bool = False
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)

    def __post_init__(self) -> None:
        if self.num_spes < 1:
            raise ValueError(f"need >= 1 SPE, got {self.num_spes}")
        frame_bytes = self.lse.num_frames * self.lse.frame_size_bytes
        if frame_bytes > self.local_store.frame_region:
            raise ValueError(
                f"{self.lse.num_frames} frames of {self.lse.frame_size_bytes} B "
                f"({frame_bytes} B) exceed the {self.local_store.frame_region} B "
                f"frame region of the local store"
            )

    def replace(self, **changes: object) -> "MachineConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def with_latency(self, latency: int) -> "MachineConfig":
        """Return a copy whose main-memory latency is ``latency`` cycles."""
        return self.replace(
            main_memory=dataclasses.replace(self.main_memory, latency=latency)
        )

    def with_spes(self, num_spes: int) -> "MachineConfig":
        """Return a copy with ``num_spes`` SPEs."""
        return self.replace(num_spes=num_spes)

    def with_faults(self, faults: "FaultPlan | str") -> "MachineConfig":
        """Return a copy running under ``faults`` (a plan or CLI spec)."""
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        return self.replace(faults=faults)


def cached_config(num_spes: int = 8) -> MachineConfig:
    """The paper's machine plus an enabled per-SPE data cache (A8)."""
    return MachineConfig(num_spes=num_spes, cache=CacheConfig(enabled=True))


def paper_config(num_spes: int = 8) -> MachineConfig:
    """The configuration of the paper's main experiments.

    Memory latency 150 cycles, 156 kB local stores, four 8 B/cycle buses,
    MFC with a 16-entry queue and a 30-cycle command latency (Tables 2/4).
    """
    return MachineConfig(num_spes=num_spes)


def latency1_config(num_spes: int = 8) -> MachineConfig:
    """The paper's "cache always hits" bound: every latency set to 1 cycle.

    Section 4.3 sets *all* memory latencies in the system to one cycle to
    model a perfect cache, keeping everything else unchanged.
    """
    base = MachineConfig(num_spes=num_spes)
    return base.replace(
        main_memory=dataclasses.replace(base.main_memory, latency=1),
        local_store=dataclasses.replace(base.local_store, latency=1),
    )
