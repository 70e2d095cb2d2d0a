"""The CellDTA machine model: SPEs, bus, memory, MFC, PPE, machine."""

from repro.cell.bus import Bus
from repro.cell.local_store import (
    AllocationError,
    LocalStore,
    LocalStoreFault,
    LSAllocator,
)
from repro.cell.machine import Machine, RunResult, run_activity
from repro.cell.main_memory import MainMemory, MemoryFault
from repro.cell.mfc import MFC, DmaCommand, DmaKind
from repro.cell.ppe import PPE
from repro.cell.spe import SPE
from repro.cell.spu import SPU, SpuFault

__all__ = [
    "Machine",
    "RunResult",
    "run_activity",
    "Bus",
    "MainMemory",
    "MemoryFault",
    "LocalStore",
    "LSAllocator",
    "LocalStoreFault",
    "AllocationError",
    "MFC",
    "DmaKind",
    "DmaCommand",
    "PPE",
    "SPE",
    "SPU",
    "SpuFault",
]
