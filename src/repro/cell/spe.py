"""Synergistic Processing Element: SPU + Local Store + MFC + LSE.

The SPE is the unit of replication in CellDTA (paper Sec. 4.1: "each SPE
contains a SPU which executes code, Local Store and a MFC"; "we have added
... one LSE to each SPE").  It owns the shared Local Store and acts as the
single bus endpoint for everything inside it, routing incoming messages to
the right sub-unit.
"""

from __future__ import annotations

from repro.cell.cache import CacheStats, DataCache
from repro.cell.local_store import LocalStore
from repro.cell.mfc import MFC
from repro.cell.spu import SPU
from repro.core.lse import LSE
from repro.core.messages import (
    AllocFrame,
    CacheFillResponse,
    DmaReadResponse,
    FallocResponse,
    FFreeMsg,
    Message,
    ReadResponse,
    StoreMsg,
    WriteAck,
)
from repro.sim.config import MachineConfig
from repro.sim.stats import MFCStats, SchedulerStats, SpuStats

__all__ = ["SPE"]

#: Message types an SPE routes to its LSE.
_LSE_MESSAGES = frozenset({StoreMsg, AllocFrame, FallocResponse, FFreeMsg})


class SPE:
    """One synergistic processing element."""

    def __init__(self, spe_id: int, config: MachineConfig) -> None:
        self.spe_id = spe_id
        self.config = config
        self.ls = LocalStore(config.local_store)
        self.spu_stats = SpuStats()
        self.mfc_stats = MFCStats()
        self.lse_stats = SchedulerStats()
        self.spu = SPU(
            f"spu{spe_id}", spe_id, config.spu, config, self.ls, self.spu_stats
        )
        self.mfc = MFC(f"mfc{spe_id}", spe_id, config.mfc, self.ls, self.mfc_stats)
        self.lse = LSE(
            f"lse{spe_id}", spe_id, config.lse, config, self.ls, self.lse_stats
        )
        self.cache_stats = CacheStats()
        self.cache = (
            DataCache(f"cache{spe_id}", spe_id, config.cache, self.cache_stats)
            if config.cache.enabled
            else None
        )

    def register(self, engine) -> None:
        engine.register(self.spu)
        engine.register(self.mfc)
        engine.register(self.lse)
        if self.cache is not None:
            engine.register(self.cache)

    def wire(self, bus, memory, dse, machine, injector=None,
             sanitizer=None) -> None:
        self.spu.wire(lse=self.lse, mfc=self.mfc, bus=bus, memory=memory,
                      cache=self.cache, injector=injector,
                      sanitizer=sanitizer)
        self.mfc.wire(bus=bus, memory=memory, lse=self.lse,
                      injector=injector, sanitizer=sanitizer)
        if self.cache is not None:
            self.cache.wire(bus=bus, memory=memory)
        self.lse.wire(bus=bus, dse=dse, spu=self.spu, mfc=self.mfc,
                      machine=machine, sanitizer=sanitizer,
                      injector=injector)

    # -- bus endpoint routing -----------------------------------------------

    def deliver(self, msg: Message) -> None:
        kind = type(msg)
        if kind is ReadResponse:
            self.spu.unblock(msg.value)  # the blocking READ's datum
        elif kind is WriteAck:
            self.spu.write_ack()
        elif kind is DmaReadResponse:
            self.mfc.deliver(msg)
        elif kind in _LSE_MESSAGES:
            self.lse.deliver(msg)
        elif kind is CacheFillResponse:
            assert self.cache is not None
            self.cache.deliver(msg)
        else:
            raise RuntimeError(
                f"SPE {self.spe_id}: cannot route {type(msg).__name__}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SPE {self.spe_id}>"
