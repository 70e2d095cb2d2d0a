"""Optional per-SPE data cache for scalar main-memory accesses.

The paper (Sec. 4.3): "our simulator does not yet include the cache
module (still under development), we performed another set of
experiments by setting all memory latencies in the system to one cycle
... Considering that prefetching introduces a little overhead, this
indicates that this prefetching scheme can almost eliminate the need for
caches."

This module *is* that missing cache, so the claim can be tested directly
instead of bounded: a set-associative, write-through/no-write-allocate
cache in front of each SPU's scalar READ/WRITE path (DMA traffic
deliberately bypasses it, as MFC transfers do on real hardware).

Coherence: there is none — exactly like the Local Store itself, the
cache relies on DTA's race-free discipline (inputs are read-only during
an activity; every output word has one writer).  Write-through keeps
main memory authoritative, so DMA and other SPEs always observe
completed scalar writes.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.core.messages import CacheFillRequest, CacheFillResponse
from repro.sim.component import Component
from repro.sim.config import CacheConfig
from repro.sim.engine import Callback, register_callback

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.main_memory import MainMemory

__all__ = ["DataCache", "CacheStats"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    write_through: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Line:
    tag: int
    words: list[int]
    last_used: int = 0


class DataCache(Component):
    """One SPU's data cache (event-driven; never self-ticks)."""

    priority = 35

    def __init__(
        self,
        name: str,
        spe_id: int,
        config: CacheConfig,
        stats: CacheStats | None = None,
    ) -> None:
        super().__init__(name)
        self.spe_id = spe_id
        self.config = config
        self.stats = stats if stats is not None else CacheStats()
        self._sets: list[list[_Line]] = [
            [] for _ in range(config.num_sets)
        ]
        self._use_clock = 0
        #: addr of the line being filled -> (line_base, on_value, word_addr)
        self._pending_fill: "tuple[int, object, int] | None" = None
        self._bus = None
        self._memory: "MainMemory | None" = None

    def wire(self, bus, memory) -> None:
        self._bus = bus
        self._memory = memory

    # -- indexing -----------------------------------------------------------

    def _split(self, addr: int) -> tuple[int, int, int]:
        """(tag, set index, word offset) of a byte address."""
        line = self.config.line_bytes
        base = addr - (addr % line)
        index = (base // line) % self.config.num_sets
        tag = base // line // self.config.num_sets
        return tag, index, (addr - base) // 4

    def _find(self, addr: int) -> "_Line | None":
        tag, index, _ = self._split(addr)
        for line in self._sets[index]:
            if line.tag == tag:
                self._use_clock += 1
                line.last_used = self._use_clock
                return line
        return None

    def _install(self, addr: int, words: list[int]) -> _Line:
        tag, index, _ = self._split(addr)
        ways = self._sets[index]
        if len(ways) >= self.config.ways:
            # Evict the least-recently-used way (write-through: no dirty
            # data to write back).
            ways.sort(key=lambda l: l.last_used)
            ways.pop(0)
        self._use_clock += 1
        line = _Line(tag=tag, words=list(words), last_used=self._use_clock)
        ways.append(line)
        self.stats.fills += 1
        return line

    # -- SPU-facing API ------------------------------------------------------------

    def read(self, addr: int, on_value) -> "int | None":
        """Scalar READ through the cache.

        On a hit, returns the hit latency (caller blocks that long and
        then uses the value passed to ``on_value`` immediately).  On a
        miss, returns ``None`` — the line fetch is in flight and
        ``on_value(value)`` fires when it lands.
        """
        line = self._find(addr)
        _, _, word = self._split(addr)
        if line is not None:
            self.stats.hits += 1
            value = line.words[word]
            self.engine.call_at(
                self.now + self.config.hit_latency,
                Callback("cache.hit", self, (on_value, value)),
            )
            return self.config.hit_latency
        self.stats.misses += 1
        if self._pending_fill is not None:
            raise RuntimeError(
                f"{self.name}: second outstanding miss (the SPU blocks on "
                f"READs, so this cannot happen)"
            )
        line_base = addr - (addr % self.config.line_bytes)
        self._pending_fill = (line_base, on_value, addr)
        self._bus.send(
            self._memory,
            CacheFillRequest(
                addr=line_base,
                size=self.config.line_bytes,
                requester_spe=self.spe_id,
            ),
        )
        return None

    def write(self, addr: int, value: int) -> None:
        """Write-through update (no allocate): keep a present line fresh."""
        line = self._find(addr)
        if line is not None:
            _, _, word = self._split(addr)
            line.words[word] = value
        self.stats.write_through += 1

    # -- bus endpoint (routed via the SPE) ----------------------------------------

    def deliver(self, msg: CacheFillResponse) -> None:
        pending = self._pending_fill
        if pending is None or pending[0] != msg.addr:
            raise RuntimeError(f"{self.name}: unexpected fill for {msg.addr:#x}")
        line_base, on_value, word_addr = pending
        self._pending_fill = None
        line = self._install(line_base, list(msg.words))
        _, _, word = self._split(word_addr)
        on_value(line.words[word])

    def tick(self, now: int) -> int | None:  # pragma: no cover - passive
        return None

    def _deliver_hit(self, on_value, value: int) -> None:
        """Complete a hit after the hit latency has elapsed."""
        on_value(value)

    def describe_state(self) -> str:
        return (
            f"{self.stats.hits} hits / {self.stats.misses} misses, "
            f"pending fill: {self._pending_fill is not None}"
        )


register_callback("cache.hit", DataCache._deliver_hit)
