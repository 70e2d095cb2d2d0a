"""Per-SPE Local Store and the prefetch-buffer allocator.

The Local Store (Table 2: 156 kB, 6-cycle latency, 3 ports) holds, per
the paper's Sec. 4.1, "the code of DTA threads" (not modeled as storage),
"the frames that are needed locally" (the frame region) and "the data
that was prefetched from the main memory" (the prefetch region).

The LS itself is passive storage with a per-cycle port budget; timing is
charged by its users (the SPU scoreboard and the MFC write engine) via
:meth:`LocalStore.reserve_port`.  :class:`LSAllocator` is the first-fit
free-list allocator behind the LSALLOC instruction; buffers are owned by
a thread and released in bulk when the thread STOPs.
"""

from __future__ import annotations

import bisect

from repro.sim.config import LocalStoreConfig

__all__ = ["LocalStore", "LSAllocator", "LocalStoreFault", "AllocationError"]

#: Cycles whose port bookings :meth:`LocalStore.reserve_port` keeps before
#: it drops those of past cycles.
PORT_HISTORY = 4096


class LocalStoreFault(RuntimeError):
    """An out-of-range or misaligned Local Store access."""


class AllocationError(RuntimeError):
    """The prefetch region cannot satisfy an allocation (caller may retry)."""


class LocalStore:
    """Word-addressable scratchpad with a per-cycle port budget."""

    def __init__(self, config: LocalStoreConfig) -> None:
        self.config = config
        self._words = [0] * (config.size // 4)
        #: cycle -> ports already reserved that cycle (pruned lazily).
        self._ports_used: dict[int, int] = {}

    # -- storage ------------------------------------------------------------

    def _index(self, addr: int) -> int:
        if addr % 4:
            raise LocalStoreFault(f"unaligned LS access at {addr:#x}")
        if not 0 <= addr < self.config.size:
            raise LocalStoreFault(
                f"LS access at {addr:#x} outside 0..{self.config.size:#x}"
            )
        return addr >> 2

    def read_word(self, addr: int) -> int:
        if addr & 3 or not 0 <= addr < self.config.size:
            self._index(addr)  # raises the fault
        return self._words[addr >> 2]

    def write_word(self, addr: int, value: int) -> None:
        if addr & 3 or not 0 <= addr < self.config.size:
            self._index(addr)  # raises the fault
        self._words[addr >> 2] = value

    def write_block(self, addr: int, values: "tuple[int, ...] | list[int]") -> None:
        start = self._index(addr)
        end = start + len(values)
        if end > len(self._words):
            raise LocalStoreFault(
                f"LS block write of {len(values)} words at {addr:#x} overflows"
            )
        self._words[start:end] = list(values)

    def read_block(self, addr: int, words: int) -> list[int]:
        start = self._index(addr)
        return self._words[start : start + words]

    # -- ports ---------------------------------------------------------------

    def reserve_port(self, cycle: int) -> bool:
        """Try to reserve one of the LS ports for ``cycle``.

        Returns False when all ports are taken that cycle (the caller
        stalls and retries).  Old reservations are pruned opportunistically.
        """
        used = self._ports_used.get(cycle, 0)
        if used >= self.config.ports:
            return False
        self._ports_used[cycle] = used + 1
        if len(self._ports_used) > PORT_HISTORY:
            self._ports_used = {
                c: n for c, n in self._ports_used.items() if c >= cycle
            }
        return True

    def ports_booked(self, cycle: int) -> int:
        """Ports already reserved for ``cycle``."""
        return self._ports_used.get(cycle, 0)

    def next_free_port_cycle(self, cycle: int) -> int:
        """First cycle >= ``cycle`` with a free port."""
        c = cycle
        while self._ports_used.get(c, 0) >= self.config.ports:
            c += 1
        return c


class LSAllocator:
    """First-fit allocator over the LS prefetch region.

    Keeps a sorted list of free extents ``(addr, size)``.  Allocations are
    rounded up to 16-byte lines (DMA-friendly); frees coalesce neighbours.
    """

    GRANULE = 16

    def __init__(self, base: int, size: int) -> None:
        if base % 4 or size % 4:
            raise ValueError("allocator region must be word-aligned")
        if size <= 0:
            raise ValueError(f"allocator region must be non-empty, got {size}")
        self.base = base
        self.size = size
        self._free: list[tuple[int, int]] = [(base, size)]  # sorted by addr
        self.allocated_bytes = 0
        self.high_watermark = 0

    @staticmethod
    def _round(size: int) -> int:
        g = LSAllocator.GRANULE
        return ((size + g - 1) // g) * g

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; raises :class:`AllocationError` if full."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        need = self._round(size)
        for i, (addr, extent) in enumerate(self._free):
            if extent >= need:
                if extent == need:
                    del self._free[i]
                else:
                    self._free[i] = (addr + need, extent - need)
                self.allocated_bytes += need
                self.high_watermark = max(self.high_watermark, self.allocated_bytes)
                return addr
        raise AllocationError(
            f"cannot allocate {need} B from prefetch region "
            f"({self.size - self.allocated_bytes} B free, fragmented into "
            f"{len(self._free)} extents)"
        )

    def free(self, addr: int, size: int) -> None:
        """Release a previously-allocated extent, coalescing neighbours."""
        need = self._round(size)
        if not self.base <= addr < self.base + self.size:
            raise ValueError(f"free of {addr:#x} outside the prefetch region")
        i = bisect.bisect_left(self._free, (addr, 0))
        # Overlap checks against neighbours.
        if i < len(self._free) and self._free[i][0] < addr + need:
            raise ValueError(f"double free / overlap at {addr:#x}")
        if i > 0:
            paddr, psize = self._free[i - 1]
            if paddr + psize > addr:
                raise ValueError(f"double free / overlap at {addr:#x}")
        self._free.insert(i, (addr, need))
        self.allocated_bytes -= need
        # Coalesce with successor then predecessor.
        if i + 1 < len(self._free):
            naddr, nsize = self._free[i + 1]
            caddr, csize = self._free[i]
            if caddr + csize == naddr:
                self._free[i] = (caddr, csize + nsize)
                del self._free[i + 1]
        if i > 0:
            paddr, psize = self._free[i - 1]
            caddr, csize = self._free[i]
            if paddr + psize == caddr:
                self._free[i - 1] = (paddr, psize + csize)
                del self._free[i]

    @property
    def free_bytes(self) -> int:
        return self.size - self.allocated_bytes

    def can_alloc(self, size: int) -> bool:
        need = self._round(size)
        return any(extent >= need for _, extent in self._free)
