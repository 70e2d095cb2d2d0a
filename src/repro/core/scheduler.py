"""Distributed Scheduler facade: whole-machine scheduling snapshots.

The DTA *Distributed Scheduler* (paper Sec. 2: "DSEs from all nodes,
together with all LSEs, constitute the (hardware) Distributed Scheduler")
is physically spread over every SPE.  This module provides the aggregate
view of it — a :class:`SchedulerSnapshot` capturing, at one instant,
every LSE's frame occupancy, ready-queue depth, live threads by state,
DMA tags in flight and the DSE's load estimates.

Snapshots power debugging (they render compactly), tests (asserting
system-wide invariants like "every live thread is tracked by exactly one
LSE") and capacity analysis (peak frame occupancy across a run).
"""

from __future__ import annotations

import typing
from collections import Counter
from dataclasses import dataclass, field

from repro.core.thread import ThreadState

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.machine import Machine

__all__ = ["LSEView", "DSEView", "SchedulerSnapshot"]


@dataclass(frozen=True)
class LSEView:
    """One LSE's scheduling state at the capture instant."""

    spe_id: int
    frames_total: int
    frames_free: int
    ready: int
    live_threads: int
    threads_by_state: dict[str, int]
    pending_allocs: int
    virtual_threads: int
    dma_commands_outstanding: int
    prefetch_bytes_allocated: int

    @property
    def frames_used(self) -> int:
        return self.frames_total - self.frames_free


@dataclass(frozen=True)
class DSEView:
    """The DSE's load estimates at the capture instant."""

    load: dict[int, int]
    queued_requests: int


@dataclass(frozen=True)
class SchedulerSnapshot:
    """The whole Distributed Scheduler, at one simulated instant."""

    cycle: int
    lses: tuple[LSEView, ...]
    dse: DSEView
    threads_created: int
    threads_completed: int

    @staticmethod
    def capture(machine: "Machine") -> "SchedulerSnapshot":
        lses = []
        for spe in machine.spes:
            lse = spe.lse
            states = Counter(
                t.state.value for t in lse.threads.values()
            )
            lses.append(
                LSEView(
                    spe_id=spe.spe_id,
                    frames_total=lse.config.num_frames,
                    frames_free=lse.free_frame_count,
                    ready=len(lse._ready),
                    live_threads=lse.live_threads,
                    threads_by_state=dict(states),
                    pending_allocs=len(lse._pending_allocs),
                    virtual_threads=len(lse._virtual),
                    dma_commands_outstanding=sum(
                        lse._dma_outstanding.values()
                    ),
                    prefetch_bytes_allocated=lse.allocator.allocated_bytes,
                )
            )
        dse = machine.dse
        return SchedulerSnapshot(
            cycle=machine.engine.now,
            lses=tuple(lses),
            dse=DSEView(load=dict(dse.load), queued_requests=len(dse._queue)),
            threads_created=machine.threads_created,
            threads_completed=machine.threads_completed,
        )

    # -- aggregates ----------------------------------------------------------

    @property
    def live_threads(self) -> int:
        return sum(v.live_threads for v in self.lses)

    @property
    def ready_threads(self) -> int:
        return sum(v.ready for v in self.lses)

    @property
    def frames_used(self) -> int:
        return sum(v.frames_used for v in self.lses)

    @property
    def waiting_dma(self) -> int:
        return sum(
            v.threads_by_state.get(ThreadState.WAIT_DMA.value, 0)
            for v in self.lses
        )

    def check_invariants(self) -> list[str]:
        """System-wide consistency checks; returns violations (ideally [])."""
        problems: list[str] = []
        if self.live_threads != self.threads_created - self.threads_completed:
            problems.append(
                f"live threads ({self.live_threads}) != created - completed "
                f"({self.threads_created} - {self.threads_completed})"
            )
        for view in self.lses:
            physical = view.live_threads - view.virtual_threads
            if physical > view.frames_used:
                problems.append(
                    f"LSE {view.spe_id}: {physical} physical threads but "
                    f"only {view.frames_used} frames in use"
                )
            if view.ready > view.live_threads:
                problems.append(
                    f"LSE {view.spe_id}: more ready entries than live threads"
                )
        return problems

    def format(self) -> str:
        lines = [
            f"scheduler @ cycle {self.cycle}: "
            f"{self.live_threads} live ({self.ready_threads} ready, "
            f"{self.waiting_dma} waiting for DMA), "
            f"{self.threads_completed}/{self.threads_created} done"
        ]
        for v in self.lses:
            lines.append(
                f"  lse{v.spe_id}: frames {v.frames_used}/{v.frames_total}, "
                f"ready {v.ready}, live {v.live_threads}, "
                f"dma {v.dma_commands_outstanding}, "
                f"heap {v.prefetch_bytes_allocated}B"
            )
        lines.append(f"  dse: load {self.dse.load}")
        return "\n".join(lines)
