"""Distributed Scheduler Element.

The machine has one DSE (paper Sec. 4.1 evaluates one DTA node).  It
receives FALLOC requests from the LSEs (and the PPE), places each new
thread on the least-loaded SPE, and forwards an AllocFrame command to
that SPE's LSE.  It keeps the per-SPE load estimate up to date from
FrameFreed notifications.

The DSE plus all LSEs together form the DTA Distributed Scheduler.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.core.messages import AllocFrame, FallocRequest, FrameFreed, Message
from repro.sim.component import Component
from repro.sim.config import DSEConfig
from repro.sim.stats import SchedulerStats

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.machine import Machine

__all__ = ["DSE"]


class DSE(Component):
    """The workload distributor."""

    priority = 45

    def __init__(
        self,
        name: str,
        spe_ids: list[int],
        config: DSEConfig,
        stats: SchedulerStats | None = None,
    ) -> None:
        super().__init__(name)
        self.spe_ids = list(spe_ids)
        if not self.spe_ids:
            raise ValueError(f"{name}: a DSE needs at least one SPE")
        self.config = config
        self.stats = stats if stats is not None else SchedulerStats()
        #: Estimated live+pending frames per SPE.
        self.load: dict[int, int] = {s: 0 for s in self.spe_ids}
        self._queue: deque[Message] = deque()
        self._bus = None
        self._machine: "Machine | None" = None
        # Hub instrument (bound in _bind_metrics; None = observability off).
        self._m_routed = None

    def _bind_metrics(self, hub) -> None:
        self._m_routed = hub.counter(f"{self.name}.fallocs_routed")

    def wire(self, bus, machine) -> None:
        self._bus = bus
        self._machine = machine

    # -- bus endpoint ------------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        self._queue.append(msg)
        self._engine.schedule(self)

    # -- component ----------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        if not self._queue:
            return None
        msg = self._queue.popleft()
        self.stats.messages += 1
        if isinstance(msg, FallocRequest):
            self._route(msg)
        elif isinstance(msg, FrameFreed):
            if msg.spe_id in self.load:
                self.load[msg.spe_id] = max(0, self.load[msg.spe_id] - 1)
        else:
            raise RuntimeError(f"{self.name}: unexpected {type(msg).__name__}")
        return now + self.config.request_latency if self._queue else None

    # -- placement ------------------------------------------------------------------

    def _pick_spe(self) -> int:
        # Least-loaded, ties broken by SPE id for determinism.
        return min(zip(map(self.load.__getitem__, self.spe_ids), self.spe_ids))[1]

    def _route(self, msg: FallocRequest) -> None:
        assert self._machine is not None
        spe = self._pick_spe()
        self.load[spe] += 1
        if self._m_routed is not None:
            self._m_routed.add()
        if self._tracer is not None:
            self._tracer.emit(self._engine._now, self.name, "falloc-routed",
                              spe=spe, requester=msg.requester_spe)
        self._bus.send(
            self._machine.directory[spe],
            AllocFrame(
                request_id=msg.request_id,
                requester_spe=msg.requester_spe,
                template_id=msg.template_id,
                sc=msg.sc,
            ),
        )

    def describe_state(self) -> str:
        return f"{len(self._queue)} queued, load={self.load}"
