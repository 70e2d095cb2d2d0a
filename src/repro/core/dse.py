"""Distributed Scheduler Element.

One DSE per node (paper Sec. 2).  It receives FALLOC requests from the
LSEs (and the PPE), picks a target PE by workload-distribution policy,
and forwards an AllocFrame command to the chosen LSE.  It also keeps the
per-PE load estimate up to date from FrameFreed notifications, and — in
multi-node machines — forwards requests to the next node's DSE when its
own node's resources are exhausted ("forwarding it to other nodes when
internal resources are finished").

All DSEs plus all LSEs together form the DTA Distributed Scheduler.
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
    """The per-node workload distributor."""

    priority = 45
    node_id = 0  # overwritten per instance

    def __init__(
        self,
        name: str,
        node_id: int,
        spe_ids: list[int],
        config: DSEConfig,
        frames_per_lse: int,
        stats: SchedulerStats | None = None,
    ) -> None:
        super().__init__(name)
        self.node_id = node_id
        self.spe_ids = list(spe_ids)
        if not self.spe_ids:
            raise ValueError(f"{name}: a DSE needs at least one SPE")
        self.config = config
        self.frames_per_lse = frames_per_lse
        self.stats = stats if stats is not None else SchedulerStats()
        #: Estimated live+pending frames per SPE in this node.
        self.load: dict[int, int] = {s: 0 for s in self.spe_ids}
        self._queue: deque[Message] = deque()
        self._rr_next = 0
        self._bus = None
        self._machine: "Machine | None" = None
        self._next_dse = None  # ring neighbour for inter-node forwarding
        # Hub instruments (bound in _bind_metrics; None = observability off).
        self._m_routed = None
        self._m_forwarded = None

    def _bind_metrics(self, hub) -> None:
        self._m_routed = hub.counter(f"{self.name}.fallocs_routed")
        self._m_forwarded = hub.counter(f"{self.name}.fallocs_forwarded")

    def wire(self, bus, machine, next_dse=None) -> None:
        self._bus = bus
        self._machine = machine
        self._next_dse = next_dse

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

    # -- policy ---------------------------------------------------------------------

    def _pick_spe(self) -> int:
        if self.config.policy == "round-robin":
            spe = self.spe_ids[self._rr_next % len(self.spe_ids)]
            self._rr_next += 1
            return spe
        # least-loaded (ties broken by SPE id for determinism)
        return min(zip(map(self.load.__getitem__, self.spe_ids), self.spe_ids))[1]

    def _node_full(self) -> bool:
        return all(self.load[s] >= self.frames_per_lse for s in self.spe_ids)

    def _route(self, msg: FallocRequest) -> None:
        assert self._machine is not None
        if (
            self._next_dse is not None
            and self._node_full()
            and msg.hops < self._machine.num_nodes - 1
        ):
            # Internal resources exhausted: forward to the next node.
            fwd = FallocRequest(
                request_id=msg.request_id,
                requester_spe=msg.requester_spe,
                template_id=msg.template_id,
                sc=msg.sc,
                hops=msg.hops + 1,
            )
            self._bus.send(self, self._next_dse, fwd)
            if self._m_forwarded is not None:
                self._m_forwarded.add()
            self._trace("falloc-forwarded", requester=msg.requester_spe,
                        hops=msg.hops + 1)
            return
        spe = self._pick_spe()
        self.load[spe] += 1
        if self._m_routed is not None:
            self._m_routed.add()
        if self._tracer is not None:
            self._tracer.emit(self._engine._now, self.name, "falloc-routed",
                              spe=spe, requester=msg.requester_spe)
        self._bus.send(
            self,
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
