"""Power Processing Element.

The PPE "is used to initiate the DTA TLP activities" (paper Sec. 4.1):
it walks the activity's spawn list, FALLOCs each root thread through the
DSE, and stores the initial parameters into the returned frames.  It is
deliberately simple — the paper measures only what happens on the SPEs —
but it exercises the same scheduler message protocol the SPEs use, so
root spawning has realistic cost and ordering.
"""

from __future__ import annotations

import typing

from repro.core.messages import FallocRequest, FallocResponse, Message, StoreMsg
from repro.sim.component import Component

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.activity import TLPActivity

__all__ = ["PPE"]

#: Bus-directory id of the PPE (never a valid SPE index).
PPE_ID = -1

#: Cycles between successive PPE scheduler operations.
_ISSUE_LATENCY = 4


class PPE(Component):
    """Initiates TLP activities and then gets out of the way."""

    priority = 55

    def __init__(self, name: str = "ppe") -> None:
        Component.__init__(self, name)
        self._bus = None
        self._dse = None
        self._activity: "TLPActivity | None" = None
        self._spawn_index = 0
        self._pending_stores: list[tuple[int, int]] = []  # (slot, value)
        self._handle: int | None = None
        self._waiting_response = False
        self._seq = 0
        #: Handles of the root threads, in spawn order (for tests).
        self.spawned_handles: list[int] = []
        # Hub instruments (bound in _bind_metrics; None = observability off).
        self._m_spawns = None

    def _bind_metrics(self, hub) -> None:
        self._m_spawns = hub.counter("ppe.root_spawns")

    def wire(self, bus, dse) -> None:
        self._bus = bus
        self._dse = dse

    def load(self, activity: "TLPActivity") -> None:
        """Queue an activity for spawning; spawning starts at the next tick."""
        activity.validate()
        self._activity = activity
        self._spawn_index = 0
        self.spawned_handles.clear()
        self.wake()

    @property
    def done(self) -> bool:
        """True once every root spawn has been issued and parameterized."""
        return (
            self._activity is not None
            and self._spawn_index >= len(self._activity.spawns)
            and not self._pending_stores
            and not self._waiting_response
        )

    # -- bus endpoint --------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        if not isinstance(msg, FallocResponse):
            raise RuntimeError(f"{self.name}: unexpected {type(msg).__name__}")
        if not self._waiting_response:
            raise RuntimeError(f"{self.name}: unsolicited FALLOC response")
        self._handle = msg.handle
        self.spawned_handles.append(msg.handle)
        self._waiting_response = False
        self._machine.check_done()
        self.wake()

    # -- component ------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        if self._activity is None or self._waiting_response:
            return None
        if self._pending_stores:
            slot, value = self._pending_stores.pop(0)
            assert self._handle is not None
            self._bus.send(
                self._machine_endpoint_for(self._handle),
                StoreMsg(handle=self._handle, slot=slot, value=value),
            )
            self._machine.check_done()
            return now + _ISSUE_LATENCY
        if self._spawn_index < len(self._activity.spawns):
            spawn = self._activity.spawns[self._spawn_index]
            self._spawn_index += 1
            self._pending_stores = [
                (slot, self._activity.resolve(value, self.spawned_handles))
                for slot, value in sorted(spawn.stores.items())
            ]
            self._seq += 1
            self._waiting_response = True
            if self._m_spawns is not None:
                self._m_spawns.add()
            self._trace("root-spawn", template=spawn.template,
                        index=self._spawn_index - 1)
            self._bus.send(
                self._dse,
                FallocRequest(
                    request_id=(PPE_ID & 0xFF) << 24 | self._seq,
                    requester_spe=PPE_ID,
                    template_id=self._activity.template_id(spawn.template),
                    sc=spawn.sc,
                ),
            )
            return None  # resumes when the response arrives
        return None

    def _machine_endpoint_for(self, handle: int):
        from repro.core.frame import handle_pe

        return self._machine.directory[handle_pe(handle)]

    def attach_machine(self, machine) -> None:
        self._machine = machine

    def describe_state(self) -> str:
        total = len(self._activity.spawns) if self._activity else 0
        return (
            f"spawn {self._spawn_index}/{total}, "
            f"{len(self._pending_stores)} stores pending, "
            f"waiting_response={self._waiting_response}"
        )
