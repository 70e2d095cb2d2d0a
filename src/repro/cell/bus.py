"""Element interconnect bus.

The Cell EIB is modeled as ``num_buses`` parallel channels of
``bytes_per_cycle`` each (Table 4: four buses of 8 bytes/cycle).  A
transfer occupies one channel for ``ceil(size / width)`` cycles plus a
fixed arbitration latency; queued transfers are granted to free channels
in FIFO order, which approximates the EIB's round-robin arbitration while
staying deterministic.

Endpoints are any object with a ``deliver(msg)`` method and a ``node_id``
attribute; transfers whose source and destination sit on different DTA
nodes pay the configured inter-node latency on top (paper Sec. 2: "the
communication between nodes is slower as we rely on a more complex
interconnection network").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.messages import Message, StoreMsg
from repro.faults.integrity import flip_word_bit, store_check
from repro.sim.component import Component
from repro.sim.config import BusConfig
from repro.sim.engine import Callback, register_callback
from repro.sim.stats import BusStats

__all__ = ["Bus", "BusEndpoint"]


class BusEndpoint:
    """Mixin giving a component a bus address."""

    node_id: int = 0

    def deliver(self, msg: Message) -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(slots=True)
class _Transfer:
    src_node: int
    dst: BusEndpoint
    msg: Message
    enqueued_at: int
    #: Per-bus sequence number; makes delivery idempotent under injected
    #: duplicates and lets the sanitizer verify exactly-once delivery.
    seq: int = 0


class Bus(Component):
    """The shared interconnect for scheduler messages, memory and DMA traffic."""

    priority = 10  # move data before pipelines consume it

    def __init__(
        self,
        name: str,
        config: BusConfig,
        inter_node_latency: int = 0,
        stats: BusStats | None = None,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.inter_node_latency = inter_node_latency
        self.stats = stats if stats is not None else BusStats()
        self._queue: deque[_Transfer] = deque()
        #: Cycle each channel becomes free.
        self._channel_free = [0] * config.num_buses
        self._next_seq = 0
        #: Sequence numbers granted a channel but not yet delivered; a
        #: delivery whose seq is absent is a duplicate and is absorbed.
        self._undelivered: set[int] = set()
        self._injector = None  # optional FaultInjector
        self._sanitizer = None  # optional Sanitizer
        # Hub instruments (bound in _bind_metrics; None = observability off).
        self._m_busy = None
        self._m_bytes = None
        self._g_backlog = None

    def attach_faults(self, injector=None, sanitizer=None) -> None:
        """Wire the machine's fault injector / sanitizer (both optional)."""
        self._injector = injector
        self._sanitizer = sanitizer

    def _bind_metrics(self, hub) -> None:
        self._m_busy = hub.bucket_series("bus.busy_cycles")
        self._m_bytes = hub.bucket_series("bus.bytes")
        self._g_backlog = hub.gauge("bus.backlog")

    # -- API ------------------------------------------------------------------

    def send(self, src: "BusEndpoint | None", dst: BusEndpoint, msg: Message) -> None:
        """Enqueue ``msg`` for delivery to ``dst``.

        ``src`` may be ``None`` for host-originated traffic (treated as
        node 0).
        """
        inj = self._injector
        if (inj is not None and inj.plan.data_active
                and type(msg) is StoreMsg):
            # Stamp the integrity check code as the message enters the
            # bus — the one point every frame store (LSE or PPE) passes —
            # so corruption in transit is detectable at the LSE commit
            # boundary.
            msg = StoreMsg(handle=msg.handle, slot=msg.slot,
                           value=msg.value, check=store_check(msg.value))
        engine = self._engine or self.engine
        now = engine._now
        self._next_seq += 1
        self._queue.append(
            _Transfer(src.node_id if src is not None else 0, dst, msg,
                      now, self._next_seq)
        )
        # Engine.schedule would return at once for a tick due by next cycle.
        at = self._scheduled_at
        if at is None or at > now + 1:
            engine.schedule(self)

    @property
    def pending(self) -> int:
        """Transfers waiting for a channel (diagnostics)."""
        return len(self._queue)

    # -- component -----------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        # Grant free channels to queued transfers in FIFO order.
        queue = self._queue
        channel_free = self._channel_free
        config = self.config
        stats = self.stats
        engine = self._engine
        for ch in range(config.num_buses):
            if not queue:
                break
            if channel_free[ch] > now:
                continue
            t = queue.popleft()
            size = t.msg.size_bytes
            cycles = max(1, -(-size // config.bytes_per_cycle))
            finish = now + config.arbitration_latency + cycles
            if t.src_node != t.dst.node_id:
                finish += self.inter_node_latency
            channel_free[ch] = now + cycles  # channel is pipelined past
            stats.transfers += 1
            stats.bytes_moved += size
            stats.busy_bus_cycles += cycles
            stats.queue_wait_cycles += now - t.enqueued_at
            if self._m_busy is not None:
                self._m_busy.add(now, cycles)
                self._m_bytes.add(now, size)
                self._g_backlog.observe(now, len(queue))
            if self._tracer is not None:
                self._tracer.emit(
                    now, self.name, "bus-grant", channel=ch,
                    end=now + cycles, bytes=size,
                )
            inj = self._injector
            if inj is not None:
                finish += inj.bus_transfer_delay()
                if inj.plan.data_active and type(t.msg) is StoreMsg:
                    bit = inj.store_corruption()
                    if bit is not None:
                        # Flip one payload bit in transit; the stamped
                        # check code still describes the original value,
                        # which is how the LSE detects (and corrects)
                        # the damage.  Replace the message before the
                        # delivery callbacks are scheduled so an
                        # injected duplicate carries the same bytes.
                        m = t.msg
                        self._trace("data-fault", what="store-corrupt",
                                    seq=t.seq, bit=bit)
                        t.msg = StoreMsg(
                            handle=m.handle, slot=m.slot,
                            value=flip_word_bit(m.value, bit),
                            check=m.check,
                        )
            self._undelivered.add(t.seq)
            engine.call_at(finish, Callback("bus.deliver", self, (t,)))
            if inj is not None and inj.bus_duplicate():
                # Deliver a second copy one cycle later; _deliver absorbs
                # it because the seq will already be retired.
                engine.call_at(
                    finish + 1, Callback("bus.deliver", self, (t,))
                )
        if queue:
            nxt = min(channel_free)
            return max(nxt, now + 1)
        return None

    def _deliver(self, t: _Transfer) -> None:
        """Deliver a granted transfer exactly once.

        Every transfer reaches this point at least once; injected
        duplicates reach it twice.  The seq set makes the second arrival
        a counted no-op, so endpoints never have to be duplicate-safe
        themselves (a duplicated ReadResponse would spuriously unblock a
        pipeline; a duplicated StoreMsg would decrement an SC twice).
        """
        if t.seq not in self._undelivered:
            if self._injector is not None:
                self._injector.stats.bus_duplicates_absorbed += 1
            return
        self._undelivered.discard(t.seq)
        if self._sanitizer is not None:
            self._sanitizer.message_delivered(t.seq)
        t.dst.deliver(t.msg)

    def describe_state(self) -> str:
        return (
            f"{len(self._queue)} queued transfers, channels free at "
            f"{self._channel_free}"
        )


register_callback("bus.deliver", Bus._deliver)
