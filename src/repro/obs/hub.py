"""Metrics registry: counters, gauges and bucketed timeseries.

A :class:`MetricsHub` is attached to a machine with
:meth:`repro.cell.machine.Machine.attach_hub`.  Components bind their
instruments once at attach time (see ``Component._bind_metrics``) and
then feed them from their hot paths behind a single ``is not None``
check — when no hub is attached the instrumented code paths allocate
nothing and call nothing.

Memory is bounded by construction: every timeseries is a ring of at
most ``max_buckets`` buckets of ``bucket_cycles`` cycles each.  When a
run outlives the ring, the oldest buckets are evicted (counted in
``dropped_buckets``) while the scalar running totals keep the full-run
truth, even when the timeseries window has wrapped.

A :class:`MetricsSampler` is an observation-only
:class:`~repro.sim.component.Component` (modelled on the progress
watchdog) that pull-samples queue depths and in-flight state the
components cannot cheaply push: ready-queue depth, outstanding DMA
bytes/commands, bus backlog, memory-port queue, engine event backlog.
It never wakes another component or sends a message, so attaching a hub
cannot change simulated timing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.component import Component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cell.machine import Machine

__all__ = [
    "HubConfig",
    "Counter",
    "BucketSeries",
    "GaugeSeries",
    "MetricsHub",
    "MetricsSampler",
]


@dataclass(frozen=True)
class HubConfig:
    """Sizing knobs for a :class:`MetricsHub`.

    bucket_cycles:
        Width of one timeseries bucket, in simulated cycles.
    max_buckets:
        Ring capacity per series; at most this many buckets are kept
        (``bucket_cycles * max_buckets`` cycles of history).
    sample_interval:
        Cadence, in cycles, of the pull-sampler's gauge snapshots.
    """

    bucket_cycles: int = 1024
    max_buckets: int = 4096
    sample_interval: int = 1024

    def __post_init__(self) -> None:
        for name in ("bucket_cycles", "max_buckets", "sample_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class BucketSeries:
    """Cycle-bucketed accumulator with a bounded ring and exact totals.

    ``add(cycle, value)`` folds ``value`` into the bucket containing
    ``cycle``.  Out-of-order adds that land before the newest bucket are
    folded into the newest bucket (components run in same-cycle priority
    order, so this only happens for small end-of-interval attributions
    and keeps the hot path a single comparison).
    """

    __slots__ = (
        "name",
        "bucket_cycles",
        "max_buckets",
        "total",
        "dropped_buckets",
        "_buckets",
    )

    def __init__(self, name: str, bucket_cycles: int, max_buckets: int) -> None:
        self.name = name
        self.bucket_cycles = bucket_cycles
        self.max_buckets = max_buckets
        self.total = 0
        self.dropped_buckets = 0
        # Ring of [bucket_index, value]; newest last.
        self._buckets: "deque[list[int]]" = deque()

    def add(self, cycle: int, value: int = 1) -> None:
        self.total += value
        bucket = cycle // self.bucket_cycles
        buckets = self._buckets
        if buckets:
            newest = buckets[-1]
            if bucket <= newest[0]:
                newest[1] += value
                return
            if len(buckets) >= self.max_buckets:
                buckets.popleft()
                self.dropped_buckets += 1
        buckets.append([bucket, value])

    def add_span(self, start: int, end: int) -> None:
        """Add 1 for every cycle in ``[start, end)``.

        Exactly ``add(c, 1)`` for each ``c`` in order — the same fold of
        late cycles into the newest bucket, the same ring eviction — in
        one step per bucket the span reaches instead of one per cycle.
        """
        if start >= end:
            return
        self.total += end - start
        width = self.bucket_cycles
        buckets = self._buckets
        if buckets:
            newest = buckets[-1]
            limit = (newest[0] + 1) * width
            if start < limit:
                cut = min(end, limit)
                newest[1] += cut - start
                start = cut
        while start < end:
            bucket = start // width
            cut = min(end, (bucket + 1) * width)
            if len(buckets) >= self.max_buckets:
                buckets.popleft()
                self.dropped_buckets += 1
            buckets.append([bucket, cut - start])
            start = cut

    def __len__(self) -> int:
        return len(self._buckets)

    def points(self) -> list[tuple[int, int]]:
        """``(bucket_start_cycle, value)`` pairs, oldest first."""
        width = self.bucket_cycles
        return [(b * width, v) for b, v in self._buckets]

    def to_dict(self) -> dict:
        return {
            "bucket_cycles": self.bucket_cycles,
            "total": self.total,
            "dropped_buckets": self.dropped_buckets,
            "points": [[start, value] for start, value in self.points()],
        }


class GaugeSeries:
    """Point-in-time level, kept per bucket as (last, max).

    Tracks the all-time ``peak`` and most recent ``last`` value besides
    the bounded per-bucket ring.
    """

    __slots__ = (
        "name",
        "bucket_cycles",
        "max_buckets",
        "last",
        "peak",
        "dropped_buckets",
        "_buckets",
    )

    def __init__(self, name: str, bucket_cycles: int, max_buckets: int) -> None:
        self.name = name
        self.bucket_cycles = bucket_cycles
        self.max_buckets = max_buckets
        self.last = 0
        self.peak = 0
        self.dropped_buckets = 0
        # Ring of [bucket_index, last, max]; newest last.
        self._buckets: "deque[list[int]]" = deque()

    def observe(self, cycle: int, value: int) -> None:
        self.last = value
        if value > self.peak:
            self.peak = value
        bucket = cycle // self.bucket_cycles
        buckets = self._buckets
        if buckets:
            newest = buckets[-1]
            if bucket <= newest[0]:
                newest[1] = value
                if value > newest[2]:
                    newest[2] = value
                return
            if len(buckets) >= self.max_buckets:
                buckets.popleft()
                self.dropped_buckets += 1
        buckets.append([bucket, value, value])

    def __len__(self) -> int:
        return len(self._buckets)

    def points(self) -> list[tuple[int, int, int]]:
        """``(bucket_start_cycle, last, max)`` triples, oldest first."""
        width = self.bucket_cycles
        return [(b * width, last, peak) for b, last, peak in self._buckets]

    def to_dict(self) -> dict:
        return {
            "bucket_cycles": self.bucket_cycles,
            "last": self.last,
            "peak": self.peak,
            "dropped_buckets": self.dropped_buckets,
            "points": [[s, last, peak] for s, last, peak in self.points()],
        }


class MetricsHub:
    """Registry of named instruments shared by all components of a run.

    ``enabled=False`` builds a hub that
    :meth:`~repro.cell.machine.Machine.attach_hub` treats exactly like
    no hub at all: nothing binds, nothing samples, the run is
    bit-identical to an unobserved one.
    """

    def __init__(
        self, config: HubConfig | None = None, enabled: bool = True
    ) -> None:
        self.config = config or HubConfig()
        self.enabled = enabled
        self.counters: dict[str, Counter] = {}
        self.series: dict[str, BucketSeries] = {}
        self.gauges: dict[str, GaugeSeries] = {}

    # -- instrument registry (get-or-create) --------------------------------

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def bucket_series(self, name: str) -> BucketSeries:
        inst = self.series.get(name)
        if inst is None:
            inst = self.series[name] = BucketSeries(
                name, self.config.bucket_cycles, self.config.max_buckets
            )
        return inst

    def gauge(self, name: str) -> GaugeSeries:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = GaugeSeries(
                name, self.config.bucket_cycles, self.config.max_buckets
            )
        return inst

    def to_dict(self) -> dict:
        """Full JSON-serializable dump of every instrument."""
        return {
            "config": asdict(self.config),
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "series": {
                name: s.to_dict() for name, s in sorted(self.series.items())
            },
            "gauges": {
                name: g.to_dict() for name, g in sorted(self.gauges.items())
            },
        }


class MetricsSampler(Component):
    """Observation-only component that pull-samples machine-wide gauges.

    Registered by ``Machine.attach_hub`` and started by ``Machine.run``;
    ticks every ``sample_interval`` cycles, reads state, writes gauges,
    and reschedules itself.  Like the progress watchdog it stops
    rescheduling once the run's ``done`` predicate is true so it never
    keeps ``engine.drain()`` alive.
    """

    #: Tick after every functional component so samples see the settled
    #: state of the cycle.
    priority = 90

    def __init__(
        self,
        name: str,
        hub: MetricsHub,
        machine: "Machine",
        done: "Callable[[], bool] | None" = None,
    ) -> None:
        super().__init__(name)
        self._hub = hub
        self._machine = machine
        self._done = done
        self._interval = hub.config.sample_interval
        self._g_ready = hub.gauge("sched.ready_depth")
        self._g_live = hub.gauge("threads.live")
        self._g_dma_cmds = hub.gauge("dma.inflight_commands")
        self._g_dma_bytes = hub.gauge("dma.inflight_bytes")
        self._g_bus = hub.gauge("bus.pending")
        self._g_mem = hub.gauge("memory.queue_depth")
        self._g_events = hub.gauge("engine.pending_events")
        self.samples = 0

    def start(self) -> None:
        """Schedule the first sample (call once the run begins)."""
        self.wake(self._interval)

    def tick(self, now: int) -> int | None:
        self._sample(now)
        if self._done is not None and self._done():
            return None
        return now + self._interval

    def _sample(self, now: int) -> None:
        m = self._machine
        self.samples += 1
        ready = 0
        dma_cmds = 0
        dma_bytes = 0
        for spe in m.spes:
            ready += spe.lse.ready_depth
            dma_cmds += spe.mfc.outstanding_commands
            dma_bytes += spe.mfc.outstanding_bytes
        self._g_ready.observe(now, ready)
        self._g_live.observe(now, m.threads_created - m.threads_completed)
        self._g_dma_cmds.observe(now, dma_cmds)
        self._g_dma_bytes.observe(now, dma_bytes)
        self._g_bus.observe(now, m.bus.pending)
        self._g_mem.observe(now, m.memory.queue_depth)
        self._g_events.observe(now, m.engine.pending_count)

    def describe_state(self) -> str:
        return f"metrics sampler: {self.samples} samples, every {self._interval} cycles"
