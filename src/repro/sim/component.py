"""Base class for simulated hardware components.

A :class:`Component` is anything the :class:`~repro.sim.engine.Engine`
clocks: an SPU pipeline, a bus, the main memory, a scheduler element.  The
engine is *event-skipping*: a component is only ticked on cycles where it
asked to be ticked (via the return value of :meth:`Component.tick`) or where
another component woke it (via :meth:`Component.wake`).  A component that has
nothing to do simply returns ``None`` and sleeps until woken.

This keeps the simulator cycle-accurate while skipping the long dead periods
that dominate the paper's workloads (150-cycle memory stalls, idle SPUs).
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = ["Component"]


class Component:
    """A clocked hardware unit.

    Subclasses implement :meth:`tick` and may override :meth:`describe_state`
    to improve deadlock diagnostics.  ``priority`` orders same-cycle ticks:
    lower values tick first (producers such as buses and memories should
    tick before consumers such as pipelines so responses arriving "this
    cycle" are visible).
    """

    #: Same-cycle tick ordering; lower ticks first.
    priority: int = 50

    #: Attributes excluded from :meth:`snapshot_state` — derived caches a
    #: subclass rebuilds in :meth:`restore_state` instead of serializing.
    _SNAPSHOT_EXCLUDE: frozenset = frozenset()

    def __init__(self, name: str) -> None:
        self.name = name
        self._engine: "Engine | None" = None
        #: Registration index; breaks same-(cycle, priority) tick ties.
        #: Stable across a run, so within-cycle order never depends on
        #: *when* a tick was pushed — a prerequisite for event-skipping
        #: optimizations that schedule ticks many cycles ahead.
        self._order: int = -1
        #: Next cycle at which a tick is already scheduled (lazy-deleted).
        self._scheduled_at: int | None = None
        #: Optional tracer (see :mod:`repro.obs.trace`); None = disabled.
        self._tracer = None
        #: Optional metrics hub (see :mod:`repro.obs.hub`); None = disabled.
        self._hub = None

    def _trace(self, kind: str, **fields: object) -> None:
        """Record a trace event if a tracer is attached.

        Detached, a call still costs the call and its keyword dict, so a
        site that runs per transfer or per cycle tests ``self._tracer``
        inline instead and calls the tracer's ``emit`` itself (the bus
        does, for ``bus-grant``).
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self._engine._now, self.name, kind, **fields)

    def bind_hub(self, hub) -> None:
        """Attach a :class:`~repro.obs.hub.MetricsHub` and bind instruments.

        Called once by ``Machine.attach_hub``; hot paths must only ever
        consult the instrument attributes created in
        :meth:`_bind_metrics` (``None`` when no hub is attached).
        """
        self._hub = hub
        self._bind_metrics(hub)

    def _bind_metrics(self, hub) -> None:
        """Create this component's hub instruments (override as needed)."""

    # -- engine wiring -----------------------------------------------------

    @property
    def engine(self) -> "Engine":
        """The engine this component is registered with."""
        if self._engine is None:
            raise RuntimeError(f"component {self.name!r} is not registered")
        return self._engine

    def _attach(self, engine: "Engine") -> None:
        if self._engine is not None and self._engine is not engine:
            raise RuntimeError(
                f"component {self.name!r} is already attached to another engine"
            )
        self._engine = engine

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        # Hot path: the engine property is only consulted (and raises)
        # when the component is not registered.
        return (self._engine or self.engine)._now

    # -- scheduling --------------------------------------------------------

    def wake(self, cycle: int | None = None) -> None:
        """Request a tick at ``cycle`` (default: next cycle).

        Waking at or before an already-scheduled tick is a no-op, so
        components can be woken redundantly without flooding the event
        queue.
        """
        (self._engine or self.engine).schedule(self, cycle)

    def tick(self, now: int) -> int | None:
        """Advance the component at cycle ``now``.

        Returns the next cycle at which the component wants to tick, or
        ``None`` to sleep until explicitly woken.  Implementations must
        never return a cycle ``<= now``.
        """
        raise NotImplementedError

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Mutable state for a machine checkpoint.

        The default captures the full ``__dict__`` minus
        ``_SNAPSHOT_EXCLUDE``; the snapshot pickler maps engine/component/
        machine references inside it to persistent IDs, so subclasses only
        need to override when they hold state that must be *rebuilt*
        rather than serialized (see ``SPU``).
        """
        exclude = self._SNAPSHOT_EXCLUDE
        if not exclude:
            return dict(self.__dict__)
        return {k: v for k, v in self.__dict__.items() if k not in exclude}

    def restore_state(self, state: dict) -> None:
        """Apply a :meth:`snapshot_state` dict captured at the same cycle."""
        self.__dict__.update(state)

    # -- diagnostics -------------------------------------------------------

    def describe_state(self) -> str:
        """One-line state description used in deadlock dumps."""
        return "<no state description>"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
