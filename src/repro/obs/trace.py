"""Streaming execution tracing (tracer v2).

A :class:`Tracer` filters structured events from the simulated hardware
— thread lifecycle transitions, dispatches, DMA and bus activity — and
hands them to a :class:`TraceSink`.  Unlike the original tracer (which
only accumulated an in-memory list), sinks decide what happens to the
stream: keep a bounded window (:class:`MemorySink`), stream to a JSONL
file (:class:`JsonlSink`), fan out to several consumers
(:class:`TeeSink`), or fold events into interval series
(:class:`repro.obs.intervals.IntervalSink`).

Tracing is off by default.  What a detached (``None``) tracer costs
depends on the call site: the bus, which emits the most events
(``bus-grant``, one per transfer), tests its ``_tracer`` attribute inline,
one attribute check per would-be event; every other site calls
:meth:`Component._trace <repro.sim.component.Component._trace>`, one
Python call with its keyword dict built per would-be event (thread
lifecycle, dispatch, DMA commands and faults: events per thread or per
DMA command, not per transfer).

Attached, an event costs :meth:`Tracer.emit` with its keyword dict and
one :meth:`TraceSink.record` call with the event's parts; only a sink
that keeps events (:class:`MemorySink`) builds a :class:`TraceEvent`.
Attach a tracer with :meth:`repro.cell.machine.Machine.attach_tracer`:

>>> from repro.obs.trace import Tracer
>>> tracer = Tracer(kinds={"thread-ready", "dispatch"})   # doctest: +SKIP
>>> machine.attach_tracer(tracer)                         # doctest: +SKIP
>>> machine.run()                                         # doctest: +SKIP
>>> print(tracer.format())                                # doctest: +SKIP
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

__all__ = [
    "TraceEvent",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "Tracer",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    source: str
    kind: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.cycle:>8}] {self.source:<8} {self.kind:<16} {extras}"

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "source": self.source,
            "kind": self.kind,
            "fields": dict(self.fields),
        }


class TraceSink:
    """Receives the filtered event stream from a :class:`Tracer`, each
    event as its parts (:meth:`record`) or as a :class:`TraceEvent`
    (:meth:`emit`).  Each default calls the other: a sink that keeps
    events overrides ``emit``, one that folds or writes them ``record``.
    """

    def record(
        self, cycle: int, source: str, kind: str, fields: Mapping[str, object]
    ) -> None:
        self.emit(TraceEvent(cycle, source, kind, fields))

    def emit(self, event: TraceEvent) -> None:
        self.record(event.cycle, event.source, event.kind, event.fields)

    def close(self) -> None:
        """Flush / release resources.  Idempotent; default is a no-op."""


class MemorySink(TraceSink):
    """Keeps events in a list, bounded by ``limit`` (the v1 behaviour).

    Events past the limit are counted in ``dropped`` instead of stored,
    protecting long runs from unbounded memory.
    """

    def __init__(self, limit: int | None = 100_000) -> None:
        self.limit = limit
        self.events: list[TraceEvent] = []
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)


class JsonlSink(TraceSink):
    """Streams events to a file as one JSON object per line.

    Accepts a path (opened and owned by the sink) or any writable
    text-file object (flushed but left open on :meth:`close`).
    """

    def __init__(self, target: "str | os.PathLike | IO[str]") -> None:
        if isinstance(target, (str, os.PathLike)):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = target
            self._owned = False
        self.emitted = 0

    def record(
        self, cycle: int, source: str, kind: str, fields: Mapping[str, object]
    ) -> None:
        # The line TraceEvent.to_dict() would give, without the event.
        self._fh.write(json.dumps(
            {"cycle": cycle, "source": source, "kind": kind,
             "fields": dict(fields)},
            sort_keys=True,
        ))
        self._fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        if self._owned:
            self._fh.close()


class TeeSink(TraceSink):
    """Fans every event out to several sinks."""

    def __init__(self, sinks: Iterable[TraceSink]) -> None:
        self.sinks = tuple(sinks)

    def record(
        self, cycle: int, source: str, kind: str, fields: Mapping[str, object]
    ) -> None:
        for sink in self.sinks:
            sink.record(cycle, source, kind, fields)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _validated_kinds(kinds: "Iterable[str] | None") -> "frozenset[str] | None":
    if kinds is None:
        return None
    if isinstance(kinds, (str, bytes)):
        # A bare string would silently iterate into single characters and
        # filter out every real event kind.
        raise TypeError(
            f"kinds must be an iterable of kind strings, not a bare "
            f"string; did you mean kinds={{{kinds!r}}}?"
        )
    out = frozenset(kinds)
    bad = [k for k in out if not isinstance(k, str)]
    if bad:
        raise TypeError(f"kinds must all be strings, got {sorted(map(repr, bad))}")
    return out


class Tracer:
    """Filters :class:`TraceEvent` records into a :class:`TraceSink`.

    Parameters
    ----------
    kinds:
        Only record these event kinds (``None`` records everything).
        Must be an iterable of strings; a bare string raises
        ``TypeError`` rather than being iterated character by character.
    limit:
        Bound for the default in-memory sink (ignored when ``sink`` is
        given); the sink's ``dropped`` counter keeps the overflow total.
    sink:
        Destination for the event stream.  Defaults to a
        :class:`MemorySink` so the v1 query API (``events``,
        ``of_kind`` ...) keeps working.
    """

    def __init__(
        self,
        kinds: "Iterable[str] | None" = None,
        limit: int | None = 100_000,
        sink: TraceSink | None = None,
    ) -> None:
        self.kinds = _validated_kinds(kinds)
        self.limit = limit
        self.sink = sink if sink is not None else MemorySink(limit)

    def emit(self, cycle: int, source: str, kind: str, **fields: object) -> None:
        kinds = self.kinds
        if kinds is None or kind in kinds:
            self.sink.record(cycle, source, kind, fields)

    def close(self) -> None:
        self.sink.close()

    # -- queries (served from the first in-memory sink found) ---------------

    @property
    def events(self) -> list[TraceEvent]:
        sink = self._memory_sink()
        return sink.events if sink is not None else []

    @property
    def dropped(self) -> int:
        sink = self._memory_sink()
        return sink.dropped if sink is not None else 0

    def _memory_sink(self) -> MemorySink | None:
        if isinstance(self.sink, MemorySink):
            return self.sink
        if isinstance(self.sink, TeeSink):
            for sink in self.sink.sinks:
                if isinstance(sink, MemorySink):
                    return sink
        return None

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def of_thread(self, tid: int) -> list[TraceEvent]:
        return [e for e in self.events if e.fields.get("tid") == tid]

    def kinds_seen(self) -> set[str]:
        return {e.kind for e in self.events}

    def __len__(self) -> int:
        return len(self.events)

    def format(self, max_lines: int | None = None) -> str:
        lines = [str(e) for e in self.events]
        if max_lines is not None and len(lines) > max_lines:
            omitted = len(lines) - max_lines
            lines = lines[:max_lines] + [f"... ({omitted} more events)"]
        if self.dropped:
            lines.append(f"... ({self.dropped} events dropped at the limit)")
        return "\n".join(lines)
