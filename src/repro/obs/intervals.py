"""Busy-interval reconstruction from the trace event stream.

An :class:`IntervalSink` is a :class:`~repro.obs.trace.TraceSink` that
folds events into three interval families as they stream past:

* **pipeline** — per SPU, what the pipeline ran and when: ``run``
  intervals (EX/PL/PS blocks) and ``pf`` intervals (PF blocks
  programming the MFC), opened at ``dispatch`` and closed by
  ``yield-dma`` / ``thread-stop`` / the next dispatch — the same
  reconstruction the ASCII timeline has always used.
* **dma** — per ``(spe, tag)`` tag group, from the first
  ``dma-command`` carrying that tag to its ``dma-tag-done``.  These are
  the intervals that overlap other threads' ``run`` time when
  non-blocking execution works.
* **bus** — per channel, occupancy windows from ``bus-grant`` events.

Feed it as a tracer sink (events arrive in cycle order during a run) and
call :meth:`IntervalSink.finish` once the run ends to close anything
still open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.obs.trace import TraceSink

__all__ = ["Interval", "IntervalSink", "PROFILE_KINDS"]

#: The event kinds interval reconstruction consumes — pass as the
#: ``kinds`` filter of the profiling tracer so nothing else is recorded.
PROFILE_KINDS = frozenset(
    {
        "dispatch",
        "yield-dma",
        "thread-stop",
        "dma-command",
        "dma-tag-done",
        "bus-grant",
        # Data-fault recovery markers (point events, not intervals).
        "thread-reexec",
        "dma-reverify",
    }
)


@dataclass(slots=True)
class Interval:
    """One half-open busy window ``[start, end)``."""

    start: int
    end: int
    #: "run" | "pf" (pipeline), "dma" (tag group), "bus" (channel grant).
    kind: str
    tid: int | None = None
    #: Template name (pipeline) or free-form detail.
    label: str = ""
    #: Payload bytes (dma / bus intervals).
    size: int = 0

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end


class IntervalSink(TraceSink):
    """Streams trace events into pipeline / DMA / bus interval series."""

    def __init__(self) -> None:
        #: spu source name -> closed pipeline intervals, in time order.
        self.pipeline: dict[str, list[Interval]] = {}
        #: (spe_id, tag) -> closed DMA tag-group intervals.
        self.dma: dict[tuple[int, int], list[Interval]] = {}
        #: bus channel -> occupancy windows as ``(start, end, bytes)``.
        self.bus: dict[int, list[tuple[int, int, int]]] = {}
        self._open_pipe: dict[str, Interval] = {}
        self._open_dma: dict[tuple[int, int], Interval] = {}
        #: Point-in-time recovery markers (thread re-executions, DMA
        #: re-fetch verifications), in stream order.
        self.marks: list[dict] = []
        self.finished = False

    # -- sink interface -----------------------------------------------------

    def record(
        self, cycle: int, source: str, kind: str, fields: Mapping[str, object]
    ) -> None:
        if kind == "bus-grant":  # one per bus transfer: the most frequent
            channel = fields.get("channel", 0)
            windows = self.bus.get(channel)
            if windows is None:
                windows = self.bus[channel] = []
            end = fields.get("end", cycle)
            windows.append(
                (cycle, end if end > cycle else cycle + 1,
                 fields.get("bytes", 0))
            )
        elif kind == "dispatch":
            self._close_pipe(source, cycle)
            self._open_pipe[source] = Interval(
                start=cycle,
                end=cycle,
                kind="pf" if fields.get("pf") else "run",
                tid=fields.get("tid"),
                label=str(fields.get("template", "")),
            )
        elif kind == "yield-dma" or kind == "thread-stop":
            self._close_pipe(source, cycle)
        elif kind == "dma-command":
            key = (_source_index(source), fields.get("tag", 0))
            opened = self._open_dma.get(key)
            if opened is None:
                self._open_dma[key] = Interval(
                    start=cycle,
                    end=cycle,
                    kind="dma",
                    tid=fields.get("tid"),
                    label=f"tag {key[1]}",
                    size=fields.get("bytes", 0),
                )
            else:
                # Another command joined the still-open tag group.
                opened.size += fields.get("bytes", 0)
        elif kind == "dma-tag-done":
            key = (_source_index(source), fields.get("tag", 0))
            opened = self._open_dma.pop(key, None)
            if opened is not None and cycle > opened.start:
                opened.end = cycle
                self.dma.setdefault(key, []).append(opened)
        elif kind == "thread-reexec" or kind == "dma-reverify":
            self.marks.append(
                {"cycle": cycle, "source": source, "kind": kind, **fields}
            )

    def finish(self, total_cycles: int) -> None:
        """Close intervals still open when the run ended."""
        for src in list(self._open_pipe):
            self._close_pipe(src, total_cycles)
        for key, opened in list(self._open_dma.items()):
            if total_cycles > opened.start:
                opened.end = total_cycles
                self.dma.setdefault(key, []).append(opened)
        self._open_dma.clear()
        self.finished = True

    # -- internals ----------------------------------------------------------

    def _close_pipe(self, src: str, end: int) -> None:
        opened = self._open_pipe.pop(src, None)
        if opened is not None and end > opened.start:
            opened.end = end
            self.pipeline.setdefault(src, []).append(opened)

    # -- queries ------------------------------------------------------------

    def dma_intervals(self) -> list[tuple[int, int, Interval]]:
        """All closed DMA intervals as ``(spe, tag, interval)`` triples."""
        out = []
        for (spe, tag), intervals in sorted(self.dma.items()):
            for iv in intervals:
                out.append((spe, tag, iv))
        return out

    def to_dict(self) -> dict:
        return {
            "pipeline": {
                src: [
                    {"start": iv.start, "end": iv.end, "kind": iv.kind,
                     "tid": iv.tid, "label": iv.label, "size": iv.size}
                    for iv in ivs
                ]
                for src, ivs in sorted(self.pipeline.items())
            },
            "dma": [
                {"spe": spe, "tag": tag, "start": iv.start, "end": iv.end,
                 "kind": iv.kind, "tid": iv.tid, "label": iv.label,
                 "size": iv.size}
                for spe, tag, iv in self.dma_intervals()
            ],
            "bus": {
                str(ch): [
                    {"start": start, "end": end, "kind": "bus", "tid": None,
                     "label": "", "size": size}
                    for start, end, size in windows
                ]
                for ch, windows in sorted(self.bus.items())
            },
            "marks": list(self.marks),
        }


def _source_index(source: str) -> int:
    """Trailing integer of a component name ("mfc3" -> 3)."""
    digits = ""
    for ch in reversed(source):
        if not ch.isdigit():
            break
        digits = ch + digits
    return int(digits) if digits else 0
