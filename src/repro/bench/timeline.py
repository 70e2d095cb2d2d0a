"""ASCII execution timelines from trace events.

Turns a :class:`~repro.obs.trace.Tracer` recording into a per-SPU Gantt
chart: one row per SPU, one character per time bucket, showing what each
pipeline was doing — the visual counterpart of the Figure 5 breakdown
and the quickest way to *see* non-blocking execution (DMA waits of one
thread overlapped by another thread's work).

The interval reconstruction itself lives in
:class:`repro.obs.intervals.IntervalSink` (shared with the Perfetto
exporter); this module keeps the rendering.

Legend: ``#`` executing, ``p`` executing a PF block, ``.`` idle,
space = before first / after last activity of that SPU.
"""

from __future__ import annotations

from repro.obs.intervals import Interval, IntervalSink
from repro.obs.trace import Tracer

__all__ = ["Timeline", "render_timeline"]


class Timeline:
    """Per-SPU busy intervals reconstructed from dispatch/yield events."""

    def __init__(self, tracer: Tracer, total_cycles: int) -> None:
        self.total_cycles = max(1, total_cycles)
        sink = IntervalSink()
        for event in tracer.events:
            if event.source.startswith("spu"):
                sink.emit(event)
        sink.finish(self.total_cycles)
        self.per_spu: dict[str, list[Interval]] = sink.pipeline

    def busy_fraction(self, spu: str) -> float:
        intervals = self.per_spu.get(spu, [])
        return sum(i.end - i.start for i in intervals) / self.total_cycles

    def render(self, width: int = 72) -> str:
        """The ASCII chart; one row per SPU, ``width`` buckets."""
        if not self.per_spu:
            return "(no SPU activity traced)"
        scale = self.total_cycles / width
        lines = [
            f"0 {'cycles':^{width - 10}} {self.total_cycles}",
        ]
        for spu in sorted(self.per_spu):
            row = [" "] * width
            for iv in self.per_spu[spu]:
                lo = min(width - 1, int(iv.start / scale))
                hi = min(width - 1, max(lo, int((iv.end - 1) / scale)))
                ch = "p" if iv.kind == "pf" else "#"
                for x in range(lo, hi + 1):
                    if row[x] == " " or (row[x] == "p" and ch == "#"):
                        row[x] = ch
            # Fill interior gaps as idle.
            first = next((i for i, c in enumerate(row) if c != " "), None)
            last = next(
                (i for i in range(width - 1, -1, -1) if row[i] != " "), None
            )
            if first is not None and last is not None:
                for x in range(first, last + 1):
                    if row[x] == " ":
                        row[x] = "."
            lines.append(f"{spu:>6} |{''.join(row)}|"
                         f" {self.busy_fraction(spu):5.1%} busy")
        lines.append("legend: # executing, p prefetch block, . idle")
        return "\n".join(lines)


def render_timeline(tracer: Tracer, total_cycles: int, width: int = 72) -> str:
    """Convenience wrapper: build and render in one call."""
    return Timeline(tracer, total_cycles).render(width)
