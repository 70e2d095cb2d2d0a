"""Timeline rendering from trace events."""

from __future__ import annotations

from repro.bench.timeline import Timeline, render_timeline
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.obs.trace import Tracer
from repro.testing import small_config
from repro.workloads import matmul


def traced(prefetch=True, spes=2):
    wl = matmul.build(n=4, threads=2)
    act = prefetch_transform(wl.activity) if prefetch else wl.activity
    m = Machine(small_config(num_spes=spes))
    tracer = Tracer()
    m.attach_tracer(tracer)
    m.load(act)
    res = m.run()
    return tracer, res


class TestTimeline:
    def test_rows_per_active_spu(self):
        tracer, res = traced(spes=2)
        text = render_timeline(tracer, res.cycles)
        assert "spu0" in text or "spu1" in text
        assert "legend" in text

    def test_busy_fraction_bounded(self):
        tracer, res = traced()
        tl = Timeline(tracer, res.cycles)
        for spu in tl.per_spu:
            assert 0.0 < tl.busy_fraction(spu) <= 1.0

    def test_prefetch_marks_pf_segments(self):
        tracer, res = traced(prefetch=True, spes=1)
        text = render_timeline(tracer, res.cycles, width=120)
        assert "p" in text.split("legend")[0]

    def test_empty_trace(self):
        assert "no SPU activity" in render_timeline(Tracer(), 100)

    def test_width_respected(self):
        tracer, res = traced()
        tl = Timeline(tracer, res.cycles)
        for line in tl.render(width=40).splitlines()[1:-1]:
            bar = line.split("|")[1]
            assert len(bar) == 40

    def test_golden_render(self):
        """Byte-exact output on a fixed event sequence.

        Pins the rendering across the port to the shared interval
        reconstruction: pf segment, idle gap, run segment, fractions,
        header and legend all unchanged.
        """
        tracer = Tracer()
        tracer.emit(0, "spu0", "dispatch", tid=1, template="t", pf=True)
        tracer.emit(40, "spu0", "yield-dma", tid=1)
        tracer.emit(60, "spu0", "dispatch", tid=1, template="t", pf=False)
        tracer.emit(100, "spu0", "thread-stop", tid=1)
        tl = Timeline(tracer, 100)
        assert tl.busy_fraction("spu0") == 0.8
        assert tl.render(width=20) == (
            "0   cycles   100\n"
            "  spu0 |pppppppp....########| 80.0% busy\n"
            "legend: # executing, p prefetch block, . idle"
        )
