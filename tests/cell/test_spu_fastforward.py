"""SPU fast-forward: engages on straight-line ALU runs, changes nothing.

``SPU._fast_forward`` retires a hazard-checked straight-line ALU run in
one engine tick (see ``docs/PERFORMANCE.md``).  These unit tests drive
mini-programs whose shapes hit every window boundary — branches,
MEM-slot ops, scoreboard hazards, the PF/EX block edge.  Each
mini-program's cycles and stats are pinned in ``tests/golden``.  A
tracer keeps the SPU on its per-cycle loop, so every mini-program also
runs traced: same cycles and stats, strictly more engine ticks.
"""

from __future__ import annotations

import dataclasses

from repro.cell.machine import Machine
from repro.core.activity import GlobalObject, ObjRef, SpawnSpec, TLPActivity
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.obs.trace import Tracer
from repro.testing import small_config


def _run(build, stores, globals_, tracer=None):
    program = build().build()
    machine = Machine(small_config())
    if tracer is not None:
        machine.attach_tracer(tracer)
    machine.load(TLPActivity(
        name="t",
        templates=[program],
        globals_=globals_,
        spawns=[SpawnSpec(template=program.name, stores=stores)],
    ))
    return machine, machine.run()


def run_pinned(golden, key, build, stores=None, globals_=None, tracer=None):
    """Run ``build()``'s program untraced and under ``tracer``.

    The untraced run's cycles and stats must match golden entry
    ``spu/<key>``; the traced run must match the untraced one while
    dispatching more engine ticks (fast-forward really skipped cycles).
    Returns the untraced machine and result.
    """
    stores = stores if stores is not None else {0: ObjRef("out")}
    globals_ = globals_ or [GlobalObject.zeros("out", 4)]
    machine, result = _run(build, stores, globals_)
    golden.check(f"spu/{key}", {
        "cycles": result.cycles,
        "stats": golden.digest(dataclasses.asdict(result.stats)),
    })
    tracer = tracer if tracer is not None else Tracer()
    traced_machine, traced = _run(build, stores, globals_, tracer=tracer)
    assert traced.cycles == result.cycles
    assert traced.stats == result.stats
    assert (
        machine.engine.ticks_dispatched
        < traced_machine.engine.ticks_dispatched
    )
    return machine, result


def writer():
    b = ThreadBuilder("t")
    b.slot("out")
    return b


class TestStraightLineRuns:
    def test_long_alu_run_collapses_to_fewer_ticks(self, golden):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("acc", 0)
                for i in range(40):
                    b.addi("acc", "acc", i)
                b.write("rout", 0, "acc")
                b.stop()
            return b

        machine, _ = run_pinned(golden, "long_alu_run", build)
        assert machine.read_global("out")[0] == sum(range(40))

    def test_working_bucket_credited_in_bulk_matches(self, golden):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("x", 7)
                for _ in range(10):
                    b.addi("x", "x", 3)
                b.write("rout", 0, "x")
                b.stop()
            return b

        # run_pinned compares the bulk-credited stats with the traced
        # run's per-cycle ones.
        machine, _ = run_pinned(golden, "working_bucket", build)
        assert machine.read_global("out")[0] == 37


class TestWindowBoundaries:
    def test_scoreboard_hazards_inside_the_window(self, golden):
        # A dependent MUL/DIV chain stalls on result latency mid-run; the
        # window must charge the same stall buckets as per-cycle ticks.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("x", 3)
                b.li("y", 40)
                b.muli("x", "x", 5)     # lat 2
                b.muli("x", "x", 2)     # RAW on x
                b.div("z", "y", "x")    # lat 8, RAW on x
                b.addi("z", "z", 1)     # RAW on z
                b.write("rout", 0, "z")
                b.stop()
            return b

        machine, _ = run_pinned(golden, "scoreboard_hazards", build)
        assert machine.read_global("out")[0] == 40 // 30 + 1

    def test_branches_terminate_the_window(self, golden):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("n", 25)
                b.li("acc", 0)
                b.label("top")
                b.add("acc", "acc", "n")
                b.subi("n", "n", 1)
                b.bnez("n", "top")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        machine, _ = run_pinned(golden, "branches", build)
        assert machine.read_global("out")[0] == sum(range(1, 26))

    def test_mem_slot_ops_interleaved(self, golden):
        # Local-store traffic splits the EX block into several windows
        # and exercises the dual-issue edge (ALU op + MEM successor).
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("base", 0x200)  # dual-issues with the PL load
                b.li("y", 0)
                b.li("x", 11)
                b.addi("x", "x", 4)
                b.lstore("base", 0, "x")
                b.addi("x", "x", 1)
                b.addi("x", "x", 1)
                b.lload("y", "base", 0)
                b.add("x", "x", "y")
                b.write("rout", 0, "x")
                b.stop()
            return b

        machine, _ = run_pinned(golden, "mem_slot_ops", build)
        assert machine.read_global("out")[0] == 32

    def test_pf_block_boundary_never_fast_forwards(self, golden):
        # ALU runs inside a PF block stay on the per-cycle path (they
        # charge the Prefetching bucket and end at the DMA-yield edge).
        def build():
            b = writer()
            src = b.slot("src")
            bufp = b.slot("bufp")
            with b.block(BlockKind.PF):
                b.lsalloc("buf", 16)
                b.load("rsrc", src)
                b.li("t0", 1)
                b.addi("t0", "t0", 2)
                b.addi("t0", "t0", 3)
                b.dmaget("buf", "rsrc", 16, tag=1)
                b.storef(bufp, "buf")
            with b.block(BlockKind.PL):
                b.load("rout", "out")
                b.load("rbuf", bufp)
            with b.block(BlockKind.EX):
                b.lload("v", "rbuf", 0)
                b.li("acc", 0)
                for _ in range(8):
                    b.add("acc", "acc", "v")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        machine, result = run_pinned(
            golden, "pf_block_boundary", build,
            stores={0: ObjRef("out"), 1: ObjRef("src")},
            globals_=[
                GlobalObject.zeros("out", 4),
                GlobalObject("src", (9, 0, 0, 0)),
            ],
        )
        assert machine.read_global("out")[0] == 72
        assert result.stats.spus[0].breakdown.prefetch > 0


class TestObserversDisengage:
    def test_tracer_forces_per_cycle_ticks(self, golden):
        # With a tracer attached the window must not engage: per-cycle
        # observers need every cycle visited.  The event stream is
        # pinned, so a tracer that changed what it sees fails here.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("acc", 0)
                for i in range(20):
                    b.addi("acc", "acc", 1)
                b.write("rout", 0, "acc")
                b.stop()
            return b

        tracer = Tracer()
        _, result = run_pinned(golden, "tracer", build, tracer=tracer)
        events = [e.to_dict() for e in tracer.events]
        golden.check("spu/tracer_events", {
            "cycles": result.cycles, "events": golden.digest(events),
        })
