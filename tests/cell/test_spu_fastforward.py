"""SPU run-ahead: the issue loop goes past the engine's cycle, exactly.

``SPU._issue_cycle`` issues cycle after cycle inside one engine tick
while no other component can see or change what a cycle does first
(see ``docs/PERFORMANCE.md``).  These unit tests drive mini-programs
whose shapes hit every edge of a run-ahead — taken and not-taken
branches, a branch whose fall-through is a MEM-slot op, MEM-slot ops,
scoreboard hazards, the PF/EX block edge, the cap — the Local Store ops
the loop executes inline, port contention included, and each condition
under which Local Store ops may run ahead.  Each mini-program's cycles
and stats are pinned in ``tests/golden``.

Run-ahead stays on under the metrics hub and the tracer, so every
mini-program also runs observed (a hub with 3-cycle buckets plus a
tracer) and is compared with a per-cycle reference: the same observed
run with the run-ahead capped at one cycle per tick.  Cycles, stats,
trace events and the whole hub dump must match, with strictly fewer
engine ticks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal

import pytest

from repro.bench.scale import builders
from repro.cell import spu
from repro.cell.machine import Machine
from repro.core.activity import GlobalObject, ObjRef, SpawnSpec, TLPActivity
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.obs.hub import HubConfig, MetricsHub
from repro.obs.profile import profile_workload
from repro.obs.trace import Tracer
from repro.sim.config import paper_config
from repro.sim.engine import SimulationLimitExceeded
from repro.testing import small_config


def per_cycle(monkeypatch):
    """Cap every tick at one cycle, so the SPU never issues ahead of the
    engine: the reference a run-ahead must reproduce exactly."""
    monkeypatch.setattr(spu, "_WINDOW_CYCLES", 1)


def single_thread(build, stores=None, globals_=None):
    """An activity factory: one spawn of ``build()``'s program, its
    slot 0 pointing at global ``out``."""
    def make():
        program = build().build()
        return TLPActivity(
            name="t",
            templates=[program],
            globals_=globals_ or [GlobalObject.zeros("out", 4)],
            spawns=[SpawnSpec(
                template=program.name,
                stores=stores if stores is not None else {0: ObjRef("out")},
            )],
        )
    return make


def _run(make_activity, config, observe=False, prepare=None):
    machine = Machine(config)
    if prepare is not None:
        prepare(machine)
    tracer = None
    if observe:
        machine.attach_hub(MetricsHub(HubConfig(bucket_cycles=3)))
        tracer = Tracer()
        machine.attach_tracer(tracer)
    machine.load(make_activity())
    result = machine.run()
    events = [e.to_dict() for e in tracer.events] if observe else None
    return machine, result, events


def run_activity_pinned(golden, key, make_activity, prepare=None,
                        config=None):
    """Run ``make_activity()`` plain, observed, and observed per-cycle.

    The plain run's cycles and stats must match golden entry
    ``spu/<key>``.  The observed run must match it too, and must match
    the per-cycle reference in cycles, stats, trace events and hub dump
    while dispatching fewer engine ticks (the run-ahead really skipped
    cycles).  Returns the plain machine and result and the observed
    run's trace events.  ``prepare(machine)``, when given, runs on each
    fresh machine before the activity loads; ``config`` defaults to
    ``small_config()``.
    """
    config = config if config is not None else small_config()
    machine, result, _ = _run(make_activity, config, prepare=prepare)
    golden.check(f"spu/{key}", {
        "cycles": result.cycles,
        "stats": golden.digest(dataclasses.asdict(result.stats)),
    })
    observed_machine, observed, events = _run(
        make_activity, config, observe=True, prepare=prepare
    )
    with pytest.MonkeyPatch.context() as mp:
        per_cycle(mp)
        ref_machine, ref, ref_events = _run(
            make_activity, config, observe=True, prepare=prepare
        )
    assert observed.cycles == ref.cycles == result.cycles
    assert observed.stats == ref.stats == result.stats
    assert events == ref_events
    assert observed_machine.hub.to_dict() == ref_machine.hub.to_dict()
    assert (
        observed_machine.engine.ticks_dispatched
        < ref_machine.engine.ticks_dispatched
    )
    return machine, result, events


def run_pinned(golden, key, build, stores=None, globals_=None, prepare=None):
    """:func:`run_activity_pinned` for one thread of ``build()``'s program."""
    return run_activity_pinned(
        golden, key, single_thread(build, stores, globals_), prepare=prepare
    )


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

        machine, _, _ = run_pinned(golden, "long_alu_run", build)
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

        # run_pinned compares the bulk-credited stats and hub series
        # with the per-cycle reference's.
        machine, _, _ = run_pinned(golden, "working_bucket", build)
        assert machine.read_global("out")[0] == 37


class TestWindowBoundaries:
    def test_scoreboard_hazards_inside_the_window(self, golden):
        # A dependent MUL/DIV chain stalls on result latency mid-run; the
        # run-ahead must charge the same stall buckets as per-cycle ticks,
        # and the hub must see each stall at its resume cycle.
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

        machine, _, _ = run_pinned(golden, "scoreboard_hazards", build)
        assert machine.read_global("out")[0] == 40 // 30 + 1

    def test_windows_follow_a_backward_branch(self, golden):
        # One tick runs the whole loop ahead of the engine, following
        # each taken bnez back to the top.  At the exit bnez falls
        # through to a MEM-slot WRITE, so that cycle goes back to the
        # engine, which issues the two together.
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

        machine, _, _ = run_pinned(golden, "branches", build)
        assert machine.read_global("out")[0] == sum(range(1, 26))

    def test_mem_slot_ops_interleaved(self, golden):
        # Local Store traffic into frame memory (0x200) never runs ahead,
        # so it splits the EX block into several ticks, and exercises
        # the dual-issue edge (ALU op + MEM successor).
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

        machine, _, _ = run_pinned(golden, "mem_slot_ops", build)
        assert machine.read_global("out")[0] == 32

    def test_counted_loop_like_bit_count(self, golden):
        # Kernighan's loop as in k_bit_count: a forward branch that is
        # not taken until the end, an ALU body and a backward jmp.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("v", 0xB6)
                b.li("c", 0)
                b.label("top")
                b.beqz("v", "end")
                b.subi("t", "v", 1)
                b.and_("v", "v", "t")
                b.addi("c", "c", 1)
                b.jmp("top")
                b.label("end")
                b.write("rout", 0, "c")
                b.stop()
            return b

        machine, _, _ = run_pinned(golden, "counted_loop", build)
        assert machine.read_global("out")[0] == bin(0xB6).count("1")

    def test_not_taken_branch_before_a_mem_slot_op(self, golden):
        # When ``beqz`` falls through, the LSTORE after it issues in the
        # same cycle (one ALU-slot and one MEM-slot op); when it is
        # taken, the target is an ALU op.  The back-edge falls through
        # to an LLOAD at loop exit.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("base", 0x200)
                b.li("n", 6)
                b.li("acc", 0)
                b.label("top")
                b.andi("t", "n", 1)
                b.addi("acc", "acc", 3)
                b.beqz("t", "skip")
                b.lstore("base", 0, "acc")
                b.label("skip")
                b.subi("n", "n", 1)
                b.bnez("n", "top")
                b.lload("y", "base", 0)
                b.add("acc", "acc", "y")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        machine, _, _ = run_pinned(golden, "fallthrough_mem", build)
        # acc reaches 18; the last odd n (1) stores it; 18 + 18.
        assert machine.read_global("out")[0] == 36

    def test_local_store_port_contention(self, golden):
        # Every LS port is taken on cycles 5 and 6 of each 7, so LSTORE
        # and LLOAD meet full ports both as the first issue of a cycle
        # (the pipeline blocks until a port frees) and behind an ALU op
        # in the same cycle (the op retries next cycle).
        arms = []

        def reserve_ports(machine):
            ls = machine.spes[0].ls
            for c in range(400):
                if c % 7 in (5, 6):
                    for _ in range(ls.config.ports):
                        ls.reserve_port(c)
            count = {"full": 0, "blocked": 0}
            reserve, next_free = ls.reserve_port, ls.next_free_port_cycle

            def counted_reserve(cycle):
                ok = reserve(cycle)
                count["full"] += not ok
                return ok

            def counted_next_free(cycle):
                count["blocked"] += 1
                return next_free(cycle)

            ls.reserve_port = counted_reserve
            ls.next_free_port_cycle = counted_next_free
            arms.append(count)

        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("base", 0x200)
                b.li("acc", 0)
                b.li("n", 2)
                b.label("top")
                b.addi("acc", "acc", 2)
                b.lstore("base", 0, "acc")
                for _ in range(4):
                    b.addi("acc", "acc", 1)
                b.lload("y", "base", 0)
                b.add("acc", "acc", "y")
                b.subi("n", "n", 1)
                b.bnez("n", "top")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        machine, _, _ = run_pinned(
            golden, "ls_port_contention", build, prepare=reserve_ports
        )
        assert machine.read_global("out")[0] == 24
        # Plain, observed and per-cycle runs: each met a full port once
        # as the cycle's first issue and twice behind an ALU op.
        assert [(c["blocked"], c["full"] - c["blocked"]) for c in arms] == [
            (1, 2)
        ] * 3

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

        machine, result, _ = run_pinned(
            golden, "pf_block_boundary", build,
            stores={0: ObjRef("out"), 1: ObjRef("src")},
            globals_=[
                GlobalObject.zeros("out", 4),
                GlobalObject("src", (9, 0, 0, 0)),
            ],
        )
        assert machine.read_global("out")[0] == 72
        assert result.stats.spus[0].breakdown.prefetch > 0


#: The small machine's Local Store layout: frames below ``FRAME_REGION``,
#: the prefetch region (LSALLOC buffers) from it up.
FRAME_REGION = small_config().local_store.frame_region
FRAME_BYTES = small_config().lse.frame_size_words * 4


def sink_spawns(count):
    """``count`` root threads whose four frame stores each land on the
    Local Store while an earlier spawn runs, one LSE port booking each."""
    b = ThreadBuilder("sink")
    for i in range(4):
        b.slot(f"s{i}")
    with b.block(BlockKind.PL):
        b.load("v", "s0")
    with b.block(BlockKind.EX):
        b.stop()
    spawns = [
        SpawnSpec(template="sink", stores={k: 10 * i + k + 1 for k in range(4)})
        for i in range(count)
    ]
    return b.build(), spawns


def with_sinks(build, count=6):
    """An activity factory: ``build()``'s thread (slot 0 -> ``out``), then
    ``count`` sink spawns whose stores land while it runs."""
    def make():
        program = build().build()
        sink, spawns = sink_spawns(count)
        return TLPActivity(
            name="t",
            templates=[program, sink],
            globals_=[GlobalObject.zeros("out", 4)],
            spawns=[SpawnSpec(template=program.name,
                              stores={0: ObjRef("out")})] + spawns,
        )
    return make


def polling_loop(b, poll, poll_offset, own, own_offset, n=40):
    """EX loop: LLOAD ``poll``, fold it into ``acc``, LSTORE ``acc`` at
    ``own``; then WRITE ``acc`` to ``out``."""
    with b.block(BlockKind.EX):
        b.li("poll", poll)
        b.li("own", own)
        b.li("acc", 0)
        b.li("n", n)
        b.label("top")
        b.lload("v", "poll", poll_offset)
        b.addi("acc", "acc", 1)
        b.add("acc", "acc", "v")
        b.lstore("own", own_offset, "acc")
        b.subi("n", "n", 1)
        b.bnez("n", "top")
        b.write("rout", 0, "acc")
        b.stop()


class TestRunAheadConditions:
    """Each condition under which a Local Store op may issue ahead of
    the engine, on the critical path: the programs below touch the Local
    Store while another component could see or change what they do
    first.  Dropping any one condition fails its test."""

    def test_ls_loop_in_the_prefetch_region_runs_ahead(self, golden):
        # With the MFC idle, no stores landing and every port free, the
        # LLOAD/LSTORE loop runs ahead of the engine: about 500 cycles
        # in a few ticks.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            polling_loop(b, FRAME_REGION, 0, FRAME_REGION, 4)
            return b

        machine, result, _ = run_activity_pinned(
            golden, "ls_run_ahead", single_thread(build)
        )
        assert machine.read_global("out")[0] == 40
        assert machine.engine.ticks_dispatched * 10 < result.cycles

    def test_ls_ops_beside_lse_port_bookings(self, golden):
        # Every cycle has all but one LS port booked, and the sinks'
        # stores make the LSE book the last one on some of them: the
        # poller's LLOAD and LSTORE (prefetch region) then find the
        # port full, as the cycle's first issue or behind an ALU op.
        def reserve_all_but_one(machine):
            ls = machine.spes[0].ls
            for c in range(800):
                for _ in range(ls.config.ports - 1):
                    ls.reserve_port(c)

        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            polling_loop(b, FRAME_REGION, 0, FRAME_REGION, 4)
            return b

        machine, result, _ = run_activity_pinned(
            golden, "port_margin", with_sinks(build),
            prepare=reserve_all_but_one,
        )
        assert result.stats.spus[0].breakdown.ls_stall > 0

    def test_ls_ops_into_frame_memory(self, golden):
        # The poller LLOADs slot 0 of the last sink's frame while the
        # sinks' stores land, and LSTOREs to an unused slot of it: what
        # it reads depends on the cycle each load issues.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            sink_frame = 6 * FRAME_BYTES  # frames go to spawns in order
            polling_loop(b, sink_frame, 0, sink_frame, 4 * 20)
            return b

        machine, _, _ = run_activity_pinned(
            golden, "frame_memory", with_sinks(build)
        )
        # 40 polls: the last sink's slot 0 (51) arrived in mid-loop.
        out = machine.read_global("out")[0]
        assert 40 < out < 40 + 40 * 51

    @staticmethod
    def dma_beside_a_poller(pf_pad=0):
        """An activity factory: a fetcher whose PF block DMAs 128 words
        into the first LSALLOC buffer (the start of the prefetch region)
        and a poller that LLOADs the last of them while they land."""
        words = 128

        def make():
            f = ThreadBuilder("fetcher")
            f.slot("out")
            f.slot("src")
            f.slot("bufp")
            with f.block(BlockKind.PF):
                f.load("rsrc", "src")
                for _ in range(pf_pad):
                    f.nop()
                f.lsalloc("buf", 4 * words)
                f.dmaget("buf", "rsrc", 4 * words, tag=1)
                f.storef("bufp", "buf")
            with f.block(BlockKind.PL):
                f.load("rout", "out")
                f.load("rbuf", "bufp")
            with f.block(BlockKind.EX):
                f.lload("v", "rbuf", 4 * (words - 1))
                f.write("rout", 4, "v")
                f.stop()
            p = writer()
            with p.block(BlockKind.PL):
                p.load("rout", "out")
            polling_loop(p, FRAME_REGION, 4 * (words - 1),
                         FRAME_REGION + 0x1000, 0, n=60)
            return TLPActivity(
                name="t",
                templates=[f.build(), p.build()],
                globals_=[
                    GlobalObject.zeros("out", 4),
                    GlobalObject("src", tuple(range(1, words + 1))),
                ],
                spawns=[
                    SpawnSpec(template="fetcher",
                              stores={0: ObjRef("out"), 1: ObjRef("src")}),
                    SpawnSpec(template="t", stores={0: ObjRef("out")}),
                ],
            )
        return make

    def test_ls_ops_while_dma_in_flight(self, golden):
        # The fetcher yields at its PF boundary with the DMA in flight
        # and the poller runs: the MFC books LS write ports and fills
        # the buffer the poller reads.
        machine, _, _ = run_activity_pinned(
            golden, "dma_in_flight", self.dma_beside_a_poller()
        )
        out = machine.read_global("out")
        assert out[1] == 128
        assert 60 < out[0] < 60 + 60 * 128

    def test_ls_ops_while_xp_programs_dma(self, golden):
        # With the LSE's XP pipeline the fetcher's PF block never takes
        # the SPU: the poller starts with the MFC idle, and the XP
        # enqueues the DMA while the poller runs.
        config = small_config()
        config = config.replace(
            lse=dataclasses.replace(config.lse, dual_pipelines=True)
        )
        machine, _, _ = run_activity_pinned(
            golden, "xp_dma", self.dma_beside_a_poller(pf_pad=40),
            config=config,
        )
        out = machine.read_global("out")
        assert out[1] == 128
        assert 60 < out[0] < 60 + 60 * 128

    def test_loads_under_a_data_fault_plan(self, golden):
        # Corrupted producer stores poison frame words; the PL block's
        # fourth LOAD meets the first poisoned one, scrubs it and
        # squashes the thread for re-execution.
        def build():
            b = writer()
            for i in range(6):
                b.slot(f"x{i}")
            with b.block(BlockKind.PL):
                b.load("rout", "out")
                for i in range(6):
                    b.load(f"r{i}", f"x{i}")
            with b.block(BlockKind.EX):
                b.li("acc", 0)
                for i in range(6):
                    b.add("acc", "acc", f"r{i}")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        config = small_config().with_faults("seed=3,data_store_corrupt=0.5")
        machine, result, _ = run_activity_pinned(
            golden, "data_fault_loads",
            single_thread(build, stores={
                0: ObjRef("out"), **{i + 1: 100 + i for i in range(6)}
            }),
            config=config,
        )
        assert machine.read_global("out")[0] == sum(range(100, 106))
        assert result.stats.faults.thread_reexecs == 1


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestEndlessLoop:
    def test_endless_ex_loop_hits_max_cycles(self):
        # An ALU loop that never exits must still return to the engine,
        # so the run stops at max_cycles instead of spinning in one tick.
        b = writer()
        with b.block(BlockKind.PL):
            b.load("rout", "out")
        with b.block(BlockKind.EX):
            b.li("x", 0)
            b.label("top")
            b.addi("x", "x", 1)
            b.jmp("top")
            b.write("rout", 0, "x")
            b.stop()
        machine = Machine(small_config())
        machine.load(single_thread(lambda: b)())
        with time_limit(60), pytest.raises(SimulationLimitExceeded):
            machine.run(max_cycles=20_000)


class TestObservedWindows:
    def test_tracer_sees_the_per_cycle_event_stream(self, golden):
        # Run-ahead stays on under a tracer: the SPU traces only at
        # dispatch, yield-dma and thread-stop, always in the engine's
        # cycle.  The event stream is pinned, so a run-ahead that
        # changed what the tracer sees fails here.
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

        _, result, events = run_pinned(golden, "tracer", build)
        golden.check("spu/tracer_events", {
            "cycles": result.cycles, "events": golden.digest(events),
        })

    @pytest.mark.parametrize("name", ("bitcnt", "mmul", "zoom"))
    def test_profile_equals_per_cycle_reference(self, name, monkeypatch):
        # Eight SPEs and 7-cycle buckets: run-aheads straddle bucket
        # boundaries and land after other adds in the same bucket.  Only
        # the engine's host-work count may differ.
        def profile():
            config = paper_config(8)
            _, prof = profile_workload(
                builders("test")[name](), config,
                hub_config=HubConfig(bucket_cycles=7),
            )
            data = prof.to_dict()
            return data, data["totals"].pop("engine_ticks")

        observed, ticks = profile()
        per_cycle(monkeypatch)
        reference, ref_ticks = profile()
        assert observed == reference
        assert ticks < ref_ticks
