"""Posted ops: WRITE, STORE and FFREE issue ahead of the engine, exactly.

``SPU._issue_cycle`` issues a posted op in a cycle ahead of the engine:
its operands and its store-queue credit or LSE-queue slot there, and
what it does outside the SPU (the bus message or LSE request, the data
cache's write-through, ``thread.side_effects``) in this SPU's own tick
at the op's cycle, the dispatch slot where the per-cycle SPU does the
same (docs/PERFORMANCE.md, "Posted ops").  Each mini-program below puts
one condition of that on the critical path:

* the store queue is full ahead: a run-ahead may post only the credits
  left when it began;
* the LSE queue is full ahead: likewise for its SPU-side slots;
* a WRITE, STORE or FFREE pairs with an ALU op in one cycle;
* two SPUs post to the bus in the same cycle;
* a data-fault plan, which corrupts posted STOREs in transit;
* the data cache, whose write-through a later READ hits;
* a checkpoint taken with posts pending.

Each runs plain and observed (a hub with 3-cycle buckets plus a tracer)
and must match the per-cycle reference (``_WINDOW_CYCLES = 1``, so no
tick issues past the engine's cycle) in cycles, stats, outputs, trace
events and hub dump, and in what the SPUs do outside themselves: every
bus message, LSE request and data-cache write-through, and the cycle
each thread first has side effects, in the same cycle and order.  Each
test also checks from the SPUs' ticks that its condition really arose.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import pytest

from repro.cell import spu, units
from repro.cell.bus import Bus
from repro.cell.cache import DataCache
from repro.cell.machine import Machine
from repro.core.activity import (
    GlobalObject,
    ObjRef,
    SpawnRef,
    SpawnSpec,
    TLPActivity,
)
from repro.core.lse import LSE
from repro.core.thread import ThreadInstance
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.obs.hub import HubConfig, MetricsHub
from repro.obs.trace import Tracer
from repro.sim.config import CacheConfig
from repro.sim.engine import SimulationLimitExceeded
from repro.testing import small_config

WRITE = units.POST_CODES["WRITE"]
STORE = units.POST_CODES["STORE"]
FFREE = units.POST_CODES["FFREE"]
NAMES = {code: name for name, code in units.POST_CODES.items()}

#: Store-queue credits: few enough for back-to-back WRITEs to use them
#: all before the first WriteAck returns.
CREDITS = 2


class Tick(NamedTuple):
    """One SPU tick as :func:`watch` saw it."""

    cycle: int
    spe: int
    #: The code of the posted op the tick performed, or None.
    performed: "int | None"
    #: The posts pending when the tick returned.
    pending: tuple
    #: Store-queue credits in use and LSE SPU-side slots taken then.
    writes: int
    requests: int


def watch(mp) -> list:
    """Record every SPU tick of the runs under ``mp`` (see :class:`Tick`)."""
    ticks: list[Tick] = []
    tick = spu.SPU.tick

    def watched(self, now):
        posts = self._posts
        performed = posts[0][1] if posts and posts[0][0] == now else None
        nxt = tick(self, now)
        ticks.append(Tick(now, self.spe_id, performed, tuple(self._posts),
                          self._outstanding_writes,
                          self._lse._spu_queue_len))
        return nxt

    mp.setattr(spu.SPU, "tick", watched)
    return ticks


def outside(mp, machine) -> list:
    """Record, with its cycle, what ``machine``'s SPUs do outside
    themselves: bus messages, LSE requests, write-throughs and the first
    side effect of each thread."""
    log: list[tuple] = []
    send, request, write = Bus.send, LSE.request, DataCache.write
    set_ = ThreadInstance.__setattr__

    def sent(bus, dst, msg):
        log.append((machine.engine.now, "send", type(dst).__name__,
                    getattr(dst, "spe_id", None), repr(msg)))
        send(bus, dst, msg)

    def requested(lse, handler, args):
        accepted = request(lse, handler, args)
        log.append((machine.engine.now, "request", lse.name,
                    handler.__name__, accepted))
        return accepted

    def written(cache, addr, value):
        log.append((machine.engine.now, "write-through", cache.name, addr,
                    value))
        write(cache, addr, value)

    def setattr_(thread, name, value):
        if (name == "side_effects" and value
                and not getattr(thread, name, True)):
            log.append((machine.engine.now, "side effects", thread.tid))
        set_(thread, name, value)

    mp.setattr(Bus, "send", sent)
    mp.setattr(LSE, "request", requested)
    mp.setattr(DataCache, "write", written)
    mp.setattr(ThreadInstance, "__setattr__", setattr_)
    return log


def _run(make_activity, config, observe):
    machine = Machine(config)
    tracer = None
    if observe:
        machine.attach_hub(MetricsHub(HubConfig(bucket_cycles=3)))
        tracer = Tracer()
        machine.attach_tracer(tracer)
    activity = make_activity()
    machine.load(activity)
    with pytest.MonkeyPatch.context() as mp:
        log = outside(mp, machine)
        result = machine.run()
    return machine, result.stats, {
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "caches": [dataclasses.asdict(spe.cache.stats)
                   for spe in machine.spes if spe.cache is not None],
        "outputs": {obj.name: machine.read_global(obj.name)
                    for obj in activity.globals},
        "outside": log,
        "events": ([e.to_dict() for e in tracer.events]
                   if observe else None),
        "hub": machine.hub.to_dict() if observe else None,
    }


def check(make_activity, config=None):
    """Run ``make_activity()`` plain and observed, each against the
    per-cycle reference; returns the plain run's machine, stats and
    ticks."""
    config = config if config is not None else small_config()
    with pytest.MonkeyPatch.context() as mp:
        ticks = watch(mp)
        machine, stats, plain = _run(make_activity, config, observe=False)
    _, _, observed = _run(make_activity, config, observe=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spu, "_WINDOW_CYCLES", 1)
        _, _, reference = _run(make_activity, config, observe=False)
        _, _, observed_reference = _run(make_activity, config, observe=True)
    assert plain == reference
    assert observed == observed_reference
    assert observed["stats"] == plain["stats"]
    assert any(t.performed is not None for t in ticks), "nothing posted"
    return machine, stats, ticks


def activity(*programs, spawns, globals_=None):
    """An activity factory over ``programs`` (builders, built afresh)."""
    def make():
        return TLPActivity(
            name="t",
            templates=[p.build() for p in programs],
            globals_=globals_ or [GlobalObject.zeros("out", 4)],
            spawns=spawns,
        )
    return make


def writer(name="t"):
    """A thread builder whose PL block loads ``out`` (slot 0)."""
    b = ThreadBuilder(name)
    b.slot("out")
    with b.block(BlockKind.PL):
        b.load("rout", "out")
    return b


def sink(count, name="sink"):
    """A thread that waits for ``count`` STOREs into its slots 1-8 and
    WRITEs their sum to ``out``, and its spawn."""
    b = writer(name)
    for i in range(8):
        b.slot(f"s{i}")
    with b.block(BlockKind.PL):
        for i in range(8):
            b.load(f"v{i}", f"s{i}")
    with b.block(BlockKind.EX):
        for i in range(1, 8):
            b.add("v0", "v0", f"v{i}")
        b.write("rout", 0, "v0")
        b.stop()
    return b, SpawnSpec(template=name, stores={0: ObjRef("out")},
                        extra_sc=count)


def storer(count, step=0):
    """A thread that STOREs ``count`` values, 5 on and ``step`` apart,
    back to back into slots 1-8 of the frame its slot 1 names."""
    b = writer()
    b.slot("sink")
    with b.block(BlockKind.PL):
        b.load("rs", "sink")
    with b.block(BlockKind.EX):
        b.li("v", 5)
    with b.block(BlockKind.PS):
        for i in range(count):
            b.store("rs", 1 + i % 8, "v")
            if step:
                b.addi("v", "v", step)
        b.stop()
    return b


class TestRoom:
    def test_store_queue_full_ahead(self):
        # Twenty WRITEs a cycle apart and two store-queue credits: a
        # run-ahead posts the credits left when it began and hands the
        # next WRITE back to the engine, which waits for a WriteAck.
        config = small_config()
        config = config.replace(spu=dataclasses.replace(
            config.spu, store_queue_size=CREDITS,
        ))
        b = writer()
        with b.block(BlockKind.EX):
            b.li("v", 0)
            for i in range(20):
                b.addi("v", "v", 1)
                b.write("rout", 4 * (i % 4), "v")
            b.stop()
        machine, stats, ticks = check(activity(b, spawns=[
            SpawnSpec(template="t", stores={0: ObjRef("out")})
        ]), config)
        assert machine.read_global("out") == [17, 18, 19, 20]
        # Some run-ahead took every credit ahead of the engine.
        assert any(
            t.pending
            and t.writes + sum(p[1] == WRITE for p in t.pending) == CREDITS
            for t in ticks
        )
        assert stats.spus[0].breakdown.mem_stall > 0

    def test_lse_queue_full_ahead(self):
        # Two SPEs, each running a thread that STOREs 48 times back to
        # back into a sink on the other one: each LSE serves its own
        # SPU's requests and the other's StoreMsgs one a cycle, so its
        # SPU-side queue fills.  A run-ahead posts only the slots left
        # when it began and hands the next STORE back to the engine,
        # which waits for a slot.
        sink_a, spawn_a = sink(48, "a")
        sink_b, spawn_b = sink(48, "b")
        machine, _, ticks = check(activity(
            sink_a, sink_b, storer(48),
            spawns=[spawn_a, spawn_b] + [
                SpawnSpec(template="t",
                          stores={0: ObjRef("out"), 1: SpawnRef(other)})
                for other in (1, 0)
            ],
        ), small_config(2))
        assert machine.read_global("out")[0] == 40
        full = LSE.SPU_QUEUE_CAPACITY
        assert any(
            t.pending
            and t.requests + sum(p[1] != WRITE for p in t.pending) == full
            for t in ticks
        )
        assert any(t.requests == full for t in ticks)


class TestPairs:
    def test_posted_ops_pair_with_alu_ops(self):
        # In the loop an ALU op issues with the WRITE that reads its
        # result, and a WRITE with the ALU op that overwrites its
        # address; the parent's STOREs and the child's FFREE of its own
        # frame pair with ALU ops too.
        child = writer("child")
        child.slot("self")
        with child.block(BlockKind.PL):
            child.load("rself", "self")
        with child.block(BlockKind.EX):
            child.li("n", 6)
            child.li("v", 1)
            child.mov("p", "rout")
            child.label("top")
            child.muli("v", "v", 3)
            child.addi("v", "v", 1)
            child.write("p", 0, "v")
            child.write("p", 4, "n")
            child.addi("p", "p", 0)
            child.subi("n", "n", 1)
            child.bnez("n", "top")
        with child.block(BlockKind.PS):
            child.li("t", 1)
            child.ffree("rself")
            child.stop()
        parent = writer("parent")
        with parent.block(BlockKind.PS):
            parent.falloc("rc", 1, 2)
            parent.li("a", 1)
            parent.store("rc", 0, "rout")
            parent.addi("a", "a", 2)
            parent.store("rc", 1, "rc")
            parent.stop()
        machine, stats, ticks = check(activity(parent, child, spawns=[
            SpawnSpec(template="parent", stores={0: ObjRef("out")}),
        ]))
        v = 1
        for _ in range(6):
            v = 3 * v + 1
        assert machine.read_global("out")[:2] == [v, 1]
        assert stats.scheduler.ffrees == 2
        assert {t.performed for t in ticks} >= {WRITE, STORE, FFREE}
        assert stats.spus[0].dual_issue_cycles > 0


class TestTwoSpus:
    def test_two_spus_post_in_the_same_cycle(self):
        # Two writers on two SPEs, one WRITE every 2 and every 3 cycles
        # once their delays end: some of their posts fall in one cycle,
        # where the bus must take them in the SPUs' registration order,
        # as the per-cycle SPUs send them.
        def build(name, pad, delay):
            b = writer(name)
            with b.block(BlockKind.EX):
                b.li("v", 100 * pad)
                b.li("d", delay)
                b.label("wait")
                b.subi("d", "d", 1)
                b.bnez("d", "wait")
                for _ in range(8):
                    b.addi("v", "v", 1)
                    b.write("rout", 0, "v")
                    for _ in range(pad):
                        b.nop()
                b.stop()
            return b

        _, _, ticks = check(activity(
            build("a", 1, 5), build("b", 2, 1),
            spawns=[SpawnSpec(template="a", stores={0: ObjRef("out")}),
                    SpawnSpec(template="b", stores={0: ObjRef("out")})],
            globals_=[GlobalObject.zeros("out", 1)],
        ), small_config(2))
        posted: dict[int, set] = {}
        for t in ticks:
            if t.performed is not None:
                posted.setdefault(t.cycle, set()).add(t.spe)
        assert any(len(spes) == 2 for spes in posted.values())


class TestOutsideState:
    def test_posted_stores_under_a_data_fault_plan(self):
        # The STOREs run ahead of the engine into a sink on the other
        # SPE; in transit some are corrupted, and the sink's LOADs meet
        # the poisoned words, scrub them and squash it for re-execution.
        sink_b, sink_spawn = sink(8)
        config = small_config(2).with_faults(
            "seed=3,data_store_corrupt=0.3")
        machine, stats, ticks = check(activity(
            sink_b, storer(8, step=1),
            spawns=[sink_spawn,
                    SpawnSpec(template="t",
                              stores={0: ObjRef("out"), 1: SpawnRef(0)})],
        ), config)
        assert machine.read_global("out")[0] == sum(range(5, 13))
        assert any(t.performed == STORE for t in ticks)
        faults = stats.faults
        assert faults.data_store_corruptions > 0
        assert faults.frame_scrubs > 0
        assert faults.thread_reexecs > 0

    def test_write_through_the_data_cache(self):
        # The first READ fills the line; the WRITEs to it run ahead and
        # write through; the second READ hits and must see the last one.
        b = writer()
        with b.block(BlockKind.EX):
            b.read("x", "rout", 8)
            b.li("v", 0)
            for i in range(4):
                b.addi("v", "v", 5)
                b.write("rout", 4 * i, "v")
            b.read("y", "rout", 8)
            b.add("y", "y", "x")
            b.write("rout", 12, "y")
            b.stop()
        config = small_config().replace(cache=CacheConfig(enabled=True))
        machine, _, ticks = check(activity(b, spawns=[
            SpawnSpec(template="t", stores={0: ObjRef("out")})
        ], globals_=[GlobalObject("out", (0, 0, 7, 0))]), config)
        assert machine.read_global("out") == [5, 10, 15, 22]
        assert machine.spes[0].cache.stats.hits == 1
        assert sum(t.performed == WRITE for t in ticks) >= 3


class TestPending:
    @staticmethod
    def make():
        b = writer()
        with b.block(BlockKind.EX):
            b.li("v", 0)
            for i in range(6):
                for _ in range(5):
                    b.addi("v", "v", 1)
                b.write("rout", 4 * (i % 4), "v")
            b.stop()
        return activity(b, spawns=[
            SpawnSpec(template="t", stores={0: ObjRef("out")})
        ])()

    def pending_cycles(self):
        """The cycles at which a checkpoint would find posts pending."""
        machine = Machine(small_config())
        machine.load(self.make())
        hits = []

        def observe(path):
            if machine.spes[0].spu._posts:
                hits.append(machine.engine.now)
            return path

        machine.save_checkpoint = observe
        machine.run(checkpoint_at=list(range(1, 1000)), checkpoint_dir=".")
        return hits

    def test_posts_run_as_the_per_cycle_reference(self):
        _, _, ticks = check(self.make)
        assert sum(t.performed == WRITE for t in ticks) == 6

    def test_checkpoint_with_posts_pending_restores(self, tmp_path):
        hits = self.pending_cycles()
        assert hits
        machine = Machine(small_config())
        machine.load(self.make())
        reference = machine.run(checkpoint_at=[hits[len(hits) // 2]],
                                checkpoint_dir=str(tmp_path))
        (path,) = tmp_path.glob("*.ckpt")
        restored = Machine.load_checkpoint(str(path))
        assert restored.spes[0].spu._posts
        result = restored.run()
        assert result.cycles == reference.cycles
        assert result.stats == reference.stats
        assert restored.read_global("out") == machine.read_global("out")

    def test_limit_report_names_pending_posts(self):
        hits = self.pending_cycles()
        machine = Machine(small_config())
        machine.load(self.make())
        with pytest.raises(SimulationLimitExceeded) as info:
            machine.run(max_cycles=hits[0])
        spu_ = machine.spes[0].spu
        assert spu_._posts
        report = str(info.value)
        for cycle, code, *_ in spu_._posts:
            assert f"{NAMES[code]}@{cycle}" in report
        assert f"pipeline stopped at {spu_._resume_at}" in report
