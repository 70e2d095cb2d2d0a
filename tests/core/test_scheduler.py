"""Distributed scheduler: FALLOC routing, fork/join, remote stores, FFREE.

Exercised end-to-end through small machines — the scheduler protocol is
distributed state and is best validated by behaviour.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.activity import GlobalObject, ObjRef, SpawnSpec
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.testing import run_templates, small_config


def fork_join_activity(workers: int, worker_template_id: int = 1):
    """Root forks N children; each child adds its index into a join thread
    slot chain; join writes the count of tokens received."""
    root = ThreadBuilder("root")
    out_slot = root.slot("out")
    join_slot = root.slot("join")
    with root.block(BlockKind.PL):
        root.load("rout", out_slot)
        root.load("rjoin", join_slot)
    with root.block(BlockKind.PS):
        for k in range(workers):
            root.falloc(f"rw{k}", worker_template_id, 2)
        for k in range(workers):
            root.li("idx", k)
            root.store(f"rw{k}", 0, "idx")
            root.store(f"rw{k}", 1, "rjoin")
        root.stop()

    worker = ThreadBuilder("worker")
    worker.slot("idx")
    worker.slot("join")
    with worker.block(BlockKind.PL):
        worker.load("i", 0)
        worker.load("rjoin", 1)
    with worker.block(BlockKind.EX):
        worker.muli("v", "i", 10)
    with worker.block(BlockKind.PS):
        worker.store("rjoin", 2, "v")
        worker.stop()

    join = ThreadBuilder("join")
    join.slot("out")
    join.slot("unused")
    join.slot("last")
    with join.block(BlockKind.PL):
        join.load("rout", 0)
    with join.block(BlockKind.EX):
        join.li("done", 1)
        join.write("rout", 0, "done")
        join.stop()
    return root, worker, join


class TestForkJoin:
    @pytest.mark.parametrize("spes", [1, 2, 4])
    def test_fork_join_completes_on_any_machine(self, spes):
        from repro.core.activity import SpawnRef

        root, worker, join = fork_join_activity(workers=6)
        res = run_templates(
            templates=[root.build(), worker.build(), join.build()],
            spawns=[
                SpawnSpec(template="join", stores={0: ObjRef("out")},
                          extra_sc=6),
                SpawnSpec(template="root",
                          stores={0: ObjRef("out"), 1: SpawnRef(0)}),
            ],
            globals_=[GlobalObject.zeros("out", 1)],
            config=small_config(num_spes=spes),
        )
        assert res.word("out") == 1
        # 1 join + 1 root + 6 workers
        assert res.machine.threads_created == 8
        assert res.machine.threads_completed == 8

    def test_dse_least_loaded_spreads_threads(self):
        from repro.core.activity import SpawnRef

        root, worker, join = fork_join_activity(workers=8)
        res = run_templates(
            templates=[root.build(), worker.build(), join.build()],
            spawns=[
                SpawnSpec(template="join", stores={0: ObjRef("out")},
                          extra_sc=8),
                SpawnSpec(template="root",
                          stores={0: ObjRef("out"), 1: SpawnRef(0)}),
            ],
            globals_=[GlobalObject.zeros("out", 1)],
            config=small_config(num_spes=4),
        )
        executed = [s.spu_stats.threads_executed for s in res.machine.spes]
        # Least-loaded routing must not pile everything on one SPE.
        assert sum(1 for e in executed if e > 0) >= 3

    def test_remote_stores_cross_spes(self):
        from repro.core.activity import SpawnRef

        root, worker, join = fork_join_activity(workers=8)
        res = run_templates(
            templates=[root.build(), worker.build(), join.build()],
            spawns=[
                SpawnSpec(template="join", stores={0: ObjRef("out")},
                          extra_sc=8),
                SpawnSpec(template="root",
                          stores={0: ObjRef("out"), 1: SpawnRef(0)}),
            ],
            globals_=[GlobalObject.zeros("out", 1)],
            config=small_config(num_spes=4),
        )
        assert res.result.stats.scheduler.remote_stores > 0


class TestRoundRobinPolicy:
    def test_round_robin_distributes_cyclically(self):
        from repro.core.activity import SpawnRef

        cfg = small_config(num_spes=4)
        cfg = cfg.replace(dse=dataclasses.replace(cfg.dse, policy="round-robin"))
        root, worker, join = fork_join_activity(workers=8)
        res = run_templates(
            templates=[root.build(), worker.build(), join.build()],
            spawns=[
                SpawnSpec(template="join", stores={0: ObjRef("out")},
                          extra_sc=8),
                SpawnSpec(template="root",
                          stores={0: ObjRef("out"), 1: SpawnRef(0)}),
            ],
            globals_=[GlobalObject.zeros("out", 1)],
            config=cfg,
        )
        assert res.word("out") == 1
        executed = [s.spu_stats.threads_executed for s in res.machine.spes]
        assert all(e > 0 for e in executed)


class TestFFree:
    def test_explicit_ffree_of_own_frame(self):
        """A thread may FFREE its own frame in PS; STOP must not double-free."""
        t = ThreadBuilder("selfree")
        t.slot("out")
        t.slot("self")  # its own handle, stored by the spawner trick below
        with t.block(BlockKind.PL):
            t.load("rout", 0)
            t.load("rself", 1)
        with t.block(BlockKind.EX):
            t.li("v", 5)
            t.write("rout", 0, "v")
        with t.block(BlockKind.PS):
            t.ffree("rself")
            t.stop()
        # The spawner cannot know the handle in advance, so a parent
        # forks the thread and stores the child handle into the child.
        parent = ThreadBuilder("parent")
        parent.slot("out")
        with parent.block(BlockKind.PL):
            parent.load("rout", 0)
        with parent.block(BlockKind.PS):
            parent.falloc("rc", 1, 2)
            parent.store("rc", 0, "rout")
            parent.store("rc", 1, "rc")
            parent.stop()
        res = run_templates(
            templates=[parent.build(), t.build()],
            spawns=[SpawnSpec(template="parent", stores={0: ObjRef("out")})],
            globals_=[GlobalObject.zeros("out", 1)],
        )
        assert res.word("out") == 5
        # Both frames freed exactly once each.
        assert res.result.stats.scheduler.ffrees == 2

    def test_ffree_of_unallocated_frame_faults(self):
        from repro.core.lse import SchedulerError

        t = ThreadBuilder("badfree")
        t.slot("x")
        with t.block(BlockKind.PL):
            t.load("r", 0)
        with t.block(BlockKind.PS):
            t.li("bogus", 0x50)  # a frame address that is free
            t.ffree("bogus")
            t.stop()
        from repro.testing import run_program

        with pytest.raises(SchedulerError):
            run_program(t, stores={"x": 1})


def store_burst(alu_ops: int = 0):
    """Templates and spawns of two burst threads that each STORE 40 times
    into one sink frame, every STORE followed by ``alu_ops`` ALU ops; the
    sink WRITEs 7 to ``out`` once every store has arrived."""
    from repro.core.activity import SpawnRef

    burst = ThreadBuilder("burst")
    burst.slot("join")
    with burst.block(BlockKind.PL):
        burst.load("rjoin", 0)
    with burst.block(BlockKind.PS):
        burst.li("v", 1)
        for _ in range(40):
            burst.store("rjoin", 1, "v")
            for _ in range(alu_ops):
                burst.addi("v", "v", 1)
        burst.stop()
    sink = ThreadBuilder("sink")
    sink.slot("out")
    with sink.block(BlockKind.PL):
        sink.load("rout", 0)
    with sink.block(BlockKind.EX):
        sink.li("d", 7)
        sink.write("rout", 0, "d")
        sink.stop()
    spawns = [SpawnSpec(template="sink", stores={0: ObjRef("out")},
                        extra_sc=80)]
    spawns += [SpawnSpec(template="burst", stores={0: SpawnRef(0)})] * 2
    return [burst.build(), sink.build()], spawns


def run_store_burst(alu_ops: int = 0):
    """Two :func:`store_burst` threads on two SPEs, run to completion."""
    templates, spawns = store_burst(alu_ops=alu_ops)
    res = run_templates(
        templates=templates,
        spawns=spawns,
        globals_=[GlobalObject.zeros("out", 1)],
        config=small_config(num_spes=2),
    )
    assert res.word("out") == 7
    return res


def watch_spu_queue(monkeypatch):
    """Record the LSEs' SPU-side request count before each LSE tick;
    returns a function giving the largest count seen."""
    from repro.core.lse import LSE

    peak = [0]
    tick = LSE.tick

    def watched(lse, now):
        peak[0] = max(peak[0], lse._spu_queue_len)
        return tick(lse, now)

    monkeypatch.setattr(LSE, "tick", watched)
    return lambda: peak[0]


def count_refused_requests(monkeypatch):
    """Count the SPU requests an LSE refuses because its queue is full;
    returns a function giving the count."""
    from repro.core.lse import LSE

    refused = [0]
    request = LSE.request

    def counted(lse, handler, args):
        accepted = request(lse, handler, args)
        refused[0] += not accepted
        return accepted

    monkeypatch.setattr(LSE, "request", counted)
    return lambda: refused[0]


def count_lse_queue_waits(monkeypatch):
    """Count the times an SPU blocks on a full LSE request queue;
    returns a function giving the count."""
    from repro.cell.spu import SPU

    waits = [0]
    block = SPU._block_external

    def counted(spu, kind, *args, **kwargs):
        if kind == "lse_queue":
            waits[0] += 1
        return block(spu, kind, *args, **kwargs)

    monkeypatch.setattr(SPU, "_block_external", counted)
    return lambda: waits[0]


class TestBackpressure:
    """A full LSE request queue back-pressures the SPU.

    Two burst threads on two SPEs STORE into one sink frame.  The sink's
    LSE serves its own SPU's stores and the other SPE's remote ones, so
    its SPU-side queue fills.  A STORE first in its cycle then blocks the
    pipeline until the LSE serves a request (the blocked path); a STORE
    after an ALU op in the same cycle tries again next cycle (the retry
    path).  The goldens pin both paths' timing.
    """

    def test_store_burst_hits_lse_queue_limit(self, monkeypatch):
        """A long run of back-to-back STOREs must fill the LSE's queue
        and surface as LSE-stall cycles, not lost stores."""
        from repro.core.lse import LSE

        peak = watch_spu_queue(monkeypatch)
        res = run_store_burst()
        assert peak() == LSE.SPU_QUEUE_CAPACITY
        assert res.result.stats.spus[0].breakdown.lse_stall > 0

    @pytest.mark.parametrize(
        "key, alu_ops, waits, retries",
        [("lse/store_burst", 0, 16, 0), ("lse/store_alu_burst", 2, 10, 11)],
    )
    def test_backpressure_bit_identical(self, key, alu_ops, waits, retries,
                                        golden, monkeypatch):
        from ..integration.test_fastpath import engine_totals

        blocked = count_lse_queue_waits(monkeypatch)
        refused = count_refused_requests(monkeypatch)
        res = run_store_burst(alu_ops)
        assert blocked() == waits
        # A refusal that does not block the pipeline is a retry.
        assert refused() - blocked() == retries
        golden.check(key, {
            "cycles": res.cycles,
            "stats": golden.digest(dataclasses.asdict(res.result.stats)),
            **engine_totals(res.machine.engine),
        })
