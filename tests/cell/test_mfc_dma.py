"""MFC / DMA: transfers, tags, chunking, queue limits, PF-block yields."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.activity import GlobalObject, ObjRef
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.sim.stats import Bucket
from repro.testing import run_program, small_config


def dma_copy_program(words: int, tag: int = 0, use_dmawait_in_ex: bool = False):
    """PF prefetches ``words`` from ``src``; EX copies them to ``out``."""
    b = ThreadBuilder("dma_copy")
    src = b.slot("src")
    out = b.slot("out")
    buf_slot = b.slot("bufp")
    with b.block(BlockKind.PF):
        b.lsalloc("buf", 4 * words)
        b.load("rs", src)
        b.dmaget("buf", "rs", 4 * words, tag=tag)
        b.storef(buf_slot, "buf")
    with b.block(BlockKind.PL):
        b.load("rout", out)
        b.load("rbuf", buf_slot)
    with b.block(BlockKind.EX):
        if use_dmawait_in_ex:
            b.dmawait(tag)
        for i in range(words):
            b.lload("v", "rbuf", 4 * i)
            b.write("rout", 4 * i, "v")
        b.stop()
    return b


def run_copy(words: int = 8, config=None, **kw):
    data = tuple(range(1, words + 1))
    b = dma_copy_program(words, **kw)
    res = run_program(
        b,
        stores={"src": ObjRef("src"), "out": ObjRef("out")},
        globals_=[GlobalObject("src", data), GlobalObject.zeros("out", words)],
        config=config,
    )
    return res, list(data)


class TestDmaTransfers:
    def test_prefetched_data_is_correct(self):
        res, data = run_copy(words=8)
        assert res.read_global("out") == data

    def test_large_transfer_is_chunked(self):
        # 64 words = 256 B > the 128 B max transfer -> 2 chunks.
        res, data = run_copy(words=64)
        assert res.read_global("out") == data
        assert res.machine.spes[0].mfc_stats.commands == 1
        assert res.machine.spes[0].mfc_stats.bytes_transferred == 256

    def test_early_chunk_responses_at_low_latency(self):
        # 32 chunks at 1-cycle latency: chunk 0 answers while later
        # chunks of the same command are still issuing.
        res, data = run_copy(
            words=1024, config=small_config().with_latency(1)
        )
        assert res.read_global("out") == data
        assert res.machine.spes[0].mfc_stats.commands == 1

    def test_dmawait_in_ex_blocks_until_done(self):
        res, data = run_copy(words=4, use_dmawait_in_ex=True)
        assert res.read_global("out") == data

    def test_prefetch_overhead_bucket_charged(self):
        res, _ = run_copy(words=8)
        bd = res.result.stats.spus[0].breakdown
        # The DMAGET command latency (30 cycles) lands in Prefetching.
        assert bd.prefetch >= 30

    def test_thread_yields_at_pf_end(self):
        """With a long memory latency the thread must be in WAIT_DMA, not
        spinning: the SPU goes idle (1 thread) instead of stalling."""
        res, data = run_copy(
            words=8, config=small_config(num_spes=1).with_latency(400)
        )
        assert res.read_global("out") == data
        bd = res.result.stats.spus[0].breakdown
        # The DMA flight time shows up as idle (pipeline released), and
        # crucially NOT as memory stalls.
        assert bd.idle > 300
        assert bd.mem_stall == 0


class TestMfcQueue:
    def test_queue_full_backpressure(self):
        """More outstanding commands than queue entries must retry, not drop."""
        cfg = small_config(num_spes=1)
        cfg = cfg.replace(mfc=dataclasses.replace(cfg.mfc, command_queue_size=2))
        words = 4
        b = ThreadBuilder("many_dmas")
        src = b.slot("src")
        out = b.slot("out")
        bufs = [b.slot(f"buf{i}") for i in range(6)]
        with b.block(BlockKind.PF):
            b.load("rs", src)
            for i in range(6):
                b.lsalloc("buf", 4 * words)
                b.dmaget("buf", "rs", 4 * words, tag=i)
                b.storef(bufs[i], "buf")
        with b.block(BlockKind.PL):
            b.load("rout", out)
            b.load("rbuf", bufs[5])
        with b.block(BlockKind.EX):
            b.lload("v", "rbuf", 0)
            b.write("rout", 0, "v")
            b.stop()
        res = run_program(
            b,
            stores={"src": ObjRef("src"), "out": ObjRef("out")},
            globals_=[GlobalObject("src", (42, 2, 3, 4)),
                      GlobalObject.zeros("out", 1)],
            config=cfg,
        )
        assert res.word("out") == 42
        assert res.machine.spes[0].mfc_stats.queue_full_rejections > 0

    def test_bad_dma_size_rejected(self):
        from repro.cell.local_store import LocalStore
        from repro.cell.mfc import MFC, DmaKind
        from repro.sim.config import LocalStoreConfig, MFCConfig

        mfc = MFC("m", 0, MFCConfig(), LocalStore(LocalStoreConfig()))
        with pytest.raises(ValueError):
            mfc.enqueue(DmaKind.GET, 0, 0, 6, 0, 0)  # not a word multiple
        with pytest.raises(ValueError):
            mfc.enqueue(DmaKind.GET, 0, 0, 0, 0, 0)


class TestNonBlockingOverlap:
    def test_second_thread_runs_while_first_waits_for_dma(self):
        """The paper's headline mechanism: a thread in Wait-for-DMA
        releases the pipeline and another ready thread executes."""
        from repro.core.activity import SpawnSpec
        from repro.testing import run_templates

        words = 16
        dma_b = dma_copy_program(words)
        alu = ThreadBuilder("alu_work")
        out2 = alu.slot("out2")
        with alu.block(BlockKind.PL):
            alu.load("rout", out2)
        with alu.block(BlockKind.EX):
            alu.li("acc", 0)
            with alu.for_range("i", 0, 50):
                alu.addi("acc", "acc", 3)
            alu.write("rout", 0, "acc")
            alu.stop()

        res = run_templates(
            templates=[dma_b.build(), alu.build()],
            spawns=[
                SpawnSpec(
                    template="dma_copy",
                    stores={dma_b.slot("src"): ObjRef("src"),
                            dma_b.slot("out"): ObjRef("out")},
                ),
                SpawnSpec(
                    template="alu_work",
                    stores={alu.slot("out2"): ObjRef("out2")},
                ),
            ],
            globals_=[
                GlobalObject("src", tuple(range(words))),
                GlobalObject.zeros("out", words),
                GlobalObject.zeros("out2", 1),
            ],
            config=small_config(num_spes=1).with_latency(300),
        )
        assert res.read_global("out") == list(range(words))
        assert res.word("out2") == 150
        # The ALU thread's work overlapped the DMA flight: total time is
        # far below the serialized sum (DMA wait + ALU work done back to
        # back would stall ~300 cycles doing nothing).
        bd = res.result.stats.spus[0].breakdown
        assert bd.working > 50  # the ALU thread actually ran
        assert bd.mem_stall == 0
