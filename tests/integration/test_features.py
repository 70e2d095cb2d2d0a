"""Optional architecture features: virtual frames, XP pipelines."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.runner import run_workload
from repro.bench.scale import builders
from repro.core.lse import SchedulerError
from repro.sim.config import MachineConfig, paper_config
from repro.sim.engine import SimulationDeadlock
from repro.sim.stats import Bucket
from repro.testing import small_config
from repro.workloads import bitcount, colsum, matmul, zoom


def lse_variant(base: MachineConfig, **changes) -> MachineConfig:
    return base.replace(lse=dataclasses.replace(base.lse, **changes))


class TestVirtualFramePointers:
    def test_tiny_frame_table_deadlocks_without_virtual(self):
        wl = bitcount.build(iterations=8, unroll=4)
        cfg = lse_variant(small_config(num_spes=2), num_frames=3)
        with pytest.raises(SimulationDeadlock):
            run_workload(wl, cfg, prefetch=False)

    def test_virtual_frames_complete_and_are_correct(self):
        wl = bitcount.build(iterations=8, unroll=4)
        cfg = lse_variant(
            small_config(num_spes=2), num_frames=3, virtual_frame_pointers=True
        )
        res = run_workload(wl, cfg, prefetch=False)
        assert res.cycles > 0

    def test_virtual_frames_with_prefetch(self):
        wl = bitcount.build(iterations=8, unroll=4)
        cfg = lse_variant(
            small_config(num_spes=2), num_frames=3, virtual_frame_pointers=True
        )
        run_workload(wl, cfg, prefetch=True)

    def test_virtual_depth_limit_restores_exhaustion(self):
        """A virtual pool that is itself tiny degrades back to physical
        behaviour: allocs queue behind blocked forkers and the fork storm
        wedges again.  The feature's value is precisely its depth."""
        wl = bitcount.build(iterations=8, unroll=4)
        cfg = lse_variant(
            small_config(num_spes=2),
            num_frames=3,
            virtual_frame_pointers=True,
            virtual_frame_depth=2,
        )
        with pytest.raises(SimulationDeadlock):
            run_workload(wl, cfg, prefetch=False)


class TestDualPipelines:
    def test_results_identical_with_xp_offload(self):
        wl = matmul.build(n=4, threads=4)
        cfg = lse_variant(small_config(num_spes=2), dual_pipelines=True)
        run_workload(wl, cfg, prefetch=True)  # verifies the oracle

    def test_xp_offload_removes_spu_prefetch_overhead(self):
        wl = zoom.build(n=8, z=2, threads=4)
        base_cfg = paper_config(2)
        dual_cfg = lse_variant(base_cfg, dual_pipelines=True)
        with_spu_pf = run_workload(wl, base_cfg, prefetch=True)
        with_xp_pf = run_workload(wl, dual_cfg, prefetch=True)
        assert (
            with_xp_pf.stats.average_breakdown.prefetch
            < with_spu_pf.stats.average_breakdown.prefetch
        )

    def test_xp_offload_never_runs_pf_on_spu(self):
        wl = matmul.build(n=4, threads=2)
        cfg = lse_variant(paper_config(1), dual_pipelines=True)
        res = run_workload(wl, cfg, prefetch=True)
        assert res.stats.average_breakdown.prefetch == 0
        # PF instructions never enter the SPU's dynamic mix.
        assert res.stats.mix.by_opcode["DMAGET"] == 0
        assert res.stats.mfc.commands > 0  # but the DMA happened

    def test_xp_ignored_without_pf_blocks(self):
        wl = matmul.build(n=4, threads=2)
        cfg = lse_variant(small_config(num_spes=1), dual_pipelines=True)
        run_workload(wl, cfg, prefetch=False)

    def test_xp_rejects_a_pf_op_it_cannot_run(self):
        # The XP pipeline runs frame LOADs and STOREFs, LSALLOC, DMAGET
        # and ALU ops; a strided gather's DMAGETS is none of them.
        wl = colsum.build(n=8, mode="gather")
        cfg = lse_variant(paper_config(2), dual_pipelines=True)
        with pytest.raises(SchedulerError, match="cannot execute DMAGETS"):
            run_workload(wl, cfg, prefetch=True)

    @pytest.mark.parametrize("queue", [2, 3])
    def test_xp_waits_for_mfc_room_for_the_whole_pf_block(self, queue):
        # Each of mmul's PF blocks issues 2 DMAGETs: the XP pipeline
        # waits until the MFC queue has room for both, not just one.
        wl = builders("test")["mmul"]()
        cfg = paper_config(2)
        cfg = lse_variant(
            cfg.replace(mfc=dataclasses.replace(
                cfg.mfc, command_queue_size=queue)),
            dual_pipelines=True,
        )
        res = run_workload(wl, cfg, prefetch=True)  # verifies the oracle
        assert res.stats.mfc.commands > 0

    def test_xp_rejects_a_pf_block_larger_than_the_mfc_queue(self):
        wl = builders("test")["mmul"]()
        cfg = paper_config(2)
        cfg = lse_variant(
            cfg.replace(mfc=dataclasses.replace(
                cfg.mfc, command_queue_size=1)),
            dual_pipelines=True,
        )
        with pytest.raises(SchedulerError,
                           match="2 DMAGETs; the MFC queue holds 1"):
            run_workload(wl, cfg, prefetch=True)


class TestReadyPolicy:
    def test_lifo_bounds_fork_tree_frames(self):
        """The depth-first (LIFO) ready queue keeps the fork storm's live
        frames within a small table."""
        wl = bitcount.build(iterations=16, unroll=8)
        cfg = lse_variant(small_config(num_spes=1), num_frames=24)
        run_workload(wl, cfg, prefetch=False)  # completes
