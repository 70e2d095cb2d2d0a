"""Optional architecture features: virtual frames, XP pipelines, multi-node."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.runner import run_workload
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


class TestMultiNode:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_results_correct_on_any_node_count(self, nodes):
        wl = matmul.build(n=8, threads=8)
        cfg = small_config(num_spes=4).replace(num_nodes=nodes)
        run_workload(wl, cfg, prefetch=False)

    def test_each_node_has_a_dse(self):
        from repro.cell.machine import Machine

        cfg = small_config(num_spes=4).replace(num_nodes=2)
        m = Machine(cfg)
        assert len(m.dses) == 2
        assert m.dses[0].spe_ids == [0, 1]
        assert m.dses[1].spe_ids == [2, 3]

    def test_inter_node_latency_slows_execution(self):
        # A small frame table forces the fork storm to spill onto node 1,
        # so scheduler traffic actually crosses the node boundary.
        wl = bitcount.build(iterations=8, unroll=4)
        near = lse_variant(
            small_config(num_spes=4).replace(
                num_nodes=2, inter_node_latency=0
            ),
            num_frames=8,
        )
        far = lse_variant(
            small_config(num_spes=4).replace(
                num_nodes=2, inter_node_latency=200
            ),
            num_frames=8,
        )
        t_near = run_workload(wl, near, prefetch=False).cycles
        t_far = run_workload(wl, far, prefetch=False).cycles
        assert t_far > t_near

    def test_full_node_forwards_to_neighbour(self):
        """With a tiny frame table on node 0, the fork storm must spill to
        node 1 via DSE forwarding."""
        wl = bitcount.build(iterations=8, unroll=4)
        cfg = small_config(num_spes=4).replace(num_nodes=2)
        cfg = lse_variant(cfg, num_frames=8)
        res = run_workload(wl, cfg, prefetch=False)
        from repro.cell.machine import Machine

        m = Machine(cfg)
        m.load(wl.activity)
        m.run()
        executed = [s.spu_stats.threads_executed for s in m.spes]
        assert sum(1 for e in executed if e) >= 3


class TestReadyPolicy:
    def test_fifo_policy_also_correct_for_flat_workloads(self):
        wl = matmul.build(n=4, threads=4)
        cfg = lse_variant(small_config(num_spes=2), ready_policy="fifo")
        run_workload(wl, cfg, prefetch=True)

    def test_lifo_bounds_fork_tree_frames(self):
        """LIFO (depth-first) keeps live frames bounded where FIFO lets
        the fork storm exhaust the table."""
        wl = bitcount.build(iterations=16, unroll=8)
        lifo = lse_variant(small_config(num_spes=1), num_frames=24,
                           ready_policy="lifo")
        run_workload(wl, lifo, prefetch=False)  # completes
