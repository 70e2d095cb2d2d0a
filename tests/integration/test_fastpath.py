"""Hot-path equivalence: speed may change, bits may not.

The decoded-instruction cache, the SPU run-ahead and the engine heap
hygiene (see ``docs/PERFORMANCE.md``) are pure performance work.  This
suite holds them to committed truth rather than to a second copy of the
code: every stat, output and profile of the three paper benchmarks
(test scale, prefetch transform) is pinned in
``tests/golden/digests.json`` under five machine configurations —
plain, three chaos seeds and a recoverable data-fault plan — together
with the hub-observed profile and the functional interpreter's final
memory.  The unprefetched (blocking) variant is pinned plain, under
chaos seed 1 and under the data-fault plan, and the prefetched variant
under the LSE ablations (XP dual pipelines, virtual frame pointers).
Four more prefetched runs pin the DMA ops beside DMAGET (DMAGETS, DMAPUT,
DMAWAIT) and the SPU's retry of a command its full MFC queue refused.
A run under the invariant sanitizer and a run restored from a
mid-run checkpoint must reproduce the plain entry exactly: neither may
perturb the machine.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import PrefetchOptions, prefetch_transform
from repro.core.lse import LSE
from repro.isa.interpreter import run_functional
from repro.obs.hub import HubConfig
from repro.obs.profile import profile_workload
from repro.sim.config import MachineConfig, paper_config
from repro.workloads import colsum, inplace

BENCHMARKS = ("bitcnt", "mmul", "zoom")

#: Same chaos spec as the fault matrix: every timing fault class fires.
CHAOS = ("dma_delay=0.1,dma_drop=0.08,bus_delay=0.05,bus_dup=0.05,"
         "mem_stall=0.05,dma_max_retries=2")

#: Every corrupting fault class, recovered (as in test_faults.py).
DATA = ("data_flip=0.3,data_truncate=0.15,data_ls_stale=0.15,"
        "data_store_corrupt=0.1")


def _entry(golden, workload, machine, result) -> dict:
    workload.verify(machine)
    outputs = {obj: machine.read_global(obj) for obj in workload.oracle}
    return {
        "cycles": result.cycles,
        "stats": golden.digest(dataclasses.asdict(result.stats)),
        "outputs": golden.digest(outputs),
    }


def _run(golden, name: str, config: MachineConfig, prefetch=True,
         engine=False) -> dict:
    """The golden entry of one test-scale run; ``engine=True`` adds the
    engine's dispatch counters (:data:`HOST_TOTALS`) as plain integers."""
    workload = builders("test")[name]()
    machine = Machine(config)
    activity = workload.activity
    machine.load(prefetch_transform(activity) if prefetch else activity)
    entry = _entry(golden, workload, machine, machine.run())
    if engine:
        entry.update(engine_totals(machine.engine))
    return entry


#: Totals that count host work (engine dispatches), not simulated
#: behaviour: pinned as plain integers so a change that saves host work
#: shows as a readable diff, outside any digest.
HOST_TOTALS = ("engine_ticks", "engine_callbacks", "engine_stale_skipped")


def engine_totals(engine) -> dict:
    """``engine``'s dispatch counters under their :data:`HOST_TOTALS`
    names."""
    return {
        "engine_ticks": engine.ticks_dispatched,
        "engine_callbacks": engine.callbacks_dispatched,
        "engine_stale_skipped": engine.stale_skipped,
    }


class TestPlainEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_stats_and_outputs_bit_identical(self, name, golden):
        golden.check(f"{name}/plain", _run(golden, name, MachineConfig()))

    def test_bitcnt_at_2_spes_bit_identical(self, golden):
        # The run whose Python calls test_event_cost.py counts: bitcnt's
        # thread management, with its engine counters.
        golden.check(
            "bitcnt/plain2",
            _run(golden, "bitcnt", paper_config(2), engine=True),
        )


class TestFaultedEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_chaos_runs_bit_identical(self, name, seed, golden):
        config = MachineConfig().with_faults(f"seed={seed},{CHAOS}")
        golden.check(f"{name}/chaos{seed}", _run(golden, name, config))

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_data_fault_runs_bit_identical(self, name, golden):
        config = MachineConfig().with_faults(f"seed=1,{DATA}")
        golden.check(f"{name}/data", _run(golden, name, config))


class TestUnprefetchedEquivalence:
    """The blocking variant: every READ is a bus/memory round trip.

    The plain entries also pin the engine's dispatch counters: work that
    makes each blocking event cheaper must not add or drop one."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_plain_runs_bit_identical(self, name, golden):
        golden.check(
            f"{name}/noprefetch",
            _run(golden, name, MachineConfig(), prefetch=False, engine=True),
        )

    def test_mmul_at_2_spes_bit_identical(self, golden):
        # A second shape for the engine counters: with two SPEs nearly
        # every event belongs to a READ round trip.
        golden.check(
            "mmul/noprefetch2",
            _run(golden, "mmul", paper_config(2), prefetch=False,
                 engine=True),
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_chaos_runs_bit_identical(self, name, golden):
        config = MachineConfig().with_faults(f"seed=1,{CHAOS}")
        golden.check(
            f"{name}/noprefetch_chaos1",
            _run(golden, name, config, prefetch=False),
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_data_fault_runs_bit_identical(self, name, golden):
        config = MachineConfig().with_faults(f"seed=1,{DATA}")
        golden.check(
            f"{name}/noprefetch_data",
            _run(golden, name, config, prefetch=False),
        )


def _lse_config(**changes) -> MachineConfig:
    config = MachineConfig()
    return config.replace(lse=dataclasses.replace(config.lse, **changes))


class TestAblationEquivalence:
    """The LSE ablations: PF blocks on the XP pipeline (A2), virtual
    frame pointers (A3)."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_dual_pipeline_runs_bit_identical(self, name, golden):
        golden.check(
            f"{name}/xp", _run(golden, name, _lse_config(dual_pipelines=True))
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_virtual_frame_runs_bit_identical(self, name, golden):
        golden.check(
            f"{name}/vfp",
            _run(golden, name, _lse_config(virtual_frame_pointers=True)),
        )


def _dma_run(golden, workload, config: MachineConfig,
             options: PrefetchOptions | None = None):
    """The golden entry, engine counters included, of one prefetched run
    of ``workload``, and the run's result."""
    machine = Machine(config)
    machine.load(prefetch_transform(workload.activity, options))
    result = machine.run()
    entry = _entry(golden, workload, machine, result)
    entry.update(engine_totals(machine.engine))
    return entry, result


class TestDmaEquivalence:
    """The DMA ops beside DMAGET, at 2 SPEs: a strided gather (DMAGETS),
    a write-back (DMAPUT and DMAWAIT) with and without the XP pipeline,
    and the SPU retrying a command that its full MFC queue refused."""

    def test_gather_bit_identical(self, golden):
        entry, result = _dma_run(
            golden, colsum.build(n=8, mode="gather"), paper_config(2)
        )
        assert result.stats.mix.by_opcode["DMAGETS"] == 8
        golden.check("dma/gather", entry)

    @pytest.mark.parametrize("xp", (False, True))
    def test_writeback_bit_identical(self, xp, golden, monkeypatch):
        waits = []
        register = LSE.register_dma_waiter

        def counted(self, *args):
            waits.append(args)
            return register(self, *args)

        monkeypatch.setattr(LSE, "register_dma_waiter", counted)
        config = paper_config(2)
        config = config.replace(
            lse=dataclasses.replace(config.lse, dual_pipelines=xp)
        )
        entry, result = _dma_run(
            golden, inplace.build(), config,
            PrefetchOptions(allow_writeback=True),
        )
        mix = result.stats.mix.by_opcode
        # On the XP pipeline the LSE issues the PF block's DMAGETs.
        assert (mix["DMAGET"], mix["DMAPUT"], mix["DMAWAIT"]) == (
            0 if xp else 8, 8, 8
        )
        assert len(waits) == 8  # every DMAWAIT finds its PUT in flight
        golden.check("dma/writeback_xp" if xp else "dma/writeback", entry)

    def test_mfc_retry_bit_identical(self, golden):
        config = paper_config(2)
        config = config.replace(
            mfc=dataclasses.replace(config.mfc, command_queue_size=1)
        )
        entry, result = _dma_run(golden, builders("test")["mmul"](), config)
        assert result.stats.mfc.queue_full_rejections == 1492
        golden.check("dma/mfc_retry", entry)


class TestSanitizedEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_sanitized_runs_bit_identical(self, name, golden):
        config = MachineConfig().replace(sanitize=True)
        golden.check(f"{name}/plain", _run(golden, name, config))


class TestRestoredEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_restored_runs_bit_identical(self, name, golden, tmp_path):
        workload = builders("test")[name]()
        activity = prefetch_transform(workload.activity)
        probe = Machine(MachineConfig())
        probe.load(activity)
        mid = probe.run().cycles // 2
        machine = Machine(MachineConfig())
        machine.load(activity)
        machine.run(checkpoint_at=[mid], checkpoint_dir=str(tmp_path))
        (path,) = tmp_path.glob("*.ckpt")
        restored = Machine.load_checkpoint(str(path))
        golden.check(
            f"{name}/plain", _entry(golden, workload, restored, restored.run())
        )


def _profile_entry(golden, name: str, config: MachineConfig,
                   hub_config: HubConfig | None = None) -> dict:
    workload = builders("test")[name]()
    result, profile = profile_workload(workload, config, hub_config=hub_config)
    data = profile.to_dict()
    host = {key: data["totals"].pop(key) for key in HOST_TOTALS}
    return {
        "cycles": result.cycles,
        "stats": golden.digest(dataclasses.asdict(result.stats)),
        "profile": golden.digest(data),
        **host,
    }


#: Hub buckets of 7 cycles in a ring of 64, sampled every 13 cycles:
#: every series crosses a bucket edge every few cycles, issue spans and
#: stalls straddle edges, and the ring evicts.
FINE_HUB = HubConfig(bucket_cycles=7, max_buckets=64, sample_interval=13)


class TestObservedEquivalence:
    """The profile (metrics rings, interval series, totals) of a run with
    the metrics hub and interval tracer attached.

    Pinned at 8 SPEs and at 3: the per-SPU averages in a profile divide
    by the SPE count, and ``x / 8 == x * 0.125`` exactly in binary
    floating point while ``x / 3`` and ``x * (1 / 3)`` can differ in the
    last bit, so only the 3-SPE entries see how an average is formed.
    The default 1024-cycle buckets see few bucket edges in a test-scale
    run and never fill the ring, so the 3-SPE runs are also pinned with
    :data:`FINE_HUB`.
    """

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_profiles_bit_identical(self, name, golden):
        golden.check(
            f"{name}/profile", _profile_entry(golden, name, MachineConfig())
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_profiles_at_3_spes_bit_identical(self, name, golden):
        golden.check(
            f"{name}/profile3",
            _profile_entry(golden, name, MachineConfig().with_spes(3)),
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_fine_bucket_profiles_bit_identical(self, name, golden):
        golden.check(
            f"{name}/profile_fine",
            _profile_entry(
                golden, name, MachineConfig().with_spes(3), FINE_HUB
            ),
        )


class TestInterpreterEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_functional_machine_bit_identical(self, name, golden):
        workload = builders("test")[name]()
        machine = run_functional(prefetch_transform(workload.activity))
        golden.check(f"{name}/interpreter", {
            "memory": golden.digest(machine.memory),
            "instructions": machine.instructions,
            "threads_run": machine.threads_run,
        })
