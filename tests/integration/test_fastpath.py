"""Hot-path equivalence: speed may change, bits may not.

The decoded-instruction cache, the SPU fast-forward and the engine heap
hygiene (see ``docs/PERFORMANCE.md``) are pure performance work.  This
suite holds them to committed truth rather than to a second copy of the
code: every stat, output and profile of the three paper benchmarks
(test scale, prefetch transform) is pinned in
``tests/golden/digests.json`` under five machine configurations —
plain, three chaos seeds and a recoverable data-fault plan — together
with the hub-observed profile and the functional interpreter's final
memory.  A run under the invariant sanitizer and a run restored from a
mid-run checkpoint must reproduce the plain entry exactly: neither may
perturb the machine.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.isa.interpreter import run_functional
from repro.obs.profile import profile_workload
from repro.sim.config import MachineConfig

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


def _run(golden, name: str, config: MachineConfig) -> dict:
    workload = builders("test")[name]()
    machine = Machine(config)
    machine.load(prefetch_transform(workload.activity))
    return _entry(golden, workload, machine, machine.run())


class TestPlainEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_stats_and_outputs_bit_identical(self, name, golden):
        golden.check(f"{name}/plain", _run(golden, name, MachineConfig()))


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


class TestObservedEquivalence:
    """The profile (metrics rings, interval series, engine totals) of a
    run with the metrics hub and interval tracer attached."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_profiles_bit_identical(self, name, golden):
        workload = builders("test")[name]()
        result, profile = profile_workload(workload, MachineConfig())
        golden.check(f"{name}/profile", {
            "cycles": result.cycles,
            "stats": golden.digest(dataclasses.asdict(result.stats)),
            "profile": golden.digest(profile.to_dict()),
        })


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
