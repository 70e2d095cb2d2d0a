"""Chaos matrix: injected faults change timing, never results.

The central guarantee of ``repro.faults`` is architectural transparency:
for any seed, a faulted run must retire the same threads with the same
memory contents as the fault-free run — only the cycle count (and the
fault counters) may differ.  These tests drive the three paper
benchmarks through a matrix of fault seeds and check exactly that.

Data faults extend the guarantee: *corrupting* faults (payload bit
flips, truncated transfers, stale Local Store reads, frame-store
corruption on the bus) are detected by checksums / per-store check
codes and recovered by bounded DMA re-fetch and thread re-execution —
so recoverable plans stay bit-identical too, and budget exhaustion
raises a structured :class:`DataCorruptionError` instead of silently
corrupting results.
"""

from __future__ import annotations

import pytest

from repro.bench.parallel import RunTask, run_many_detailed
from repro.bench.runner import run_workload
from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.core.activity import GlobalObject, ObjRef, SpawnSpec, TLPActivity
from repro.faults import DataCorruptionError
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.obs.trace import Tracer
from repro.sim.config import MachineConfig
from repro.testing import small_config

BENCHMARKS = ("bitcnt", "mmul", "zoom")
SEEDS = (1, 2, 3)

#: Every fault class enabled at once, aggressively enough to fire on
#: test-scale runs but with bounded retries so fallbacks are reachable.
CHAOS = ("dma_delay=0.1,dma_drop=0.08,bus_delay=0.05,bus_dup=0.05,"
         "mem_stall=0.05,dma_max_retries=2")

#: Every corrupting fault class at once, with default recovery budgets.
#: Test-scale runs have few transfer/store opportunities, so the
#: probabilities are high to make every kind fire on every benchmark.
DATA = ("data_flip=0.3,data_truncate=0.15,data_ls_stale=0.15,"
        "data_store_corrupt=0.1")

#: Guaranteed corruption with zero recovery budget: the first verify
#: failure must escalate to a structured error.
UNRECOVERABLE = "seed=1,data_flip=1.0,data_max_refetches=0,data_max_reexecs=0"


def _run(name: str, config: MachineConfig):
    """Run the prefetch variant of ``name``; return (result, outputs)."""
    workload = builders("test")[name]()
    machine = Machine(config)
    machine.load(prefetch_transform(workload.activity))
    result = machine.run()
    outputs = {obj: machine.read_global(obj) for obj in workload.oracle}
    workload.verify(machine)
    return result, outputs


@pytest.fixture(scope="module")
def baselines():
    """Fault-free reference runs, one per benchmark."""
    return {name: _run(name, MachineConfig()) for name in BENCHMARKS}


class TestChaosMatrix:
    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faults_change_timing_never_results(self, name, seed, baselines):
        cfg = MachineConfig().with_faults(f"seed={seed},{CHAOS}")
        result, outputs = _run(name, cfg)
        clean, clean_outputs = baselines[name]

        # Bit-identical architectural results.
        assert outputs == clean_outputs
        # Faults inject pure delays, so they broadly cost cycles — but a
        # delayed FrameFreed can shift the DSE's load-based thread
        # placement into a slightly better schedule (a scheduling
        # anomaly).  Bound the anomaly instead of demanding monotonicity.
        assert result.cycles >= clean.cycles * 0.95
        # The spec is aggressive enough that something always fires.
        assert result.stats.faults.any_fired
        # Every transient failure was handled: retried or fell back.
        f = result.stats.faults
        if f.dma_drops:
            assert f.dma_retries + f.dma_fallbacks > 0
        # Duplicates never reach an endpoint twice.
        assert f.bus_duplicates_absorbed == f.bus_duplicates

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_same_seed_is_bit_identical(self, name):
        cfg = MachineConfig().with_faults(f"seed=1,{CHAOS}")
        first, first_out = _run(name, cfg)
        second, second_out = _run(name, cfg)
        assert first.cycles == second.cycles
        assert first.stats.faults == second.stats.faults
        assert first_out == second_out

    def test_permanent_failure_falls_back_without_wedging(self, baselines):
        # Every chunk attempt fails: after dma_max_retries each command
        # must fall back to blocking-read-equivalent timing and the run
        # must still complete with correct outputs.
        cfg = MachineConfig().with_faults("seed=3,dma_drop=1.0,"
                                          "dma_max_retries=2")
        result, outputs = _run("mmul", cfg)
        clean, clean_outputs = baselines["mmul"]
        assert outputs == clean_outputs
        assert result.stats.faults.dma_fallbacks > 0
        assert result.stats.faults.dma_retries > 0
        assert result.cycles > clean.cycles

    def test_sanitizer_holds_under_chaos(self):
        cfg = (
            MachineConfig()
            .with_faults(f"seed=2,{CHAOS}")
            .replace(sanitize=True)
        )
        result, _ = _run("mmul", cfg)  # InvariantViolation would escape
        assert result.stats.faults.any_fired


class TestDataFaultRecovery:
    """Corrupting faults: detect, recover, stay bit-identical."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recoverable_faults_bit_identical(self, name, seed, baselines):
        cfg = MachineConfig().with_faults(f"seed={seed},{DATA}")
        result, outputs = _run(name, cfg)
        _clean, clean_outputs = baselines[name]

        f = result.stats.faults
        # The plan is aggressive enough that corruption always fires ...
        assert f.any_data_fired
        # ... and every firing was detected and recovered.
        assert f.any_recovered
        # The headline guarantee: recovery is architecturally invisible.
        assert outputs == clean_outputs

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_same_seed_same_recovery(self, name):
        cfg = MachineConfig().with_faults(f"seed=2,{DATA}")
        first, first_out = _run(name, cfg)
        second, second_out = _run(name, cfg)
        assert first.cycles == second.cycles
        assert first.stats.faults == second.stats.faults
        assert first_out == second_out

    def test_data_and_timing_faults_compose(self, baselines):
        cfg = MachineConfig().with_faults(f"seed=3,{CHAOS},{DATA}")
        result, outputs = _run("mmul", cfg)
        _clean, clean_outputs = baselines["mmul"]
        assert outputs == clean_outputs
        assert result.stats.faults.any_fired
        assert result.stats.faults.any_data_fired

    def test_sanitizer_holds_through_recovery(self):
        # Re-execution preserves SC bookkeeping; the sanitizer's
        # started-thread invariant cross-checks that no late producer
        # store slips into a re-executing thread's frame.
        cfg = (
            MachineConfig()
            .with_faults(f"seed=1,{DATA}")
            .replace(sanitize=True)
        )
        result, _ = _run("bitcnt", cfg)  # InvariantViolation would escape
        assert result.stats.faults.thread_reexecs > 0

    def test_unrecoverable_corruption_raises_structured_error(self):
        cfg = MachineConfig().with_faults(UNRECOVERABLE)
        workload = builders("test")["mmul"]()
        machine = Machine(cfg)
        machine.load(prefetch_transform(workload.activity))
        with pytest.raises(DataCorruptionError) as excinfo:
            machine.run()
        err = excinfo.value
        # The error names the failing transfer, not just "corruption".
        assert err.kind == "dma-transfer"
        assert err.site.startswith("lse")
        assert err.spe_id is not None
        assert err.tid is not None
        assert isinstance(err.fault_stats, dict)
        assert err.fault_stats["data_flips"] > 0
        assert "unrecoverable data corruption" in str(err)

    @staticmethod
    def long_pf_block() -> TLPActivity:
        """One thread whose PF block DMAs four words and then runs 300
        NOPs, far longer than the transfer takes to land."""
        b = ThreadBuilder("t")
        b.slot("out"), b.slot("src"), b.slot("bufp")
        with b.block(BlockKind.PF):
            b.load("rsrc", "src")
            b.lsalloc("buf", 16)
            b.dmaget("buf", "rsrc", 16, tag=1)
            for _ in range(300):
                b.nop()
            b.storef("bufp", "buf")
        with b.block(BlockKind.PL):
            b.load("rout", "out")
            b.load("rbuf", "bufp")
        with b.block(BlockKind.EX):
            b.lload("v", "rbuf", 12)
            b.write("rout", 0, "v")
            b.stop()
        return TLPActivity(
            name="t", templates=[b.build()],
            globals_=[GlobalObject.zeros("out", 4),
                      GlobalObject("src", (5, 6, 7, 8))],
            spawns=[SpawnSpec(template="t", stores={
                0: ObjRef("out"), 1: ObjRef("src"),
            })],
        )

    def test_corrupt_transfer_squashes_a_thread_still_in_its_pf_block(self):
        # With no re-fetch budget the corrupt transfer retires its tag
        # while the thread still runs its PF block, so the squash waits
        # until the SPU hands the thread back at the block's end
        # (LSE.thread_wait_dma): the SPU yields with no tag pending, in
        # the cycle the thread is re-executed.
        def run(config):
            machine = Machine(config)
            tracer = Tracer()
            machine.attach_tracer(tracer)
            machine.load(self.long_pf_block())
            result = machine.run()
            events = [(e.cycle, e.kind, e.fields) for e in tracer.events
                      if e.kind in ("thread-reexec", "yield-dma")]
            return machine.read_global("out"), result, events

        clean, _, clean_events = run(small_config())
        assert clean == [8, 0, 0, 0] and clean_events == []
        out, result, events = run(small_config().with_faults(
            "seed=2,data_flip=0.5,data_max_refetches=0"))
        assert out == clean
        assert result.stats.faults.thread_reexecs == 1
        (reexec_cycle, _, reexec), (yield_cycle, _, yielded) = events
        assert reexec == {"tid": 0, "attempt": 1, "cause": "dma-transfer"}
        assert yielded == {"tid": 0, "tags": []}
        assert reexec_cycle == yield_cycle

    def test_recovery_counters_exported(self):
        from repro.bench.export import run_to_dict

        wl = builders("test")["bitcnt"]()
        cfg = MachineConfig().with_faults(f"seed=1,{DATA}")
        result = run_workload(wl, cfg, prefetch=True)
        faults = run_to_dict(result)["faults"]
        fired = (faults["data_flips"] + faults["data_truncations"]
                 + faults["data_stale_drops"]
                 + faults["data_store_corruptions"])
        assert fired > 0
        recovered = (faults["dma_refetches"] + faults["frame_scrubs"]
                     + faults["thread_reexecs"])
        assert recovered > 0


class TestDegradedManifests:
    def test_failure_carries_recovery_counters(self, tmp_path):
        # An unrecoverable run fails with DataCorruptionError; run_many
        # must surface the fault/recovery counters it carried so a
        # degraded manifest can report how far recovery got.
        workload = builders("test")["mmul"]()
        cfg = MachineConfig().with_faults(UNRECOVERABLE)
        task = RunTask(workload, cfg, prefetch=True)
        batch = run_many_detailed([task], jobs=1, retries=0)
        assert not batch.complete
        info = batch.failures[0]
        assert isinstance(info.error, DataCorruptionError)
        assert info.faults is not None
        assert info.faults["data_flips"] > 0
        assert info.faults["dma_verify_failures"] > 0


class TestCacheKeys:
    def test_fault_specs_participate_in_result_keys(self):
        workload = builders("test")["mmul"]()

        def key(cfg):
            return RunTask(workload, cfg, prefetch=True).key()

        clean = MachineConfig()
        faulted = clean.with_faults(f"seed=1,{CHAOS}")
        reseeded = clean.with_faults(f"seed=2,{CHAOS}")
        sanitized = clean.replace(sanitize=True)

        keys = {key(clean), key(faulted), key(reseeded), key(sanitized)}
        assert len(keys) == 4  # all distinct
        assert key(faulted) == key(clean.with_faults(f"seed=1,{CHAOS}"))

    def test_data_fault_specs_participate_in_result_keys(self):
        workload = builders("test")["mmul"]()

        def key(cfg):
            return RunTask(workload, cfg, prefetch=True).key()

        clean = MachineConfig()
        data = clean.with_faults(f"seed=1,{DATA}")
        rebudgeted = clean.with_faults(f"seed=1,{DATA},data_max_reexecs=9")
        assert len({key(clean), key(data), key(rebudgeted)}) == 3


class TestFaultPlanParsing:
    def test_round_trip(self):
        plan = FaultPlan.parse("seed=7,dma_drop=0.25,bus_dup=0.5")
        assert plan.seed == 7
        assert plan.dma_drop == 0.25
        assert plan.bus_dup == 0.5
        assert plan.active

    def test_default_plan_is_inert(self):
        assert not FaultPlan().active
        assert FaultPlan().describe() == "inactive"

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultPlanError, match="known keys"):
            FaultPlan.parse("seed=1,dma_teleport=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(FaultPlanError, match="bad value"):
            FaultPlan.parse("dma_drop=lots")

    def test_probability_range_enforced(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultPlan.parse("dma_drop=1.5")

    def test_backoff_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="dma_backoff"):
            FaultPlan(dma_backoff=0)

    def test_data_keys_round_trip(self):
        plan = FaultPlan.parse(
            "seed=4,data_flip=0.25,data_truncate=0.1,data_ls_stale=0.05,"
            "data_store_corrupt=0.02,data_max_refetches=5,data_max_reexecs=1"
        )
        assert plan.data_flip == 0.25
        assert plan.data_max_refetches == 5
        assert plan.active and plan.data_active

    def test_timing_only_plan_is_not_data_active(self):
        plan = FaultPlan.parse(f"seed=1,{CHAOS}")
        assert plan.active and not plan.data_active

    def test_unknown_data_key_lists_all_valid_keys(self):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.parse("data_scramble=0.5")
        message = str(excinfo.value)
        # The error names every valid key, data-fault keys included.
        for key in ("data_flip", "data_truncate", "data_ls_stale",
                    "data_store_corrupt", "data_max_refetches",
                    "data_max_reexecs", "dma_drop", "seed"):
            assert key in message

    def test_recovery_budgets_must_be_nonnegative(self):
        with pytest.raises(FaultPlanError, match="data_max_reexecs"):
            FaultPlan(data_max_reexecs=-1)
        with pytest.raises(FaultPlanError, match="data_max_refetches"):
            FaultPlan.parse("data_max_refetches=-2")
