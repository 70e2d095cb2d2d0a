"""Whole-machine checkpoint/restore bit-identity.

The hard correctness bar: run-to-completion equals run-to-checkpoint +
restore + continue, for **stats, workload outputs and profiles**, across
benchmarks, fault seeds and observability configurations — including
checkpoints landed at adversarial cycles (mid SPU run-ahead, mid
DMA retry backoff, mid bus delivery with a pending injected duplicate)
and restores performed in a fresh process.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.cell.spu import _State
from repro.compiler.passes import prefetch_transform
from repro.sim.engine import Callback
from repro.testing import small_config

BENCHMARKS = ("bitcnt", "mmul", "zoom")

CHAOS = "dma_delay=0.1,dma_drop=0.1,bus_delay=0.1,bus_dup=0.1,mem_stall=0.1"

#: Corrupting faults with recovery — checkpoints must capture poison
#: tables, deferred squashes and re-fetch state mid-recovery.
DATA = ("data_flip=0.3,data_truncate=0.15,data_ls_stale=0.15,"
        "data_store_corrupt=0.1")


def _config(mode: str, seed: int = 1):
    cfg = small_config(2)
    if mode == "chaos":
        cfg = cfg.with_faults(f"seed={seed},{CHAOS}")
    elif mode == "data":
        cfg = cfg.with_faults(f"seed={seed},{DATA}")
    elif mode == "sanitize":
        cfg = cfg.replace(sanitize=True)
    return cfg


def _machine(cfg, hub: bool):
    machine = Machine(cfg)
    if hub:
        from repro.obs.hub import MetricsHub

        machine.attach_hub(MetricsHub())
    return machine


def _reference(wl, cfg, tmp_path, hub=False, at=None):
    """Uninterrupted run; with ``at`` it also drops mid-flight snapshots
    (which must not perturb the result — asserted by the caller).

    Runs the prefetch-transformed activity: it exercises the MFC DMA
    machinery (the paper's point, and the state the adversarial cases
    target) and finishes an order of magnitude sooner than the blocking
    baseline."""
    machine = _machine(cfg, hub)
    machine.load(prefetch_transform(wl.activity))
    kwargs = {}
    if at:
        kwargs = dict(checkpoint_at=list(at), checkpoint_dir=str(tmp_path))
    result = machine.run(**kwargs)
    wl.verify(machine)
    return machine, result


def _assert_resumes_identically(wl, ref_machine, ref_result, path):
    machine = Machine.load_checkpoint(str(path))
    result = machine.run()
    assert result.cycles == ref_result.cycles
    assert result.stats == ref_result.stats
    wl.verify(machine)  # workload outputs in restored main memory
    if ref_machine.hub is not None:
        assert machine.hub is not None
        assert machine.hub.to_dict() == ref_machine.hub.to_dict()
    return machine


def _roundtrip(bench, mode, tmp_path, seed=1):
    wl = builders("test")[bench]()
    cfg = _config(mode, seed)
    hub = mode == "hub"
    _probe_machine, probe = _reference(wl, cfg, tmp_path, hub=hub)
    total = probe.cycles
    cycles = sorted({max(2, total // 3), max(3, (2 * total) // 3)})
    ref_machine, ref = _reference(wl, cfg, tmp_path, hub=hub, at=cycles)
    # Taking checkpoints is observation-only: same result as the probe.
    assert ref.cycles == probe.cycles
    assert ref.stats == probe.stats
    paths = sorted(tmp_path.glob("*.ckpt"))
    assert len(paths) == len(cycles)
    for path in paths:
        _assert_resumes_identically(wl, ref_machine, ref, path)


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("mode", ("plain", "sanitize", "hub"))
    def test_roundtrip(self, bench, mode, tmp_path):
        _roundtrip(bench, mode, tmp_path)

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_roundtrip_under_chaos(self, bench, seed, tmp_path):
        _roundtrip(bench, "chaos", tmp_path, seed=seed)

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_roundtrip_under_data_faults(self, bench, tmp_path):
        # Corruption + recovery in flight: snapshots taken while poison
        # tables / re-fetches / squashes are live must restore and
        # finish bit-identically to the uninterrupted faulted run.
        _roundtrip(bench, "data", tmp_path, seed=1)


def _heap_callbacks(machine, kind):
    return [
        entry[4] for entry in machine.engine._heap
        if isinstance(entry[4], Callback) and entry[4].kind == kind
        and not entry[4].cancelled
    ]


def _qualifying_cycles(wl, cfg, total, predicate, hub=False):
    """Cycles of the (deterministic) reference run at which ``predicate``
    holds.  Reuses the checkpoint hook as an every-visited-cycle
    observation point without writing any files: the hook fires exactly
    at the pre-dispatch instant a checkpoint would capture, so a
    checkpoint taken at a returned cycle restores to a machine on which
    the predicate still holds."""
    machine = _machine(cfg, hub)
    machine.load(prefetch_transform(wl.activity))
    hits: list[int] = []

    def observe(path: str) -> str:
        now = machine.engine.now
        if predicate(machine) and (not hits or hits[-1] != now):
            hits.append(now)
        return path

    machine.save_checkpoint = observe
    machine.run(checkpoint_at=list(range(2, total)), checkpoint_dir=".")
    return hits


def _adversarial_roundtrip(wl, cfg, tmp_path, predicate, describe,
                           hub=False):
    """Checkpoint the reference run at a cycle where ``predicate`` holds,
    restore it, re-assert the predicate on the restored machine, and
    prove the resumed run is bit-identical (with ``hub``, the metrics hub
    dump too).  Returns the restored machine (pre-resume state already
    consumed by the identity check is re-loaded fresh for the caller's
    structural assertions)."""
    _probe_machine, probe = _reference(wl, cfg, tmp_path, hub=hub)
    hits = _qualifying_cycles(wl, cfg, probe.cycles, predicate, hub=hub)
    assert hits, f"this run never has {describe} in flight"
    target = hits[len(hits) // 2]
    ref_machine, ref = _reference(wl, cfg, tmp_path, hub=hub, at=[target])
    assert ref.stats == probe.stats
    (path,) = sorted(tmp_path.glob("*.ckpt"))
    machine = Machine.load_checkpoint(str(path))
    assert predicate(machine), (
        f"restore at cycle {target} lost the in-flight {describe}"
    )
    _assert_resumes_identically(wl, ref_machine, ref, path)
    return Machine.load_checkpoint(str(path))


def _mid_run_ahead(m):
    """Some SPU is running ahead of the engine through Local Store ops:
    RUNNING, its next tick further ahead than a taken branch's penalty
    could put it, its SPE's MFC idle, and its Local Store holding a port
    booking for a cycle past the engine's and before that tick."""
    now = m.engine.now
    for spe in m.spes:
        spu = spe.spu
        ahead = spu._scheduled_at
        if (
            spu._state is _State.RUNNING
            and ahead is not None
            and ahead > now + 1 + spu.config.branch_taken_penalty
            and not spe.mfc.outstanding_commands
            and any(now < c < ahead for c in spe.ls._ports_used)
        ):
            return True
    return False


class TestAdversarialCycles:
    def test_mid_dma_retry_backoff(self, tmp_path):
        # Heavy dma_drop makes chunk retries (mfc.retry backoff events)
        # common; checkpoint with one in flight and prove the restored
        # machine finishes the retry protocol identically.
        wl = builders("test")["mmul"]()
        cfg = small_config(2).with_faults("seed=3,dma_drop=0.3")
        machine = _adversarial_roundtrip(
            wl, cfg, tmp_path,
            lambda m: bool(_heap_callbacks(m, "mfc.retry")),
            "a DMA chunk retry backoff",
        )
        # The command object in the pending retry IS the in-flight command
        # tracked by its MFC — shared identity survives the restore.
        retry = _heap_callbacks(machine, "mfc.retry")[0]
        cmd, mfc = retry.payload[0], retry.owner
        assert any(c is cmd for c in mfc._inflight.values())

    def test_mid_bus_delivery_with_pending_duplicate(self, tmp_path):
        def pending_duplicate(m):
            by_transfer: dict[int, int] = {}
            for cb in _heap_callbacks(m, "bus.deliver"):
                key = id(cb.payload[0])
                by_transfer[key] = by_transfer.get(key, 0) + 1
            return any(n >= 2 for n in by_transfer.values())

        wl = builders("test")["mmul"]()
        cfg = small_config(2).with_faults("seed=5,bus_dup=0.5")
        # Both pending deliveries reference the SAME transfer object after
        # restore (pickle memo), so exactly-once absorption still works —
        # re-asserted by the predicate on the restored machine.
        _adversarial_roundtrip(
            wl, cfg, tmp_path, pending_duplicate,
            "an injected duplicate bus delivery",
        )

    def test_mid_data_fault_recovery(self, tmp_path):
        # Checkpoint while a data-fault recovery is pending: a poisoned
        # frame word awaiting its scrub-or-squash LOAD, or a deferred
        # thread squash waiting for outstanding DMA to drain.  The
        # restored machine must carry that recovery state and converge
        # to the same (clean) outputs.
        def pending_recovery(m):
            return any(
                spe.lse._poison or spe.lse._virtual_poison
                or spe.lse._squash_pending
                for spe in m.spes
            )

        wl = builders("test")["mmul"]()
        cfg = small_config(2).with_faults(f"seed=1,{DATA}")
        machine = _adversarial_roundtrip(
            wl, cfg, tmp_path, pending_recovery,
            "a pending data-fault recovery",
        )
        # The run actually recovered (not just poisoned-and-never-read).
        result = machine.run()
        faults = result.stats.faults
        assert faults.frame_scrubs + faults.thread_reexecs > 0

    def test_mid_lse_queue_wait(self, tmp_path):
        # An SPU waits on its LSE's full request queue.  A checkpoint there
        # must carry the queued (handler, args) entries and the LSE's
        # record that the SPU waits, so the restored LSE resumes the SPU
        # when it serves the next request.
        from repro.core.activity import GlobalObject, TLPActivity
        from repro.workloads.common import Workload

        from ..core.test_scheduler import store_burst

        templates, spawns = store_burst()
        wl = Workload(
            name="store_burst",
            activity=TLPActivity(
                name="store_burst", templates=templates,
                globals_=[GlobalObject.zeros("out", 1)], spawns=spawns,
            ),
            oracle={"out": [7]},
        )

        def waits(spe):
            return (spe.spu._state is _State.EXTERNAL
                    and spe.spu._ext_kind == "lse_queue")

        machine = _adversarial_roundtrip(
            wl, small_config(2), tmp_path,
            lambda m: any(waits(spe) for spe in m.spes),
            "an SPU waiting on a full LSE queue",
        )
        (lse,) = [spe.lse for spe in machine.spes if waits(spe)]
        assert lse._spu_queue_len == lse.SPU_QUEUE_CAPACITY
        assert lse._spu_waits

    def test_mid_fast_forward_window(self, tmp_path):
        # An SPU running ahead parks its tick far in the future, with
        # Local Store ports booked for cycles the engine has not reached.
        # A checkpoint there must carry those bookings, restore the
        # decoded-program cache (not serialized; decoded again on load)
        # and resume bit-identically.
        wl = builders("test")["mmul"]()
        cfg = small_config(2)
        machine = _adversarial_roundtrip(
            wl, cfg, tmp_path, _mid_run_ahead, "a run-ahead past LS ops",
        )
        for spe in machine.spes:
            if spe.spu.thread is not None:
                assert spe.spu._dec is not None  # rebuilt, not pickled

    def test_mid_fast_forward_window_under_hub(self, tmp_path):
        # Run-ahead stays on under the metrics hub and credits its series
        # for cycles the engine has not reached yet.  A checkpoint inside
        # one must carry those credits: the restored run's hub dump
        # equals the uninterrupted one.
        wl = builders("test")["mmul"]()
        cfg = small_config(2)
        machine = _adversarial_roundtrip(
            wl, cfg, tmp_path, _mid_run_ahead, "a run-ahead past LS ops",
            hub=True,
        )
        assert machine.hub is not None


class TestRandomCyclesProperty:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_random_checkpoint_cycles_roundtrip(self, bench, tmp_path):
        wl = builders("test")[bench]()
        cfg = small_config(2)
        _probe_machine, probe = _reference(wl, cfg, tmp_path)
        rng = random.Random(f"ckpt:{bench}")
        cycles = sorted(rng.sample(range(2, probe.cycles - 1), 4))
        ref_machine, ref = _reference(wl, cfg, tmp_path, at=cycles)
        assert ref.stats == probe.stats
        paths = sorted(tmp_path.glob("*.ckpt"))
        assert len(paths) == len(set(cycles))
        for path in paths:
            _assert_resumes_identically(wl, ref_machine, ref, path)


_FRESH_PROCESS_SCRIPT = """\
import pickle, sys
from repro.cell.machine import Machine

ckpt, out = sys.argv[1], sys.argv[2]
machine = Machine.load_checkpoint(ckpt)
result = machine.run()
outputs = {
    name: machine.read_global(name)
    for name in sorted(pickle.load(open(out + ".oracle", "rb")))
}
with open(out, "wb") as fh:
    pickle.dump((result.cycles, result.stats, outputs), fh)
"""


class TestFreshProcessRestore:
    def test_restore_in_fresh_process_is_bit_identical(self, tmp_path):
        wl = builders("test")["mmul"]()
        cfg = small_config(2)
        _probe_machine, probe = _reference(wl, cfg, tmp_path)
        mid = probe.cycles // 2
        ref_machine, ref = _reference(wl, cfg, tmp_path, at=[mid])
        (path,) = sorted(tmp_path.glob("*.ckpt"))
        out = tmp_path / "fresh.pkl"
        with open(str(out) + ".oracle", "wb") as fh:
            pickle.dump(sorted(wl.oracle), fh)
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.path.join(root, "src")
        subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_SCRIPT,
             str(path), str(out)],
            check=True, env=env, timeout=300,
        )
        with open(out, "rb") as fh:
            cycles, stats, outputs = pickle.load(fh)
        assert cycles == ref.cycles
        assert stats == ref.stats
        for name, values in outputs.items():
            assert values == ref_machine.read_global(name), name
