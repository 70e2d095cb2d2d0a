"""Cheaper engine events: the same events, fewer Python calls.

``Machine.run`` no longer evaluates its stop condition, ``Machine._done``,
between every two visited cycles.  ``Machine.check_done`` evaluates it
when one of its inputs changes (a thread completes, the PPE makes
progress, ``run()`` starts) and ends the run through ``Engine.stop``.
:func:`stop_per_cycle` builds the old behaviour by monkeypatching (there
is no production switch): ``Machine._done`` polled on every visited
cycle, and no trigger.  Every run here must give the same cycles, stats,
outputs and engine counters both ways.

The bus and the LSE skip ``Engine.schedule`` when the component is
already due by the next cycle; :func:`schedule_every_enqueue` restores
the call, and the runs must agree.

The host work of an unprefetched run, where every READ is a blocking
bus/memory round trip, of a prefetched bitcnt run, which is mostly
thread management, and of prefetched mmul and zoom runs, whose
instructions mostly run ahead of the engine in run-ahead units, is
counted instead of timed: Python calls over ``machine.run()``, against
a budget.  So is the host work of
saving and loading a checkpoint of a mid-run machine.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.scale import builders
from repro.cell import units
from repro.cell.bus import Bus
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.core.activity import SpawnSpec, TLPActivity
from repro.core.lse import LSE
from repro.isa.builder import ThreadBuilder
from repro.isa.fuzz import random_activity
from repro.isa.program import BlockKind
from repro.sim.config import MachineConfig, paper_config
from repro.sim.engine import SimulationDeadlock
from repro.sim.snapshot import load_checkpoint, save_checkpoint
from repro.testing import small_config

from .test_fastpath import CHAOS, engine_totals

BENCHMARKS = ("bitcnt", "mmul", "zoom")


def stop_per_cycle(monkeypatch):
    """Poll ``Machine._done`` between every two visited cycles, as
    ``Engine.run(until=...)`` does, and never stop on a trigger: the
    reference ``Machine.check_done`` must reproduce exactly."""
    monkeypatch.setattr(Machine, "check_done", lambda machine: None)
    machine_run = Machine.run

    def run(machine, *args, **kwargs):
        engine = machine.engine
        engine_run = engine.run

        def polled(until=None, *a, until_stopped=False, **kw):
            return engine_run(machine._done if until_stopped else until,
                              *a, **kw)

        engine.run = polled
        try:
            return machine_run(machine, *args, **kwargs)
        finally:
            del engine.run

    monkeypatch.setattr(Machine, "run", run)


def outcome(machine, result) -> dict:
    """What the two ways of stopping must agree on."""
    activity = machine._activity
    return {
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "outputs": {
            obj.name: machine.read_global(obj.name)
            for obj in activity.globals
        },
        **engine_totals(machine.engine),
    }


def run_both(make_machine, **run_kwargs) -> tuple[dict, dict]:
    """``make_machine()``'s run as is, and under :func:`stop_per_cycle`."""
    machine = make_machine()
    change = outcome(machine, machine.run(**run_kwargs))
    with pytest.MonkeyPatch.context() as mp:
        stop_per_cycle(mp)
        machine = make_machine()
        reference = outcome(machine, machine.run(**run_kwargs))
    return change, reference


def benchmark_machine(name, config, prefetch=True):
    def make():
        activity = builders("test")[name]().activity
        machine = Machine(config)
        machine.load(prefetch_transform(activity) if prefetch else activity)
        return machine
    return make


class TestStopConditionReference:
    @pytest.mark.parametrize("prefetch", (True, False),
                             ids=("prefetch", "noprefetch"))
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_benchmarks(self, name, prefetch):
        change, reference = run_both(
            benchmark_machine(name, MachineConfig(), prefetch))
        assert change == reference

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_chaos_seed_1(self, name):
        config = MachineConfig().with_faults(f"seed=1,{CHAOS}")
        change, reference = run_both(benchmark_machine(name, config))
        assert change == reference

    def test_the_ppe_finishes_the_activity(self):
        # Roots without initial stores are ready once their frames are
        # allocated.  On a slow bus each completes before its FALLOC
        # response reaches the PPE, so the activity is done only when the
        # last response arrives: the PPE's trigger must end the run.
        b = ThreadBuilder("t")
        with b.block(BlockKind.EX):
            b.stop()
        program = b.build()
        config = small_config()
        config = config.replace(
            bus=dataclasses.replace(config.bus, arbitration_latency=60))

        def make():
            machine = Machine(config)
            machine.load(TLPActivity(
                name="roots", templates=[program], globals_=[],
                spawns=[SpawnSpec(template="t"), SpawnSpec(template="t")],
            ))
            return machine

        change, reference = run_both(make)
        assert change == reference

    @pytest.mark.parametrize("seed", range(40))
    def test_random_activities(self, seed):
        def make():
            machine = Machine(small_config(num_spes=1 + seed % 3))
            machine.load(random_activity(seed))
            return machine

        change, reference = run_both(make, max_cycles=20_000_000)
        assert change == reference

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_restored_from_a_mid_run_checkpoint(self, name, tmp_path):
        make = benchmark_machine(name, MachineConfig(), prefetch=False)
        probe = make()
        uninterrupted = outcome(probe, probe.run())
        make().run(checkpoint_at=[uninterrupted["cycles"] // 2],
                   checkpoint_dir=str(tmp_path))
        (path,) = tmp_path.glob("*.ckpt")
        change, reference = run_both(
            lambda: Machine.load_checkpoint(str(path)))
        assert change == reference == uninterrupted

    def test_restored_after_the_run_ends_stops_at_once(self, tmp_path):
        # A checkpoint taken after run() returned holds a machine that is
        # already done.  run() must evaluate the stop condition before it
        # visits a cycle; the queue is drained, so without that check the
        # run would report a deadlock.
        machine = benchmark_machine("mmul", MachineConfig())()
        finished = machine.run()
        path = machine.save_checkpoint(str(tmp_path / "done.ckpt"))
        restored = Machine.load_checkpoint(path)
        ticks = restored.engine.ticks_dispatched
        result = restored.run()
        assert result.cycles == machine.engine.now >= finished.cycles
        assert restored.engine.ticks_dispatched == ticks
        with pytest.MonkeyPatch.context() as mp:
            stop_per_cycle(mp)
            reference = Machine.load_checkpoint(path).run()
        assert reference.cycles == result.cycles

    def test_without_the_start_check_a_done_machine_deadlocks(
            self, tmp_path, monkeypatch):
        # The check above is what the start-of-run evaluation buys.
        machine = benchmark_machine("mmul", MachineConfig())()
        machine.run()
        path = machine.save_checkpoint(str(tmp_path / "done.ckpt"))
        restored = Machine.load_checkpoint(path)
        monkeypatch.setattr(Machine, "check_done", lambda machine: None)
        with pytest.raises(SimulationDeadlock):
            restored.run()


def schedule_every_enqueue(monkeypatch):
    """Call ``Engine.schedule`` after every bus send and LSE delivery, as
    both did before they skipped it for a component already due by the
    next cycle, where it returns at once: the skip must change no event."""
    for cls, name in ((Bus, "send"), (LSE, "deliver")):
        def always(component, *args, _enqueue=getattr(cls, name)):
            _enqueue(component, *args)
            component.engine.schedule(component)

        monkeypatch.setattr(cls, name, always)


class TestScheduleSkipReference:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_one_bus_channel(self, name):
        # With one channel, transfers queue behind a busy channel, so the
        # bus is often due later than the next cycle when a send arrives.
        config = MachineConfig()
        config = config.replace(bus=dataclasses.replace(config.bus,
                                                        num_buses=1))
        make = benchmark_machine(name, config)
        machine = make()
        change = outcome(machine, machine.run())
        with pytest.MonkeyPatch.context() as mp:
            schedule_every_enqueue(mp)
            machine = make()
            reference = outcome(machine, machine.run())
        assert change == reference


#: Python calls ``machine.run()`` may make for unprefetched test-scale
#: mmul at 2 SPEs.  Before the blocking READ round trip was made cheaper
#: the run made 89,381 calls for the same 8,404 engine events; before
#: WRITEs were posted ahead of the engine, 39,100.
CALL_BUDGET = 42_000


#: Python calls ``machine.run()`` may make for test-scale bitcnt with
#: prefetch at 2 SPEs, whose host work is mostly thread management: LSE
#: requests (FALLOC, frame STOREs, STOP) and network messages.  Before
#: the typed request path from the SPU to the LSE the run made 76,220
#: calls for the same 6,749 engine events; before frame STOREs were
#: posted ahead of the engine, 43,689.
BITCNT_CALL_BUDGET = 46_000


#: Python calls ``machine.run()`` may make for test-scale mmul and zoom
#: with prefetch at 2 SPEs, whose instructions mostly run ahead of the
#: engine in run-ahead units (repro.cell.units).  While every run-ahead
#: cycle was interpreted row by row the runs made 15,695 and 57,151
#: calls for the same 1,057 and 6,652 engine events; before WRITEs were
#: posted ahead of the engine, 8,984 and 38,605.
RUN_AHEAD_CALL_BUDGETS = {"mmul": 9_500, "zoom": 37_000}


class TestCallsPerEvent:
    def test_blocking_mmul_within_the_call_budget(self, count_calls, golden):
        def load():
            machine = Machine(paper_config(2))
            machine.load(builders("test")["mmul"]().activity)
            return machine

        load().run()  # first-call imports and caches stay out of the count
        machine = load()
        calls = sum(count_calls(machine).values())
        engine = machine.engine
        events = engine.ticks_dispatched + engine.callbacks_dispatched
        entry = golden.entry("mmul/noprefetch2")
        assert events == entry["engine_ticks"] + entry["engine_callbacks"]
        assert calls <= CALL_BUDGET, (
            f"{calls} Python calls for {events} engine events "
            f"({calls / events:.2f} per event); budget {CALL_BUDGET}"
        )

    def test_prefetched_bitcnt_within_the_call_budget(self, count_calls,
                                                      golden):
        def load():
            machine = Machine(paper_config(2))
            activity = builders("test")["bitcnt"]().activity
            machine.load(prefetch_transform(activity))
            return machine

        load().run()  # first-call imports and caches stay out of the count
        machine = load()
        calls = sum(count_calls(machine).values())
        engine = machine.engine
        events = engine.ticks_dispatched + engine.callbacks_dispatched
        entry = golden.entry("bitcnt/plain2")
        assert events == entry["engine_ticks"] + entry["engine_callbacks"]
        assert calls <= BITCNT_CALL_BUDGET, (
            f"{calls} Python calls for {events} engine events "
            f"({calls / events:.2f} per event); budget {BITCNT_CALL_BUDGET}"
        )

    @pytest.mark.parametrize("name", sorted(RUN_AHEAD_CALL_BUDGETS))
    def test_prefetched_run_ahead_within_the_call_budget(self, name,
                                                         count_calls):
        def load():
            machine = Machine(paper_config(2))
            activity = builders("test")[name]().activity
            machine.load(prefetch_transform(activity))
            return machine

        # The first run also builds the run-ahead units; the counted run
        # decodes its programs afresh and finds them in the cache.
        load().run()
        machine = load()
        counts = count_calls(machine)
        assert units._build.__code__ not in counts
        calls = sum(counts.values())
        budget = RUN_AHEAD_CALL_BUDGETS[name]
        engine = machine.engine
        events = engine.ticks_dispatched + engine.callbacks_dispatched
        assert calls <= budget, (
            f"{calls} Python calls for {events} engine events "
            f"({calls / events:.2f} per event); budget {budget}"
        )


#: Python calls one ``save_checkpoint`` and one ``load_checkpoint`` may
#: each make for test-scale bitcnt with prefetch at 2 SPEs, checkpointed
#: at mid-run.  When the snapshot pickler sent every object through a
#: Python hook, the save made 87,677 calls and the load 1,910.
CHECKPOINT_CALL_BUDGET = 500


class TestCheckpointCalls:
    def test_save_and_load_within_the_call_budget(self, count_calls,
                                                  tmp_path):
        def load():
            machine = Machine(paper_config(2))
            activity = builders("test")["bitcnt"]().activity
            machine.load(prefetch_transform(activity))
            return machine

        total = load().run().cycles
        # The run's own checkpoint keeps first-call imports and caches
        # out of the count.
        load().run(checkpoint_at=[total // 2], checkpoint_dir=str(tmp_path))
        (path,) = tmp_path.glob("*.ckpt")
        machine = load_checkpoint(str(path))
        saves = sum(count_calls(
            lambda: save_checkpoint(machine, str(tmp_path / "again.ckpt"))
        ).values())
        loads = sum(count_calls(lambda: load_checkpoint(str(path))).values())
        assert saves <= CHECKPOINT_CALL_BUDGET, (
            f"one save made {saves} Python calls; budget "
            f"{CHECKPOINT_CALL_BUDGET}"
        )
        assert loads <= CHECKPOINT_CALL_BUDGET, (
            f"one load made {loads} Python calls; budget "
            f"{CHECKPOINT_CALL_BUDGET}"
        )
