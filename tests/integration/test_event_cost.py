"""Cheaper engine events: the same events, fewer Python calls.

``Machine.run`` no longer evaluates its stop condition, ``Machine._done``,
between every two visited cycles.  ``Machine.check_done`` evaluates it
when one of its inputs changes (a thread completes, the PPE makes
progress, ``run()`` starts) and ends the run through ``Engine.stop``.
:func:`stop_per_cycle` builds the old behaviour by monkeypatching (there
is no production switch): ``Machine._done`` polled on every visited
cycle, and no trigger.  Every run here must give the same cycles, stats,
outputs and engine counters both ways.

The host work of an unprefetched run, where every READ is a blocking
bus/memory round trip, is counted instead of timed: Python calls per
engine event over ``machine.run()``, against a budget.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.core.activity import SpawnSpec, TLPActivity
from repro.isa.builder import ThreadBuilder
from repro.isa.fuzz import random_activity
from repro.isa.program import BlockKind
from repro.sim.config import MachineConfig, paper_config
from repro.sim.engine import SimulationDeadlock
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


#: Python calls ``machine.run()`` may make for unprefetched test-scale
#: mmul at 2 SPEs.  Before the blocking READ round trip was made cheaper
#: the run made 89,381 calls for the same 8,404 engine events.
CALL_BUDGET = 44_000


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
