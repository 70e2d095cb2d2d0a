"""Observability cost: disabled == absent (the same Python calls),
enabled == timing-neutral and the same engine work plus the sampler's,
and the host work of an observed run held to counted budgets."""

from __future__ import annotations

from functools import partial

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.obs.hub import HubConfig, MetricsHub
from repro.obs.intervals import PROFILE_KINDS, IntervalSink
from repro.obs.profile import build_profile
from repro.obs.trace import Tracer
from repro.sim.config import paper_config

#: Python calls of ``machine.run()`` for test-scale bitcnt at 2 SPEs
#: under the metrics hub and the profiling tracer: 93,506 (the plain run
#: makes 76,220).  Before the SPU summed its hub credits per hub bucket
#: and the interval sink folded events without a TraceEvent: 105,186.
OBSERVED_RUN_CALLS = 98_000

#: Python calls of a second :func:`build_profile` of that run: 185.
#: Before the interval dump built its dicts inline: 1,743.
BUILD_PROFILE_CALLS = 194


def load_bitcnt(hub=None, tracer=None) -> Machine:
    workload = builders("test")["bitcnt"]()
    machine = Machine(paper_config(2))
    if hub is not None:
        machine.attach_hub(hub)
    if tracer is not None:
        machine.attach_tracer(tracer)
    machine.load(prefetch_transform(workload.activity))
    return machine


def run_bitcnt(hub=None, tracer=None):
    machine = load_bitcnt(hub, tracer)
    return machine, machine.run()


def load_observed_bitcnt():
    """``(machine, hub, sink)``: bitcnt loaded under a metrics hub and a
    profiling tracer streaming into an interval sink, as
    :func:`repro.obs.profile_workload` observes a run."""
    hub = MetricsHub()
    sink = IntervalSink()
    return load_bitcnt(hub, Tracer(kinds=PROFILE_KINDS, sink=sink)), hub, sink


class TestDisabledHubIsAbsent:
    def test_identical_results_and_no_bindings(self):
        _, plain = run_bitcnt()
        machine, disabled = run_bitcnt(MetricsHub(enabled=False))
        assert disabled.cycles == plain.cycles
        assert disabled.stats.mix.total == plain.stats.mix.total
        assert machine.hub is None
        assert machine.sampler is None
        # No component holds an instrument: the hot paths stay on the
        # single `is not None` fast branch and allocate nothing.
        for component in machine.engine.components:
            assert component._hub is None

    def test_disabled_hub_records_nothing(self):
        hub = MetricsHub(enabled=False)
        run_bitcnt(hub)
        assert hub.counters == {}
        assert hub.series == {}
        assert hub.gauges == {}

    def test_same_python_calls_as_plain_run(self, count_calls):
        """A disabled hub runs exactly the plain run's code: the same
        Python functions, each called the same number of times."""
        run_bitcnt()  # first-call imports and caches stay out of the count
        plain = count_calls(load_bitcnt())
        disabled = count_calls(load_bitcnt(MetricsHub(enabled=False)))
        assert sum(plain.values()) > 0
        assert disabled == plain


class TestEnabledHubIsTimingNeutral:
    def test_identical_cycles_with_hub_attached(self):
        _, plain = run_bitcnt()
        _, observed = run_bitcnt(
            MetricsHub(HubConfig(sample_interval=64))
        )
        assert observed.cycles == plain.cycles
        assert observed.stats.mix.total == plain.stats.mix.total
        assert (
            observed.stats.mfc.commands == plain.stats.mfc.commands
        )

    def test_observed_run_does_the_plain_runs_engine_work(self):
        # SPU run-ahead stays on under the hub and the profiling
        # tracer, so an observed run dispatches exactly the plain run's
        # engine ticks plus the sampler's own.
        plain_machine, plain = run_bitcnt()
        tracer = Tracer(kinds=PROFILE_KINDS, sink=IntervalSink())
        machine, observed = run_bitcnt(MetricsHub(), tracer)
        assert observed.stats == plain.stats
        assert machine.sampler.samples > 0
        assert (
            machine.engine.ticks_dispatched
            == plain_machine.engine.ticks_dispatched + machine.sampler.samples
        )
        assert (
            machine.engine.callbacks_dispatched
            == plain_machine.engine.callbacks_dispatched
        )


class TestObservationCost:
    """What observing a run costs in host work, counted in Python calls
    (the plain run's own calls are held by
    ``TestDisabledHubIsAbsent`` and ``tests/integration/test_event_cost.py``)."""

    def test_observed_run_within_the_call_budget(self, count_calls):
        load_observed_bitcnt()[0].run()  # imports and caches warm up
        machine, _, _ = load_observed_bitcnt()
        calls = sum(count_calls(machine).values())
        assert calls <= OBSERVED_RUN_CALLS

    def test_build_profile_within_the_call_budget(self, count_calls):
        machine, hub, sink = load_observed_bitcnt()
        result = machine.run()
        sink.finish(max(1, result.cycles))
        build = partial(build_profile, result, machine, hub, sink)
        build()  # imports and caches warm up
        calls = sum(count_calls(build).values())
        assert calls <= BUILD_PROFILE_CALLS
