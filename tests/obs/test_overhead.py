"""Observability cost: disabled == absent, enabled == timing-neutral."""

from __future__ import annotations

import time

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.obs.hub import HubConfig, MetricsHub
from repro.sim.config import paper_config


def run_bitcnt(hub=None):
    workload = builders("test")["bitcnt"]()
    machine = Machine(paper_config(2))
    if hub is not None:
        machine.attach_hub(hub)
    machine.load(prefetch_transform(workload.activity))
    return machine, machine.run()


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

    def test_wall_clock_overhead_small(self):
        """min-of-5 wall clock with a disabled hub stays within 25% of a
        plain run (the issue asks ≤2%; the generous bound absorbs CI
        noise while still catching an accidentally-enabled slow path).
        Five samples rather than three: the decoded issue loop made the
        run short enough that scheduler noise can dominate a min-of-3."""

        def best_of(n, fn):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        run_bitcnt()  # warm caches / imports
        plain = best_of(5, run_bitcnt)
        disabled = best_of(5, lambda: run_bitcnt(MetricsHub(enabled=False)))
        assert disabled <= plain * 1.25, (
            f"disabled-hub run {disabled:.3f}s vs plain {plain:.3f}s"
        )


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
