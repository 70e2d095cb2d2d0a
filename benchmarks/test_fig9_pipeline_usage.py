"""Figure 9 — pipeline usage with and without prefetching (8 SPEs).

The measured run goes through :func:`repro.obs.profile_workload`, and
the figure's usage numbers are the profile's, which it reads from the
observed run's ``MachineStats``.  Each must equal the usage of the
plain (unobserved) run of the cached ``all_pairs`` exactly: observing a
run may not change it.

Shape claims: "the usage is much higher when prefetching is performed
because operations with local store are much faster than operations with
main memory", and the improvement mirrors the memory-stall mass removed
in Figure 5 — near-perfect utilization for mmul/zoom, a smaller gain for
bitcnt.
"""

from __future__ import annotations

from repro.bench.report import pipeline_usage_table
from repro.bench.scale import builders
from repro.obs import profile_workload
from repro.sim.config import paper_config


def test_fig9_pipeline_usage(benchmark, all_pairs):
    build = builders()["mmul"]
    benchmark.pedantic(
        lambda: profile_workload(build(), paper_config(8), prefetch=True),
        rounds=1,
        iterations=1,
    )
    print()
    print(pipeline_usage_table(all_pairs))

    # Profile every benchmark in both variants; the figure's numbers are
    # the observed runs', and must be the plain pair runs' too.
    usage = {}
    for name, build in builders().items():
        usage[name] = {}
        for prefetch in (False, True):
            _, profile = profile_workload(
                build(), paper_config(8), prefetch=prefetch
            )
            usage[name][prefetch] = profile.average_pipeline_usage
            pair_run = (
                all_pairs[name].prefetch if prefetch else all_pairs[name].base
            )
            assert profile.average_pipeline_usage == (
                pair_run.stats.average_pipeline_usage
            ), f"{name} prefetch={prefetch}: observed run differs from plain"

    for name, variants in usage.items():
        assert variants[True] > variants[False], (
            f"{name}: prefetching must raise pipeline usage"
        )
    # Memory-bound benchmarks: usage rises dramatically.
    for name in ("mmul", "zoom"):
        assert usage[name][True] > 3 * usage[name][False]
        assert usage[name][False] < 0.15
