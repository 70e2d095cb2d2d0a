"""Host-performance benchmark: simulated cycles per wall-clock second.

Not a paper experiment — this measures the *simulator*, so performance
regressions in the event engine or the SPU interpreter show up in
``pytest benchmarks/`` history.  The paper's substrate was a compiled
C++ simulator; DESIGN.md's substitution argument rests on this number
staying high enough for the scaled workloads to run in seconds.
"""

from __future__ import annotations

from repro.bench.runner import run_workload
from repro.sim.config import paper_config
from repro.workloads import matmul


def test_simulated_cycles_per_second(benchmark):
    workload = matmul.build(n=8, threads=8)
    cfg = paper_config(4)

    result = benchmark(
        lambda: run_workload(workload, cfg, prefetch=False, verify=False)
    )
    # Derived throughput metrics for the benchmark table.
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["instructions"] = result.stats.mix.total
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["cycles_per_second"] = int(result.cycles / mean)
    # Sanity floor: the event-skipping engine must deliver at least
    # 100k simulated cycles/s on this memory-stall-bound workload (stalls
    # are skipped, so the effective rate is far above naive per-cycle
    # interpretation).
    assert result.cycles / mean > 100_000


def test_event_skip_efficiency(benchmark):
    """Dispatched ticks per simulated cycle — the event-skip win."""
    from repro.cell.machine import Machine

    workload = matmul.build(n=8, threads=8)

    def run():
        m = Machine(paper_config(4))
        m.load(workload.activity)
        res = m.run()
        return m.engine.ticks_dispatched, res.cycles

    ticks, cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ticks_per_cycle"] = round(ticks / cycles, 3)
    # A memory-bound run spends most cycles stalled: far fewer ticks than
    # (components x cycles). 4 SPEs = ~15 components.
    assert ticks < 3 * cycles

