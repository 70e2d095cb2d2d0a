"""Host-performance benchmark: parallel fan-out of a multi-workload sweep.

Not a paper experiment — this measures the bench layer itself: the same
(workload, SPE count, variant) matrix executed serially and via
``run_many(jobs=N)``, asserting the results are identical and recording
the wall-clock ratio.  Each side is timed as the median of three passes,
run alternately after one uncounted warm-up pair.  On a multi-core host
the parallel path must beat the serial one; on a single core (CI smoke
runners) only the identity claim is enforced, since forking cannot
create cycles out of thin air.

The persistent result cache is deliberately bypassed here: both paths
must actually simulate for the comparison to mean anything.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.bench.parallel import pair_tasks, run_many
from repro.bench.scale import builders
from repro.sim.config import paper_config


def _matrix():
    """Every benchmark at 2 and 4 SPEs, both variants — 12 runs."""
    tasks = []
    for name, build in builders().items():
        workload = build()
        for n in (2, 4):
            tasks.extend(pair_tasks(workload, paper_config(n)))
    return tasks


def test_parallel_sweep_throughput(benchmark):
    tasks = _matrix()
    jobs = min(4, os.cpu_count() or 1)
    serial, serial_times = None, []

    def serial_run():
        # pedantic's setup runs before each parallel round, so the two
        # sides alternate; the fixture times only the parallel pass.
        nonlocal serial
        t0 = time.perf_counter()
        serial = run_many(tasks, jobs=1)
        serial_times.append(time.perf_counter() - t0)

    def parallel_run():
        return run_many(tasks, jobs=jobs)

    # Three alternating passes per side (serial, parallel, serial, ...);
    # each side's time is its median pass, so one pass slowed by other
    # load on the host does not decide the comparison.  A first pair of
    # passes warms up and is not counted: run after the benchmarks/perf
    # tests in one process, the first parallel pass took 0.9-1.2 s where
    # later ones and a fresh process took about 0.5 s.
    parallel = benchmark.pedantic(
        parallel_run, setup=serial_run, rounds=3, warmup_rounds=1,
        iterations=1,
    )
    serial_s = statistics.median(serial_times[1:])
    parallel_s = benchmark.stats.stats.median

    assert [r.cycles for r in serial] == [r.cycles for r in parallel]

    benchmark.extra_info["runs"] = len(tasks)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["serial_seconds"] = round(serial_s, 3)
    benchmark.extra_info["speedup_vs_serial"] = round(serial_s / parallel_s, 2)
    if jobs >= 2 and (os.cpu_count() or 1) >= 2:
        # The whole point of the subsystem: a multi-workload sweep must
        # get faster when fanned out across real cores.
        assert parallel_s < serial_s, (
            f"parallel sweep ({parallel_s:.2f}s, jobs={jobs}) not faster "
            f"than serial ({serial_s:.2f}s)"
        )
