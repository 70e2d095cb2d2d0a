"""Default-scale results pinned: the runs EXPERIMENTS.md reports.

``repro reproduce`` at the default scale simulates 30 runs: bitcnt(96),
mmul(16) and zoom(16) at 1, 2, 4 and 8 SPEs, each without and with the
prefetch transform, at memory latency 150, plus the three 8-SPE pairs of
the latency-1 study.  Each run's cycles and the sha256 of
``asdict(MachineStats)`` are pinned in ``tests/golden/digests.json``
under ``default/<benchmark>/<variant><spes>`` (``lat1_<variant>8`` for
the latency-1 study), so a change that moves one of these numbers shows
which run moved.  The tasks are built as ``repro reproduce`` builds
them, and each run is checked against its oracle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.job import JobSpec, build_tasks
from repro.bench.parallel import pair_tasks
from repro.bench.scale import builders, spe_counts
from repro.sim.config import latency1_config

BENCHMARKS = ("bitcnt", "mmul", "zoom")


def _tasks() -> dict:
    """Golden key -> the (workload name, task factory) of each run."""
    def scaling(name, index):
        workload = builders("default")[name]()
        spec = JobSpec(kind="sweep", benchmark=name, scale="default",
                       spes=spe_counts())
        return build_tasks(spec, workload)[index]

    def latency1(name, index):
        workload = builders("default")[name]()
        return pair_tasks(workload, latency1_config(8))[index]

    tasks = {}
    for name in BENCHMARKS:
        for i, n in enumerate(spe_counts()):
            for j, variant in enumerate(("base", "prefetch")):
                tasks[f"default/{name}/{variant}{n}"] = (
                    scaling, name, 2 * i + j
                )
        for j, variant in enumerate(("base", "prefetch")):
            tasks[f"default/{name}/lat1_{variant}8"] = (latency1, name, j)
    return tasks


TASKS = _tasks()


@pytest.mark.parametrize("key", sorted(TASKS))
def test_default_scale_run_pinned(key, golden):
    make, name, index = TASKS[key]
    task = make(name, index)
    variant = key.rsplit("/", 1)[1]
    assert task.prefetch == ("prefetch" in variant)
    assert task.config.num_spes == int(variant[-1])
    result = task.run()  # run_workload checks the outputs against the oracle
    golden.check(key, {
        "cycles": result.cycles,
        "stats": golden.digest(dataclasses.asdict(result.stats)),
    })


def test_the_matrix_has_thirty_runs():
    assert len(TASKS) == 30
