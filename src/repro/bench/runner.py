"""Experiment runner: the with/without-prefetching comparisons.

Every figure and table of the paper's evaluation reduces to one of two
experiment shapes:

* a **pair run** — the same workload executed on the same machine with
  and without the prefetch transformation (Figures 5 and 9, Table 5, the
  latency-1 study); or
* a **scaling sweep** — pair runs repeated for 1..8 SPEs (Figures 6-8).

:func:`run_pair` and :func:`sweep` implement those shapes, verify every
run against the workload oracle (a run that produces wrong answers must
never contribute a data point), and return plain dataclasses the report
module renders into paper-style tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

from repro.cell.machine import Machine, RunResult
from repro.compiler.passes import PrefetchOptions, prefetch_transform
from repro.core.activity import TLPActivity
from repro.sim.config import MachineConfig, paper_config
from repro.workloads.common import Workload, check_outputs

__all__ = ["PairResult", "ScalingResult", "pair_results", "restore_mismatch",
           "run_workload", "run_pair", "sweep"]


@dataclass
class PairResult:
    """One with/without-prefetching comparison."""

    workload: str
    config: MachineConfig
    base: RunResult
    prefetch: RunResult

    @property
    def speedup(self) -> float:
        """Execution-time ratio base / prefetch (the paper's headline)."""
        return self.base.cycles / self.prefetch.cycles

    @property
    def decoupled_fraction(self) -> float:
        """Fraction of baseline READs removed by the transformation."""
        base_reads = self.base.stats.mix.reads
        if base_reads == 0:
            return 0.0
        return 1.0 - self.prefetch.stats.mix.reads / base_reads


@dataclass
class ScalingResult:
    """A Figures 6-8 style sweep over SPE counts."""

    workload: str
    pairs: dict[int, PairResult] = field(default_factory=dict)

    def speedup_at(self, spes: int) -> float:
        return self.pairs[spes].speedup

    @property
    def baseline_spes(self) -> int:
        """SPE count :meth:`scalability` normalizes against.

        The 1-SPE point when the sweep includes it (the paper's Figures
        6-8 baseline); otherwise the smallest swept count, so partial
        sweeps still yield a curve anchored at 1.0.
        """
        return 1 if 1 in self.pairs else min(self.pairs)

    def scalability(self, prefetch: bool) -> dict[int, float]:
        """Execution time at :attr:`baseline_spes` divided by time at N SPEs.

        With a full 1..8 sweep this is the paper's scalability metric
        (time at 1 SPE over time at N); a sweep that omits 1 SPE is
        normalized to its smallest point instead.
        """
        pick = (lambda p: p.prefetch.cycles) if prefetch else (
            lambda p: p.base.cycles
        )
        baseline = pick(self.pairs[self.baseline_spes])
        return {n: baseline / pick(p) for n, p in sorted(self.pairs.items())}


def pair_results(
    tasks: Sequence, results: Sequence,
) -> "list[PairResult | None]":
    """Pair a batch's results, for tasks laid out as
    :func:`~repro.bench.parallel.pair_tasks` pairs: one
    :class:`PairResult` per (base, prefetch) pair, in order, or ``None``
    where a half failed (a ``keep_going`` batch).
    """
    return [
        None if base is None or prefetch is None else PairResult(
            workload=task.workload.name, config=task.config,
            base=base, prefetch=prefetch,
        )
        for task, base, prefetch in zip(tasks[::2], results[::2],
                                        results[1::2])
    ]


def restore_mismatch(
    machine: Machine, activity: TLPActivity, config: MachineConfig,
) -> "str | None":
    """What keeps a restored ``machine`` from continuing the run of
    ``activity`` on ``config``, or ``None`` when it continues that run.

    The activity's name, the machine config and the templates must all
    match: a prefetched and an unprefetched run of one activity share
    its name but not its templates.
    """
    actual = machine._activity
    if actual is None:
        return "checkpoint holds no activity"
    if actual.name != activity.name:
        return (f"checkpoint holds activity {actual.name!r}, not "
                f"{activity.name!r}")
    differ = [f.name for f in fields(config)
              if getattr(machine.config, f.name) != getattr(config, f.name)]
    if differ:
        return f"the checkpoint's machine differs in {', '.join(differ)}"
    if actual.templates != activity.templates:
        return (f"checkpoint holds another variant of {activity.name!r} "
                f"(other templates: another prefetch transform, or none)")
    return None


def run_workload(
    workload: Workload,
    config: MachineConfig,
    prefetch: bool,
    options: PrefetchOptions | None = None,
    max_cycles: int | None = 500_000_000,
    verify: bool = True,
    *,
    observe: Callable[[Machine], None] | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_path: str | None = None,
    restore_from: str | None = None,
) -> RunResult:
    """Run one variant of a workload, verifying outputs.

    ``observe(machine)`` is called on the set-up machine just before it
    runs: the place to attach a metrics hub or a tracer (profiling and
    the timeline do).

    ``checkpoint_every=N`` snapshots the machine to ``checkpoint_path``
    every N cycles (see :mod:`repro.sim.snapshot`).  ``restore_from``
    resumes a previously checkpointed machine instead of starting fresh
    — results stay bit-identical to an uninterrupted run.  A missing or
    corrupt restore file, or one of another run (:func:`restore_mismatch`),
    falls back to a fresh start: a stale checkpoint must never poison a
    run.
    """
    from repro.sim.snapshot import CheckpointError

    activity = workload.activity
    if prefetch:
        activity = prefetch_transform(activity, options)
    machine = None
    if restore_from is not None and os.path.exists(restore_from):
        try:
            restored = Machine.load_checkpoint(restore_from)
        except CheckpointError:
            restored = None  # unusable checkpoint: start fresh
        if (restored is not None
                and restore_mismatch(restored, activity, config) is None):
            machine = restored
    if machine is None:
        machine = Machine(config)
        machine.load(activity)
    if checkpoint_dir is None and checkpoint_path is not None:
        checkpoint_dir = os.path.dirname(checkpoint_path) or "."
    if observe is not None:
        observe(machine)
    result = machine.run(
        max_cycles=max_cycles,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_path=checkpoint_path,
    )
    if verify:
        errors = check_outputs(workload, machine)
        if errors:
            raise AssertionError(
                f"{workload.name} ({'PF' if prefetch else 'base'}): wrong "
                f"output:\n" + "\n".join(errors[:10])
            )
    return result


def run_pair(
    workload: Workload,
    config: MachineConfig | None = None,
    options: PrefetchOptions | None = None,
    max_cycles: int = 500_000_000,
    jobs: int | None = None,
    cache=None,
    progress: Callable[[str], None] | None = None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    resume: bool = False,
    checkpoint_every: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    keep_checkpoints: bool = False,
) -> PairResult:
    """Run a workload with and without prefetching on the same machine.

    ``jobs``/``cache`` route the two runs through
    :func:`repro.bench.parallel.run_many`: ``jobs`` worker processes
    (default ``REPRO_BENCH_JOBS`` or serial) and an optional
    :class:`~repro.bench.cache.ResultCache` of finished results.
    ``timeout``/``retries``/``resume`` are the resilience knobs, and the
    ``checkpoint_*`` arguments the machine-checkpoint knobs, of
    :func:`~repro.bench.parallel.run_many_detailed`.
    """
    from repro.bench.parallel import pair_tasks, run_many

    tasks = pair_tasks(
        workload, config if config is not None else paper_config(),
        options=options, max_cycles=max_cycles,
    )
    runs = run_many(
        tasks, jobs=jobs, cache=cache, progress=progress,
        timeout=timeout, retries=retries, resume=resume,
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        keep_checkpoints=keep_checkpoints,
    )
    return pair_results(tasks, runs)[0]


def sweep(
    build: Callable[[], Workload],
    spes: Sequence[int] = (1, 2, 4, 8),
    config_for: Callable[[int], MachineConfig] = paper_config,
    options: PrefetchOptions | None = None,
    jobs: int | None = None,
    cache=None,
    progress: Callable[[str], None] | None = None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    resume: bool = False,
    keep_going: bool = False,
    checkpoint_every: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    keep_checkpoints: bool = False,
) -> ScalingResult:
    """Pair runs across SPE counts (the Figures 6-8 axes).

    ``build`` is called once; the same workload (hence identical inputs
    and oracle) is reused across machine sizes.  All ``2 * len(spes)``
    runs are independent, so with ``jobs > 1`` (or ``REPRO_BENCH_JOBS``
    set) they fan out across worker processes; results are bit-identical
    to the serial path either way, and ``cache`` serves already-finished
    runs without simulating.

    ``timeout``/``retries``/``resume`` are the resilience knobs of
    :func:`~repro.bench.parallel.run_many_detailed`.  With
    ``keep_going=True`` a permanently failing point is *dropped* from
    the returned :class:`ScalingResult` (both variants must finish for a
    pair to count) instead of aborting the sweep.
    """
    from repro.bench.parallel import pair_tasks, run_many

    workload = build()
    tasks = []
    for n in spes:
        tasks.extend(pair_tasks(workload, config_for(n), options=options))
    runs = run_many(
        tasks, jobs=jobs, cache=cache, progress=progress,
        timeout=timeout, retries=retries, resume=resume,
        keep_going=keep_going,
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        keep_checkpoints=keep_checkpoints,
    )
    # keep_going drops a failed point (None); see the progress log.
    return ScalingResult(
        workload=workload.name,
        pairs={
            n: pair for n, pair in zip(spes, pair_results(tasks, runs))
            if pair is not None
        },
    )
