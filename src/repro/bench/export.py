"""Machine-readable experiment exports.

Renders run results into plain dictionaries / JSON / CSV so users can
plot the paper's figures with their own tooling, and provides
:func:`reproduce_all` — a single call that executes every experiment of
EXPERIMENTS.md and returns (or writes) the complete result set.

Used by ``python -m repro reproduce``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace
from typing import Mapping

from repro.bench.runner import PairResult, ScalingResult, pair_results
from repro.bench.scale import builders, current_scale, spe_counts
from repro.cell.machine import RunResult
from repro.sim.config import latency1_config
from repro.sim.stats import Bucket

__all__ = [
    "SCHEMA_VERSION",
    "run_to_dict",
    "pair_to_dict",
    "scaling_to_dict",
    "scaling_to_csv",
    "reproduce_all",
    "to_json",
]

#: Version of every machine-readable payload this module (and the
#: :mod:`repro.serve` gateway, which re-exports it) emits.  Bump it on
#: ANY change to the shape, keys or units of :func:`run_to_dict` /
#: :func:`pair_to_dict` / :func:`scaling_to_dict` output — consumers
#: pin against it, and the serving protocol echoes it so clients can
#: reject payloads they do not understand.  See docs/SERVING.md.
SCHEMA_VERSION = 1


def run_to_dict(run: RunResult, profile=None) -> dict:
    """Flatten one run into JSON-serializable primitives.

    When a :class:`repro.obs.profile.Profile` is given, its summary
    (usage / breakdown / totals / hub counters) is embedded under the
    ``"obs"`` key.
    """
    mix = run.stats.mix.table5_row()
    out = {
        "schema_version": SCHEMA_VERSION,
        "activity": run.activity,
        "prefetch": run.prefetch,
        "cycles": run.cycles,
        "spes": run.config.num_spes,
        "memory_latency": run.config.main_memory.latency,
        "breakdown": {
            b: run.stats.average_breakdown.fraction(b) for b in Bucket.ALL
        },
        "pipeline_usage": run.stats.average_pipeline_usage,
        "instructions": {
            "total": mix["total"],
            "load": mix["LOAD"],
            "store": mix["STORE"],
            "read": mix["READ"],
            "write": mix["WRITE"],
        },
        "dma": {
            "commands": run.stats.mfc.commands,
            "bytes": run.stats.mfc.bytes_transferred,
        },
        "scheduler": {
            "fallocs": run.stats.scheduler.fallocs,
            "falloc_waits": run.stats.scheduler.falloc_waits,
            "remote_stores": run.stats.scheduler.remote_stores,
        },
        "bus": {
            "transfers": run.stats.bus.transfers,
            "bytes": run.stats.bus.bytes_moved,
        },
        "faults": {
            "plan": run.config.faults.describe(),
            "dma_delays": run.stats.faults.dma_delays,
            "dma_drops": run.stats.faults.dma_drops,
            "dma_retries": run.stats.faults.dma_retries,
            "dma_fallbacks": run.stats.faults.dma_fallbacks,
            "bus_delays": run.stats.faults.bus_delays,
            "bus_duplicates": run.stats.faults.bus_duplicates,
            "bus_duplicates_absorbed":
                run.stats.faults.bus_duplicates_absorbed,
            "mem_stalls": run.stats.faults.mem_stalls,
            # Data-fault injection and recovery counters (all zero for
            # timing-only plans).
            **run.stats.faults.recovery_counters(),
        },
    }
    if profile is not None:
        out["obs"] = profile.summary_dict()
    return out


def pair_to_dict(pair: PairResult) -> dict:
    return {
        "workload": pair.workload,
        "speedup": pair.speedup,
        "decoupled_fraction": pair.decoupled_fraction,
        "base": run_to_dict(pair.base),
        "prefetch": run_to_dict(pair.prefetch),
    }


def scaling_to_dict(scaling: ScalingResult) -> dict:
    return {
        "workload": scaling.workload,
        "points": {
            str(n): pair_to_dict(p) for n, p in sorted(scaling.pairs.items())
        },
        "scalability": {
            "base": {str(k): v for k, v in scaling.scalability(False).items()},
            "prefetch": {
                str(k): v for k, v in scaling.scalability(True).items()
            },
        },
    }


def scaling_to_csv(scaling: dict) -> str:
    """One row per (SPE count, variant) of a :func:`scaling_to_dict`
    export (such as a :func:`reproduce_all` scaling entry) — ready for a
    spreadsheet.  The workload column names the simulated activity."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["workload", "spes", "variant", "cycles", "speedup_vs_base",
         "mem_stall_frac", "pipeline_usage"]
    )
    for n, point in scaling["points"].items():
        for variant in ("base", "prefetch"):
            run = point[variant]
            writer.writerow(
                [
                    run["activity"],
                    n,
                    variant,
                    run["cycles"],
                    f"{point['speedup']:.4f}" if variant == "prefetch"
                    else "1.0",
                    f"{run['breakdown'][Bucket.MEM_STALL]:.4f}",
                    f"{run['pipeline_usage']:.4f}",
                ]
            )
    return out.getvalue()


def reproduce_all(
    scale: str | None = None,
    spes: "tuple[int, ...] | None" = None,
    progress=None,
    jobs: int | None = None,
    cache=None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    resume: bool = False,
    keep_going: bool = False,
    checkpoint_every: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    keep_checkpoints: bool = False,
    faults: "str | None" = None,
) -> dict:
    """Execute the full experiment matrix (Figures 5-9, Table 5, L1).

    Returns a JSON-serializable dictionary keyed by experiment id.
    ``progress`` (if given) is called with a status line per step.

    The whole matrix — every (workload, SPE count, variant) point plus
    the latency-1 study — is one batch of independent deterministic
    runs, so it is submitted to :func:`repro.bench.parallel.run_many`
    in a single fan-out: ``jobs`` worker processes drain it (default
    ``REPRO_BENCH_JOBS`` or serial) and a
    :class:`~repro.bench.cache.ResultCache` makes a re-run with
    unchanged code and parameters perform zero new simulations.

    ``timeout``/``retries``/``resume`` are the resilience knobs of
    :func:`~repro.bench.parallel.run_many_detailed`; ``resume=True``
    continues an interrupted matrix from the sweep journal without
    re-simulating settled tasks, producing output bit-identical to an
    uninterrupted run.  With ``keep_going=True`` a permanently failing
    task no longer aborts the batch: every experiment that *can* be
    assembled from the surviving runs is emitted, and a ``degraded``
    manifest section names each failed task (label, taxonomy kind,
    attempts, last error).  Pairs with a failed half are dropped from
    their experiment; a workload missing its max-SPE pair is dropped
    from the Table 5 / Figure 5 / Figure 9 sections.
    """
    from repro.bench.job import JobSpec, build_tasks
    from repro.bench.parallel import TaskFailure, pair_tasks, run_many_detailed

    def log(msg: str) -> None:
        if progress is not None:
            progress(msg)

    # The spec validates the fault spec before anything is built or
    # spawned — a typo'd key must fail here, not inside a worker process.
    spec = JobSpec(
        kind="sweep", scale=scale or current_scale(),
        spes=tuple(spes or spe_counts()), faults=faults,
    )
    axis, top = spec.spes, max(spec.spes)
    plan = spec.config(top).faults
    result: dict = {
        "schema_version": SCHEMA_VERSION,
        "scale": spec.scale,
        "spes": list(axis),
        "experiments": {},
    }
    if faults:
        result["faults"] = plan.describe()

    workloads = {name: build() for name, build in builders(spec.scale).items()}
    tasks = []
    slots: list[tuple[str, str, int]] = []  # (experiment, workload, spes)
    for name, workload in workloads.items():
        tasks.extend(build_tasks(replace(spec, benchmark=name), workload))
        slots.extend(("scaling", name, n) for n in axis)
    latency1 = latency1_config(top).replace(faults=plan)
    for name, workload in workloads.items():
        tasks.extend(pair_tasks(workload, latency1))
        slots.append(("latency1", name, top))

    log(f"running {len(tasks)} simulations "
        f"({len(workloads)} workloads x {len(axis)} SPE counts x 2 "
        f"variants + latency-1 study) ...")
    batch = run_many_detailed(
        tasks, jobs=jobs, cache=cache, progress=progress,
        timeout=timeout, retries=retries, resume=resume,
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        keep_checkpoints=keep_checkpoints,
    )
    if batch.failures and not keep_going:
        raise TaskFailure.from_batch(tasks, batch.failures)

    scalings: dict[str, ScalingResult] = {
        name: ScalingResult(workload=name) for name in workloads
    }
    latency1_pairs: dict[str, PairResult] = {}
    for (experiment, name, n), pair in zip(
        slots, pair_results(tasks, batch.results)
    ):
        if pair is None:
            continue  # a failed half degrades the whole pair
        pair.workload = name  # the matrix names pairs by benchmark
        if experiment == "scaling":
            scalings[name].pairs[n] = pair
        else:
            latency1_pairs[name] = pair

    result["experiments"]["scaling"] = {
        name: scaling_to_dict(s) for name, s in scalings.items() if s.pairs
    }
    pairs_at_max = {
        name: s.pairs[top] for name, s in scalings.items() if top in s.pairs
    }
    result["experiments"]["table5"] = {
        name: run_to_dict(p.base)["instructions"]
        for name, p in pairs_at_max.items()
    }
    result["experiments"]["fig5"] = {
        name: {
            "base": run_to_dict(p.base)["breakdown"],
            "prefetch": run_to_dict(p.prefetch)["breakdown"],
        }
        for name, p in pairs_at_max.items()
    }
    result["experiments"]["fig9"] = {
        name: {
            "base": p.base.stats.average_pipeline_usage,
            "prefetch": p.prefetch.stats.average_pipeline_usage,
        }
        for name, p in pairs_at_max.items()
    }
    result["experiments"]["latency1"] = {
        name: pair_to_dict(pair) for name, pair in latency1_pairs.items()
    }
    if batch.failures:
        result["degraded"] = [
            {
                "label": tasks[i].label,
                "kind": info.kind,
                "attempts": info.attempts,
                "error": f"{type(info.error).__name__}: {info.error}",
                # Fault/recovery counters at the point of failure, when
                # the error carried them (DataCorruptionError does).
                "faults": info.faults,
            }
            for i, info in sorted(batch.failures.items())
        ]
        log(
            f"degraded result: {len(batch.failures)} of {len(tasks)} "
            f"task(s) failed; partial artifacts emitted"
        )
    return result


def to_json(data: Mapping, indent: int = 2) -> str:
    return json.dumps(data, indent=indent, sort_keys=True)
