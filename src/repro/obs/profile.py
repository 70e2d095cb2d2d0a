"""The profiler: one call that runs a workload under full observability.

:func:`profile_workload` is :func:`repro.bench.runner.run_workload`
with a :class:`~repro.obs.hub.MetricsHub` and a tracer streaming into
an :class:`~repro.obs.intervals.IntervalSink` attached, and folds the
run into a :class:`Profile`: the Figure 9 pipeline usage and Figure 5
cycle breakdown from the run's ``MachineStats``, the bounded metric
timeseries, and the pipeline / DMA / bus intervals the Perfetto
exporter turns into tracks.

The profiler is observation-only: cycle counts and stats are identical
to an unprofiled run.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

from repro.obs.hub import HubConfig, MetricsHub
from repro.obs.intervals import PROFILE_KINDS, Interval, IntervalSink
from repro.obs.trace import JsonlSink, TeeSink, Tracer, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.cell.machine import Machine, RunResult
    from repro.compiler.passes import PrefetchOptions
    from repro.sim.config import MachineConfig
    from repro.workloads.common import Workload

__all__ = [
    "Profile",
    "profile_workload",
    "build_profile",
    "metrics_csv",
    "dma_overlap_count",
]

#: Format marker for profile JSON files (diff refuses unknown versions).
PROFILE_VERSION = 1


@dataclass
class Profile:
    """Everything one profiled run produced, JSON-serializable."""

    activity: str
    prefetch: bool
    spes: int
    cycles: int
    #: Figure 9 per-SPU usage (``SpuStats.pipeline_usage``).
    pipeline_usage_per_spu: list[float]
    #: Average cycles per Figure 5 bucket (idle = unaccounted remainder).
    breakdown_cycles: dict[str, float]
    #: Machine-wide totals worth diffing.
    totals: dict[str, int]
    #: Full hub dump (counters / series / gauges with their ring buffers).
    metrics: dict
    #: Interval series (pipeline per SPU, DMA per tag group, bus per channel).
    intervals: dict
    version: int = PROFILE_VERSION

    @property
    def average_pipeline_usage(self) -> float:
        if not self.pipeline_usage_per_spu:
            return 0.0
        return sum(self.pipeline_usage_per_spu) / len(self.pipeline_usage_per_spu)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "activity": self.activity,
            "prefetch": self.prefetch,
            "spes": self.spes,
            "cycles": self.cycles,
            "pipeline_usage": {
                "average": self.average_pipeline_usage,
                "per_spu": list(self.pipeline_usage_per_spu),
            },
            "breakdown_cycles": dict(self.breakdown_cycles),
            "totals": dict(self.totals),
            "metrics": self.metrics,
            "intervals": self.intervals,
        }

    def summary_dict(self) -> dict:
        """The compact section :func:`repro.bench.export.run_to_dict` embeds."""
        return {
            "pipeline_usage": self.average_pipeline_usage,
            "breakdown_cycles": dict(self.breakdown_cycles),
            "totals": dict(self.totals),
            "counters": dict(self.metrics.get("counters", {})),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        version = data.get("version")
        if version != PROFILE_VERSION:
            raise ValueError(
                f"unsupported profile version {version!r} "
                f"(this build reads version {PROFILE_VERSION})"
            )
        return cls(
            activity=data["activity"],
            prefetch=data["prefetch"],
            spes=data["spes"],
            cycles=data["cycles"],
            pipeline_usage_per_spu=list(data["pipeline_usage"]["per_spu"]),
            breakdown_cycles=dict(data["breakdown_cycles"]),
            totals=dict(data["totals"]),
            metrics=data.get("metrics", {}),
            intervals=data.get("intervals", {}),
        )


def build_profile(
    result: "RunResult", machine: "Machine", hub: MetricsHub, sink: IntervalSink
) -> Profile:
    """Assemble a :class:`Profile` from a finished observed run.

    Usage and breakdown are ``result.stats``'s own, the numbers every
    figure, export and cache entry uses: per SPU, usage is
    :attr:`~repro.sim.stats.SpuStats.pipeline_usage`, and each bucket of
    the breakdown is summed over SPUs, then divided by their count.  The
    hub contributes its time-bucketed series and the sink the intervals.
    """
    from repro.sim.stats import Bucket

    stats = result.stats
    num_spes = len(stats.spus)
    breakdown = {
        b: sum(getattr(s.breakdown, b) for s in stats.spus) / num_spes
        for b in Bucket.ALL
    }
    totals = {
        "threads": machine.threads_completed,
        "instructions": stats.mix.total,
        "dma_commands": stats.mfc.commands,
        "dma_bytes": stats.mfc.bytes_transferred,
        "bus_transfers": stats.bus.transfers,
        "bus_bytes": stats.bus.bytes_moved,
        "memory_reads": stats.memory.read_requests,
        "memory_writes": stats.memory.write_requests,
        "engine_ticks": machine.engine.ticks_dispatched,
        "engine_callbacks": machine.engine.callbacks_dispatched,
        "engine_stale_skipped": machine.engine.stale_skipped,
    }
    return Profile(
        activity=result.activity,
        prefetch=result.prefetch,
        spes=num_spes,
        cycles=result.cycles,
        pipeline_usage_per_spu=[s.pipeline_usage for s in stats.spus],
        breakdown_cycles=breakdown,
        totals=totals,
        metrics=hub.to_dict(),
        intervals=sink.to_dict(),
    )


def profile_workload(
    workload: "Workload",
    config: "MachineConfig | None" = None,
    prefetch: bool = True,
    options: "PrefetchOptions | None" = None,
    max_cycles: int | None = 500_000_000,
    verify: bool = True,
    hub_config: HubConfig | None = None,
    trace_jsonl: "str | os.PathLike | IO[str] | None" = None,
) -> "tuple[RunResult, Profile]":
    """Profile one variant of a benchmark workload, verifying outputs.

    :func:`repro.bench.runner.run_workload` with a metrics hub and a
    profiling tracer attached through its ``observe`` hook; returns
    ``(result, profile)``.  ``trace_jsonl`` additionally streams the raw
    profiling events to a JSONL file (path or open text file), which is
    flushed and closed even when the run raises.
    """
    from repro.bench.runner import run_workload
    from repro.sim.config import MachineConfig

    hub = MetricsHub(hub_config)
    interval_sink = IntervalSink()
    sink: TraceSink = interval_sink
    if trace_jsonl is not None:
        sink = TeeSink([interval_sink, JsonlSink(trace_jsonl)])
    tracer = Tracer(kinds=PROFILE_KINDS, sink=sink)
    observed: list["Machine"] = []

    def observe(machine: "Machine") -> None:
        machine.attach_hub(hub)
        machine.attach_tracer(tracer)
        observed.append(machine)

    try:
        result = run_workload(
            workload, config if config is not None else MachineConfig(),
            prefetch, options, max_cycles, verify, observe=observe,
        )
    finally:
        tracer.close()
    interval_sink.finish(max(1, result.cycles))
    return result, build_profile(result, observed[0], hub, interval_sink)


def metrics_csv(profile: Profile) -> str:
    """Flat CSV of every hub instrument (one row per point / counter)."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["instrument", "name", "bucket_start", "value", "extra"])
    metrics = profile.metrics
    for name, value in sorted(metrics.get("counters", {}).items()):
        writer.writerow(["counter", name, "", value, ""])
    for name, series in sorted(metrics.get("series", {}).items()):
        for start, value in series.get("points", []):
            writer.writerow(["series", name, start, value, ""])
    for name, gauge in sorted(metrics.get("gauges", {}).items()):
        for start, last, peak in gauge.get("points", []):
            writer.writerow(["gauge", name, start, last, peak])
    return out.getvalue()


def dma_overlap_count(profile: Profile) -> int:
    """DMA intervals overlapping another thread's executing (``run``) time.

    The paper's non-blocking claim, made checkable: a DMA tag group of
    thread A counts when some pipeline ``run`` interval of a different
    thread overlaps it in time.  Zero means prefetching never actually
    hid a transfer behind other threads' execution.
    """
    intervals = profile.intervals
    runs: list[Interval] = []
    for ivs in intervals.get("pipeline", {}).values():
        for iv in ivs:
            if iv["kind"] == "run":
                runs.append(Interval(**iv))
    count = 0
    for dma in intervals.get("dma", []):
        window = Interval(
            start=dma["start"], end=dma["end"], kind="dma", tid=dma["tid"]
        )
        if any(
            run.overlaps(window) and run.tid != window.tid for run in runs
        ):
            count += 1
    return count
