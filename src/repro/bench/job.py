"""One description of a simulation job, shared by the CLI and the gateway.

A :class:`JobSpec` holds what the simulation flags of ``python -m repro``
and the ``params`` of a gateway request say about a job.  Its runs take
the machine (:meth:`JobSpec.config`), the prefetch options
(:meth:`JobSpec.options`), the workload and the run tasks
(:func:`build_tasks`) from the spec alone, so a CLI command and a served
job with equal specs simulate equal tasks and share result-cache
entries.  The gateway's service bounds (``MAX_SPES``,
``MAX_SWEEP_POINTS``) are checked on requests by
:mod:`repro.serve.protocol`; local runs do not inherit them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.parallel import RunTask, pair_tasks
from repro.bench.scale import builders
from repro.compiler.passes import PrefetchOptions
from repro.faults.plan import FaultPlan
from repro.sim.config import MachineConfig, paper_config
from repro.workloads.common import Workload

__all__ = ["JobSpec", "build_tasks", "profile_job"]


@dataclass(frozen=True)
class JobSpec:
    """A canonical description of one job's simulation work.

    ``kind`` is ``run`` (one variant at ``spes[0]``), ``sweep`` (a
    (base, prefetch) pair at each of ``spes``) or ``profile`` (a ``run``
    under the metrics hub).  ``scale=None`` is ``REPRO_BENCH_SCALE``; a
    spec without a ``benchmark`` describes only a machine.  A fault-spec
    typo raises :class:`~repro.faults.FaultPlanError` on construction,
    before any workload is built.
    """

    kind: str = "run"
    benchmark: "str | None" = None
    scale: "str | None" = None
    spes: "tuple[int, ...]" = (8,)
    prefetch: bool = True
    latency: "int | None" = None
    faults: "str | None" = None
    sanitize: bool = False
    threshold: float = 0.5
    bucket_cycles: "int | None" = None

    def __post_init__(self) -> None:
        if self.faults:
            FaultPlan.parse(self.faults)

    @property
    def label(self) -> str:
        axis = ",".join(str(n) for n in self.spes)
        return f"{self.kind} {self.benchmark} spes={axis}"

    def to_dict(self) -> dict:
        """The gateway ``params`` object that re-parses to this spec."""
        out: dict = {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "latency": self.latency,
            "faults": self.faults,
            "sanitize": self.sanitize,
            "threshold": self.threshold,
        }
        if self.kind == "sweep":
            out["spes"] = list(self.spes)
        else:
            out["spes"] = self.spes[0]
            out["prefetch"] = self.prefetch
        if self.kind == "profile":
            out["bucket_cycles"] = self.bucket_cycles
        return out

    def config(self, spes: int) -> MachineConfig:
        """The paper machine at ``spes`` SPEs, with this job's memory
        latency, fault plan and sanitizer."""
        cfg = paper_config(spes)
        if self.latency is not None:
            cfg = cfg.with_latency(self.latency)
        if self.faults:
            cfg = cfg.with_faults(self.faults)
        if self.sanitize:
            cfg = cfg.replace(sanitize=True)
        return cfg

    def options(self) -> PrefetchOptions:
        return PrefetchOptions(worthwhile_threshold=self.threshold)

    def workload(self) -> Workload:
        return builders(self.scale)[self.benchmark]()


def build_tasks(
    spec: JobSpec, workload: "Workload | None" = None,
) -> "list[RunTask]":
    """The :class:`RunTask` list a spec's simulation work decomposes into.

    ``run``/``profile`` map to one task, ``sweep`` to a (base, prefetch)
    pair per SPE count.  The gateway and ``repro sweep``, ``repro
    tables`` and ``repro reproduce`` build identical tasks (equal keys)
    for the same run, so they share results and cache entries.
    ``workload`` reuses an already built :meth:`JobSpec.workload`.
    """
    workload = workload or spec.workload()
    if spec.kind == "sweep":
        return [
            task for n in spec.spes
            for task in pair_tasks(workload, spec.config(n), spec.options())
        ]
    return [
        RunTask(workload, spec.config(spec.spes[0]), prefetch=spec.prefetch,
                options=spec.options())
    ]


def profile_job(spec: JobSpec, trace_jsonl=None):
    """Run a ``profile`` spec under the metrics hub and the profiling
    tracer; returns ``(result, profile)``.  ``bucket_cycles`` sets the
    timeseries bucket width and the sampling interval; ``trace_jsonl``
    also streams the raw events
    (:func:`repro.obs.profile.profile_workload`).
    """
    from repro.obs.hub import HubConfig
    from repro.obs.profile import profile_workload

    hub_config = (
        HubConfig(bucket_cycles=spec.bucket_cycles,
                  sample_interval=spec.bucket_cycles)
        if spec.bucket_cycles else None
    )
    return profile_workload(
        spec.workload(), spec.config(spec.spes[0]),
        prefetch=spec.prefetch, options=spec.options(),
        hub_config=hub_config, trace_jsonl=trace_jsonl,
    )
