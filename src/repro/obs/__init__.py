"""Observability subsystem: metrics, streaming traces, profiles, exports.

``repro.obs`` is the machine-readable window into a simulation:

* :mod:`repro.obs.trace` — streaming tracer (sinks: in-memory ring,
  JSONL file, tee).
* :mod:`repro.obs.hub` — :class:`MetricsHub`, a registry of counters /
  gauges / bucketed interval series sampled from every component, with
  bounded memory and strictly zero cost when not attached.
* :mod:`repro.obs.intervals` — reconstructs pipeline / DMA-tag / bus
  busy intervals from the event stream.
* :mod:`repro.obs.profile` — one-call profiler producing a
  :class:`Profile` (usage, breakdown, metrics, intervals).
* :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace_event`` export.
* :mod:`repro.obs.diff` — compare two profiles (perf-regression check).
"""

from repro.obs.diff import ProfileDiff, diff_profiles, load_profile, render_diff
from repro.obs.hub import (
    BucketSeries,
    Counter,
    GaugeSeries,
    HubConfig,
    MetricsHub,
    MetricsSampler,
)
from repro.obs.intervals import Interval, IntervalSink
from repro.obs.perfetto import to_perfetto, validate_trace_events
from repro.obs.profile import (
    Profile,
    dma_overlap_count,
    metrics_csv,
    profile_workload,
)
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TeeSink,
    TraceEvent,
    Tracer,
    TraceSink,
)

__all__ = [
    "BucketSeries",
    "Counter",
    "GaugeSeries",
    "HubConfig",
    "Interval",
    "IntervalSink",
    "JsonlSink",
    "MemorySink",
    "MetricsHub",
    "MetricsSampler",
    "Profile",
    "ProfileDiff",
    "TeeSink",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "diff_profiles",
    "dma_overlap_count",
    "load_profile",
    "metrics_csv",
    "profile_workload",
    "render_diff",
    "to_perfetto",
    "validate_trace_events",
]
