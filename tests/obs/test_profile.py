"""The profiler: a run_workload observer whose hub must agree with
the stats pipeline it reads Fig. 5/9 from."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.bench.export import run_to_dict
from repro.bench.scale import builders
from repro.obs import Profile, metrics_csv, profile_workload
from repro.sim.config import paper_config
from repro.sim.stats import Bucket

#: Same chaos spec as the fault matrix: every timing fault class fires.
CHAOS = ("dma_delay=0.1,dma_drop=0.08,bus_delay=0.05,bus_dup=0.05,"
         "mem_stall=0.05,dma_max_retries=2")


@pytest.fixture(scope="module")
def observed3():
    """{"plain" | "chaos": (result, profile)} of prefetched bitcnt at 3 SPEs."""
    configs = {
        "plain": paper_config(3),
        "chaos": paper_config(3).with_faults(f"seed=1,{CHAOS}"),
    }
    return {
        label: profile_workload(builders("test")["bitcnt"](), config)
        for label, config in configs.items()
    }


def bucket_pairs(result, profile):
    """(instrument, hub total, MachineStats field) for each SPU's Fig. 5
    bucket series (idle is the unaccounted remainder, not a series)."""
    series = profile.metrics["series"]
    for i, spu in enumerate(result.stats.spus):
        for bucket in Bucket.ALL:
            if bucket != Bucket.IDLE:
                name = f"spu{i}.{bucket}"
                yield (name, series[name]["total"],
                       getattr(spu.breakdown, bucket))


def issue_pairs(result, profile):
    """The same for each SPU's issue counters, behind Fig. 9's usage."""
    counters = profile.metrics["counters"]
    for i, spu in enumerate(result.stats.spus):
        yield (f"spu{i}.issue_cycles", counters[f"spu{i}.issue_cycles"],
               spu.issue_cycles)
        yield (f"spu{i}.dual_issue_cycles",
               counters[f"spu{i}.dual_issue_cycles"], spu.dual_issue_cycles)


def machine_pairs(result, profile):
    """The same for the bus and memory, and for the per-SPE MFC and LSE
    instruments summed over SPEs."""
    stats = result.stats
    series, counters = profile.metrics["series"], profile.metrics["counters"]
    spes = range(len(stats.spus))
    yield ("bus.busy_cycles", series["bus.busy_cycles"]["total"],
           stats.bus.busy_bus_cycles)
    yield "bus.bytes", series["bus.bytes"]["total"], stats.bus.bytes_moved
    yield ("memory.requests", series["memory.requests"]["total"],
           stats.memory.read_requests + stats.memory.write_requests)
    yield ("memory.port_wait_cycles",
           series["memory.port_wait_cycles"]["total"],
           stats.memory.port_wait_cycles)
    yield ("mfc*.bytes", sum(series[f"mfc{i}.bytes"]["total"] for i in spes),
           stats.mfc.bytes_transferred)
    yield ("mfc*.commands", sum(counters[f"mfc{i}.commands"] for i in spes),
           stats.mfc.commands)
    yield ("lse*.fallocs", sum(counters[f"lse{i}.fallocs"] for i in spes),
           stats.scheduler.fallocs)
    yield ("lse*.falloc_waits",
           sum(counters[f"lse{i}.falloc_waits"] for i in spes),
           stats.scheduler.falloc_waits)


def mismatches(pairs) -> list:
    return [(name, hub, stats) for name, hub, stats in pairs if hub != stats]


class TestAgreementWithStats:
    """The profile's usage and breakdown are ``MachineStats``'s own; what
    can still drift is each hub total (behind timelines, Perfetto, the
    metrics CSV and ``/metricsz``) against the field it mirrors.  Checked
    on a plain and a chaos run at 3 SPEs."""

    def test_breakdown_matches_stats(self, observed3):
        for label, (result, profile) in observed3.items():
            assert mismatches(bucket_pairs(result, profile)) == [], label

    def test_pipeline_usage_matches_stats(self, observed3):
        for label, (result, profile) in observed3.items():
            assert mismatches(issue_pairs(result, profile)) == [], label

    def test_totals_match_stats(self, observed3):
        for label, (result, profile) in observed3.items():
            assert mismatches(machine_pairs(result, profile)) == [], label
        assert observed3["chaos"][0].stats.faults.any_fired

    def test_profiled_run_is_timing_neutral(self):
        from repro.bench.runner import run_workload

        plain = run_workload(
            builders("test")["bitcnt"](), paper_config(2), prefetch=True
        )
        result, _ = profile_workload(
            builders("test")["bitcnt"](), paper_config(2), prefetch=True
        )
        assert result.cycles == plain.cycles
        assert result.stats.mix.total == plain.stats.mix.total


class TestProfileSerialization:
    def test_round_trip(self, bitcnt_profiled):
        _, profile = bitcnt_profiled
        clone = Profile.from_dict(json.loads(profile.to_json()))
        assert clone.cycles == profile.cycles
        assert clone.pipeline_usage_per_spu == profile.pipeline_usage_per_spu
        assert clone.totals == profile.totals

    def test_unknown_version_rejected(self, bitcnt_profiled):
        _, profile = bitcnt_profiled
        data = profile.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Profile.from_dict(data)

    def test_export_embeds_summary(self, bitcnt_profiled):
        result, profile = bitcnt_profiled
        d = run_to_dict(result, profile=profile)
        assert d["obs"]["pipeline_usage"] == profile.average_pipeline_usage
        assert d["obs"]["totals"]["dma_commands"] == (
            profile.totals["dma_commands"]
        )
        assert "obs" not in run_to_dict(result)

    def test_metrics_csv(self, bitcnt_profiled):
        _, profile = bitcnt_profiled
        lines = metrics_csv(profile).splitlines()
        assert lines[0] == "instrument,name,bucket_start,value,extra"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "series", "gauge"}


class TestEntryPoints:
    def test_unprefetched_single_spe(self):
        result, profile = profile_workload(
            builders("test")["bitcnt"](), paper_config(1), prefetch=False
        )
        assert result.cycles > 0
        assert profile.spes == 1
        assert profile.prefetch is False

    def test_trace_jsonl_streams_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        profile_workload(
            builders("test")["bitcnt"](), paper_config(1),
            prefetch=True, trace_jsonl=path,
        )
        lines = path.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "dispatch" in kinds
        assert "dma-command" in kinds

    def test_trace_jsonl_changes_nothing_the_profile_holds(
        self, bitcnt_profiled, golden
    ):
        """Streaming the raw events beside the interval fold leaves the
        profile as it is without the stream, and the stream is pinned."""
        buf = io.StringIO()
        _, profile = profile_workload(
            builders("test")["bitcnt"](), paper_config(2), prefetch=True,
            trace_jsonl=buf,
        )
        assert profile.to_dict() == bitcnt_profiled[1].to_dict()
        text = buf.getvalue()
        golden.check("bitcnt/profile_jsonl", {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "lines": text.count("\n"),
        })

    def test_raising_run_flushes_and_closes_the_trace(
        self, tmp_path, monkeypatch
    ):
        """A run that raises still closes its JSONL trace: the file holds
        every event emitted before the error, one parseable line each."""
        from repro.obs import profile as profile_module
        from repro.obs.trace import JsonlSink
        from repro.sim.engine import SimulationLimitExceeded

        sinks = []

        class RecordingSink(JsonlSink):
            def __init__(self, target):
                super().__init__(target)
                sinks.append(self)

        monkeypatch.setattr(profile_module, "JsonlSink", RecordingSink)
        path = tmp_path / "events.jsonl"
        with pytest.raises(SimulationLimitExceeded):
            profile_workload(
                builders("test")["bitcnt"](), paper_config(2),
                max_cycles=3000, trace_jsonl=path,
            )
        (sink,) = sinks
        assert sink._fh.closed
        lines = path.read_text().splitlines()
        assert len(lines) == sink.emitted > 0
        for line in lines:
            json.loads(line)

    def test_wrong_output_raises(self):
        workload = builders("test")["bitcnt"]()
        key = next(iter(workload.oracle))
        workload.oracle[key] = [v + 1 for v in workload.oracle[key]]
        with pytest.raises(AssertionError, match="wrong"):
            profile_workload(workload, paper_config(1), prefetch=True)


class TestBoundedMemory:
    def test_ring_eviction_keeps_totals(self):
        """Tiny ring: buckets drop, totals stay exact."""
        from repro.obs.hub import HubConfig

        workload = builders("test")["bitcnt"]()
        result, profile = profile_workload(
            workload, paper_config(2), prefetch=True,
            hub_config=HubConfig(bucket_cycles=64, max_buckets=4,
                                 sample_interval=64),
        )
        series = profile.metrics["series"]
        assert any(s["dropped_buckets"] > 0 for s in series.values())
        assert all(len(s["points"]) <= 4 for s in series.values())
        pairs = [
            *bucket_pairs(result, profile), *issue_pairs(result, profile),
            *machine_pairs(result, profile),
        ]
        assert mismatches(pairs) == []
