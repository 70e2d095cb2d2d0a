"""MetricsHub instruments: bounded rings, exact totals, the sampler."""

from __future__ import annotations

import random

import pytest

from repro.bench.scale import builders
from repro.compiler.passes import prefetch_transform
from repro.cell.machine import Machine
from repro.obs.hub import (
    BucketSeries,
    Counter,
    GaugeSeries,
    HubConfig,
    MetricsHub,
)
from repro.sim.config import paper_config


class TestHubConfig:
    def test_defaults(self):
        cfg = HubConfig()
        assert cfg.bucket_cycles == 1024
        assert cfg.max_buckets == 4096
        assert cfg.sample_interval == 1024

    @pytest.mark.parametrize(
        "field", ["bucket_cycles", "max_buckets", "sample_interval"]
    )
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError, match=field):
            HubConfig(**{field: 0})


class TestCounter:
    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(41)
        assert c.value == 42


class TestBucketSeries:
    def test_bucketing(self):
        s = BucketSeries("s", bucket_cycles=10, max_buckets=100)
        s.add(0, 1)
        s.add(9, 2)
        s.add(10, 5)
        assert s.points() == [(0, 3), (10, 5)]
        assert s.total == 8

    def test_ring_is_bounded_and_total_exact(self):
        s = BucketSeries("s", bucket_cycles=10, max_buckets=4)
        for cycle in range(0, 100, 10):
            s.add(cycle, 1)
        assert len(s) == 4
        assert s.dropped_buckets == 6
        # Eviction never loses the scalar truth.
        assert s.total == 10
        assert s.points()[0][0] == 60  # oldest surviving bucket

    def test_out_of_order_add_folds_into_newest(self):
        s = BucketSeries("s", bucket_cycles=10, max_buckets=4)
        s.add(25, 1)
        s.add(12, 7)  # behind the newest bucket: folded, not reordered
        assert s.points() == [(20, 8)]
        assert s.total == 8

    def test_to_dict(self):
        s = BucketSeries("s", bucket_cycles=10, max_buckets=4)
        s.add(5, 3)
        d = s.to_dict()
        assert d == {
            "bucket_cycles": 10,
            "total": 3,
            "dropped_buckets": 0,
            "points": [[0, 3]],
        }


def _replay(ops, bucket_cycles, max_buckets, spans):
    """Apply ``ops`` — ``("add", cycle, value)`` or ``("span", start,
    end)`` — to a fresh series; with ``spans=False`` every span is
    replayed as ``add(c, 1)`` per cycle, the per-cycle reference."""
    s = BucketSeries("s", bucket_cycles, max_buckets)
    for op, a, b in ops:
        if op == "add":
            s.add(a, b)
        elif spans:
            s.add_span(a, b)
        else:
            for cycle in range(a, b):
                s.add(cycle, 1)
    return s.to_dict()


class TestAddSpan:
    """``add_span(start, end)`` == ``add(c, 1)`` for each c in the span."""

    @pytest.mark.parametrize("width,max_buckets,ops", [
        pytest.param(10, 100, [("span", 3, 3)], id="empty"),
        pytest.param(10, 100, [("span", 2, 7)], id="inside-one-bucket"),
        pytest.param(10, 100, [("span", 7, 34)], id="straddles-buckets"),
        pytest.param(3, 100, [("span", 0, 3), ("span", 3, 4)],
                     id="adjacent-at-boundary"),
        pytest.param(10, 100, [("add", 25, 1), ("span", 12, 27)],
                     id="late-start-folds-then-continues"),
        pytest.param(10, 100, [("add", 45, 2), ("span", 3, 19)],
                     id="wholly-late-folds-into-newest"),
        pytest.param(10, 100, [("add", 25, 1), ("span", 26, 30)],
                     id="fills-newest-to-its-end"),
        pytest.param(3, 4, [("span", 1, 50)], id="evicts-inside-one-span"),
        pytest.param(3, 4, [("add", 0, 5), ("span", 4, 8), ("add", 30, 9),
                            ("span", 30, 44)], id="evicts-across-ops"),
        pytest.param(3, 1, [("span", 0, 10), ("span", 12, 13)],
                     id="ring-of-one"),
        pytest.param(3, 100, [("span", 0, 2), ("add", 9, 7), ("span", 9, 11),
                              ("add", 20, 9), ("span", 20, 21)],
                     id="stall-adds-between-spans"),
    ])
    def test_equals_per_cycle_adds(self, width, max_buckets, ops):
        assert (
            _replay(ops, width, max_buckets, spans=True)
            == _replay(ops, width, max_buckets, spans=False)
        )

    def test_random_sequences_equal_per_cycle_adds(self):
        rng = random.Random("add_span")
        for _ in range(300):
            width = rng.randint(1, 8)
            max_buckets = rng.randint(1, 6)
            cycle = rng.randint(0, 20)
            ops = []
            for _ in range(rng.randint(1, 12)):
                # Mostly forward, like a pipeline; sometimes late.
                start = max(0, cycle + rng.randint(-12, 6))
                if rng.random() < 0.5:
                    ops.append(("add", start, rng.randint(1, 9)))
                    cycle = max(cycle, start)
                else:
                    end = start + rng.randint(0, 25)
                    ops.append(("span", start, end))
                    cycle = max(cycle, end)
            assert (
                _replay(ops, width, max_buckets, spans=True)
                == _replay(ops, width, max_buckets, spans=False)
            ), (width, max_buckets, ops)


class TestGaugeSeries:
    def test_last_and_peak(self):
        g = GaugeSeries("g", bucket_cycles=10, max_buckets=100)
        g.observe(0, 3)
        g.observe(5, 9)
        g.observe(8, 2)
        assert g.last == 2
        assert g.peak == 9
        assert g.points() == [(0, 2, 9)]

    def test_ring_is_bounded(self):
        g = GaugeSeries("g", bucket_cycles=10, max_buckets=2)
        for cycle, v in [(0, 1), (10, 2), (20, 3)]:
            g.observe(cycle, v)
        assert len(g) == 2
        assert g.dropped_buckets == 1
        assert g.peak == 3


class TestMetricsHub:
    def test_get_or_create_returns_same_instrument(self):
        hub = MetricsHub()
        assert hub.counter("a") is hub.counter("a")
        assert hub.bucket_series("b") is hub.bucket_series("b")
        assert hub.gauge("c") is hub.gauge("c")

    def test_to_dict_shape(self):
        hub = MetricsHub(HubConfig(bucket_cycles=8))
        hub.counter("n").add(2)
        hub.bucket_series("s").add(3, 4)
        hub.gauge("g").observe(3, 5)
        d = hub.to_dict()
        assert d["config"]["bucket_cycles"] == 8
        assert d["counters"] == {"n": 2}
        assert d["series"]["s"]["total"] == 4
        assert d["gauges"]["g"]["peak"] == 5


class TestSamplerOnMachine:
    def test_sampler_populates_gauges(self):
        workload = builders("test")["bitcnt"]()
        machine = Machine(paper_config(2))
        hub = MetricsHub(HubConfig(sample_interval=64))
        machine.attach_hub(hub)
        machine.load(prefetch_transform(workload.activity))
        machine.run()
        assert machine.sampler is not None
        assert machine.sampler.samples > 0
        # The sampler saw live threads and pending engine events mid-run.
        assert hub.gauge("threads.live").peak > 0
        assert hub.gauge("engine.pending_events").peak > 0
        assert len(hub.gauge("threads.live")) > 0

    def test_disabled_hub_attach_is_noop(self):
        machine = Machine(paper_config(1))
        hub = MetricsHub(enabled=False)
        machine.attach_hub(hub)
        assert machine.hub is None
        assert machine.sampler is None
        assert all(
            c._hub is None for c in machine.engine.components
        )
