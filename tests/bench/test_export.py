"""Result exports: dict/JSON/CSV round-trips and the reproduce matrix."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.bench.export import (
    pair_to_dict,
    reproduce_all,
    run_to_dict,
    scaling_to_csv,
    scaling_to_dict,
    to_json,
)
from repro.bench.runner import run_pair, sweep
from repro.sim.config import paper_config
from repro.workloads import matmul


@pytest.fixture(scope="module")
def pair():
    return run_pair(matmul.build(n=4, threads=2), paper_config(2))


@pytest.fixture(scope="module")
def scaling():
    return sweep(lambda: matmul.build(n=4, threads=2), spes=(1, 2))


class TestRunToDict:
    def test_fields_present(self, pair):
        d = run_to_dict(pair.base)
        assert d["cycles"] == pair.base.cycles
        assert d["spes"] == 2
        assert d["memory_latency"] == 150
        assert set(d["breakdown"]) == {
            "working", "idle", "mem_stall", "ls_stall", "lse_stall",
            "prefetch",
        }
        assert d["instructions"]["read"] == 2 * 4**3

    def test_json_serializable(self, pair):
        json.loads(to_json(pair_to_dict(pair)))

    def test_breakdown_fractions_sum_to_one(self, pair):
        d = run_to_dict(pair.base)
        assert sum(d["breakdown"].values()) == pytest.approx(1.0)


class TestScalingExport:
    def test_dict_points_and_scalability(self, scaling):
        d = scaling_to_dict(scaling)
        assert set(d["points"]) == {"1", "2"}
        assert d["scalability"]["base"]["1"] == 1.0
        assert d["scalability"]["base"]["2"] > 1.0

    def test_csv_has_row_per_point_and_variant(self, scaling):
        text = scaling_to_csv(scaling_to_dict(scaling))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "workload"
        assert len(rows) == 1 + 2 * 2  # header + 2 SPE points x 2 variants
        variants = {r[2] for r in rows[1:]}
        assert variants == {"base", "prefetch"}


class TestReproduceAll:
    def test_matrix_structure(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "test")
        lines = []
        data = reproduce_all(spes=(1, 2), progress=lines.append)
        assert set(data["experiments"]) == {
            "scaling", "table5", "fig5", "fig9", "latency1"
        }
        assert set(data["experiments"]["scaling"]) == {
            "bitcnt", "mmul", "zoom"
        }
        assert lines  # progress was reported
        # Fig 5 shape survives the export.
        fig5 = data["experiments"]["fig5"]["mmul"]
        assert fig5["base"]["mem_stall"] > 0.8
        assert fig5["prefetch"]["mem_stall"] < 0.05
        json.loads(to_json(data))


class TestSchemaVersion:
    def test_run_payload_carries_schema_version(self, pair):
        from repro.bench.export import SCHEMA_VERSION

        data = run_to_dict(pair.base)
        assert data["schema_version"] == SCHEMA_VERSION

    def test_reproduce_all_carries_schema_version(self, monkeypatch):
        from repro.bench.export import SCHEMA_VERSION, reproduce_all

        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        data = reproduce_all(scale="test", spes=(1,))
        assert data["schema_version"] == SCHEMA_VERSION

    def test_round_trips_through_json(self, pair):
        from repro.bench.export import SCHEMA_VERSION

        data = run_to_dict(pair.base)
        again = json.loads(json.dumps(data, sort_keys=True))
        assert again == data
        assert again["schema_version"] == SCHEMA_VERSION

    def test_serve_protocol_shares_the_constant(self):
        from repro.bench.export import SCHEMA_VERSION
        from repro.serve.protocol import SCHEMA_VERSION as SERVE_VERSION

        assert SERVE_VERSION is SCHEMA_VERSION
