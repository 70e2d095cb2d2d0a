"""Tests of the performance benchmark (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf

Every workload runs here at reduced size (test scale, the minimum of two
passes, ``serve`` for 2 s at 5 jobs/s), traced, so the tests check
every declared metric in well under a minute.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import asdict

import pytest

import layers
import run
import workloads

with open(run.SPEC_PATH) as _fh:
    SPEC = json.load(_fh)


def _run_workload(name: str, root: str) -> dict:
    state = workloads.setup(name, 1, "test", root)
    try:
        if name in workloads.BATCH:
            out = workloads.batch(name, state, 1, 0, trace=True, scale="test")
        elif name == "matrix":
            out = workloads.matrix(state, 1, 0, trace=True, scale="test",
                                   root=root, warm_passes=1)
        else:
            out = workloads.serve(state, 1, 2, trace=True, rate=5.0,
                                  root=root)
    finally:
        workloads.teardown(name, state)
    out["metrics"]["setup_s"] = 0.1  # measured by run.py in child processes
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_emits_every_declared_metric(name, tmp_path):
    out = _run_workload(name, str(tmp_path))
    failed = [check for check in out["checks"] if not check[1]]
    assert not failed
    assert out["failed"] == 0 and out["attempted"] > 0
    assert out["spans"]
    for trace in (False, True):
        line = run.result_line({name: out}, SPEC, trace)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert out["metrics"][metric["name"]] > 0, metric["name"]


def _entry_points() -> list:
    """(owner, attribute, original) of everything the tracer patches."""
    points = []
    for (module, cls_name), _ in layers.TICK_LAYERS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        points.append((cls, "tick", cls.__dict__["tick"]))
    for module, path, _ in layers.CALL_LAYERS + layers.SPAN_LAYERS:
        owner, name = layers._resolve(module, path)
        points.append((owner, name, vars(owner)[name]))
    from repro.cell.machine import Machine
    from repro.serve.scheduler import JobScheduler

    points.append((Machine, "collect_stats", vars(Machine)["collect_stats"]))
    points.append((JobScheduler, "_execute", vars(JobScheduler)["_execute"]))
    return points


def test_tracer_restores_every_entry_point_when_the_body_raises():
    from repro.cell.spu import SPU
    from repro.sim import engine

    points = _entry_points()
    registry = dict(engine._CALLBACK_KINDS)
    original_tick = SPU.tick
    with pytest.raises(RuntimeError, match="boom"):
        with layers.LayerTracer():
            assert SPU.tick is not original_tick
            assert all(getattr(o, n) is not f for o, n, f in points)
            assert all(engine._CALLBACK_KINDS[k] is not registry[k]
                       for k in registry)
            raise RuntimeError("boom")
    assert SPU.tick is original_tick
    for owner, name, original in points:
        assert vars(owner)[name] is original, f"{owner}.{name}"
    assert engine._CALLBACK_KINDS == registry
    assert all(engine._CALLBACK_KINDS[k] is registry[k] for k in registry)


def test_traced_and_untraced_runs_give_equal_stats():
    from repro.bench import runner
    from repro.sim.config import paper_config
    from repro.workloads import bitcount

    workload = bitcount.build(iterations=24)
    config = paper_config(4)
    plain = runner.run_workload(workload, config, prefetch=True)
    with layers.LayerTracer() as tracer:
        traced = runner.run_workload(workload, config, prefetch=True)
    assert asdict(traced.stats) == asdict(plain.stats)
    assert tracer.sim["instructions"] == plain.stats.mix.total
    names = {span["name"] for span in tracer.spans}
    assert {"run", "compiler.prefetch"} <= names
    (run_span,) = [s for s in tracer.spans if s["name"] == "run"]
    (pf_span,) = [s for s in tracer.spans if s["name"] == "compiler.prefetch"]
    assert pf_span["parent"] == run_span["id"]
