"""Run-ahead units: generated code that stays inside its contract.

``repro.cell.units`` runs the SPU's run-ahead cycles as generated Python
functions (docs/PERFORMANCE.md, "Translated run-ahead").  The goldens,
``test_spu_fastforward.py`` and ``test_spu_random_reference.py`` hold
their results to the interpreter's.  This suite checks the rest of the
contract: the generated source holds only integers from the rows and
the configuration besides the opcode templates, units run under a hub,
a unit is built once per content and shared by later runs, each unit
has a code label of its own, a loop that posts a WRITE runs as one
unit, and no pickled machine reaches one.
"""

from __future__ import annotations

import ast
import io
import pickle

import pytest

from repro.bench.scale import builders
from repro.cell import units
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.isa.decoded import NAMESPACE
from repro.isa.fuzz import random_activity
from repro.obs.hub import MetricsHub
from repro.sim.config import paper_config
from repro.sim.engine import SimulationLimitExceeded
from repro.testing import small_config

#: Every name generated code may use: the unit's arguments and locals,
#: the templates' helpers and the builtins they call.
NAMES = {
    "regs", "words", "ls", "now", "limit", "fa", "posts", "wc", "lq",
    "ahead", "pu", "n", "u", "a", "x", "c", "m", "len", "min", "max",
    *NAMESPACE,
}


@pytest.fixture
def built(monkeypatch):
    """Units built from here on, with a count of the instructions their
    calls issue: ``built["units"]`` and ``built["issued"]``."""
    monkeypatch.setattr(units, "_CACHE", {})
    record = {"units": [], "issued": 0}
    build = units._build

    def counted_build(*args):
        unit = build(*args)
        run = unit.run

        def counted(*run_args):
            k, loops = run(*run_args)
            ops = unit.exits[k].ops + (unit.loop.ops * loops if loops else ())
            record["issued"] += sum(count for _, count in ops)
            return k, loops

        unit.run = counted
        record["units"].append(unit)
        return unit

    monkeypatch.setattr(units, "_build", counted_build)
    return record


def run(activity, config, hub=None):
    machine = Machine(config)
    if hub is not None:
        machine.attach_hub(hub)
    machine.load(activity)
    return machine.run(max_cycles=20_000_000)


def test_generated_source_holds_only_integers_and_templates(built):
    for name in ("bitcnt", "mmul", "zoom"):
        activity = prefetch_transform(builders("test")[name]().activity)
        run(activity, paper_config(2))
    for seed in range(10):
        run(prefetch_transform(random_activity(seed)), small_config())
    assert built["units"]
    for unit in built["units"]:
        for node in ast.walk(ast.parse(unit.source)):
            if isinstance(node, ast.Constant):
                assert type(node.value) in (int, bool), unit.source
            elif isinstance(node, ast.Name):
                assert node.id in NAMES | {"unit"}, unit.source
            elif isinstance(node, ast.Attribute):
                assert node.attr in ("_ports_used", "get", "items",
                                     "append"), unit.source


def test_units_run_under_a_hub(built):
    activity = prefetch_transform(builders("test")["mmul"]().activity)
    result = run(activity, paper_config(2), hub=MetricsHub())
    total = sum(spu.mix.total for spu in result.stats.spus)
    # mmul's inner loop runs ahead almost whole, observed or not.
    assert built["issued"] > 0.9 * total


def test_a_unit_is_built_once_per_content(built):
    def mmul():
        activity = prefetch_transform(builders("test")["mmul"]().activity)
        return run(activity, paper_config(2))

    mmul()
    first = len(built["units"])
    assert first > 0
    mmul()  # new programs with equal rows: the process-wide cache serves
    assert len(built["units"]) == first


def test_units_of_one_program_get_distinct_code_labels():
    # cProfile and pstats key a function by (file name, line, name): one
    # file name for every unit would fold them into one entry.
    activity = prefetch_transform(builders("test")["zoom"]().activity)
    run(activity, paper_config(2))
    (worker,) = [t for t in activity.templates if t.name == "zoom_worker"]
    labels = [unit.run.__code__.co_filename
              for unit in worker.decoded.units.values() if unit is not None]
    assert len(labels) > 1
    assert len(set(labels)) == len(labels)
    assert all(label.startswith("<run-ahead unit pc ") for label in labels)


def test_zoom_pixel_loop_runs_as_one_looping_unit(built):
    # The pixel loop's WRITE is posted from inside the generated loop:
    # each pass issues one WRITE and posts it.
    activity = prefetch_transform(builders("test")["zoom"]().activity)
    run(activity, paper_config(2))
    writes = [(dict(unit.loop.ops).get("WRITE"), unit.loop.sums[5])
              for unit in built["units"] if unit.loop is not None]
    assert (1, 1) in writes


def test_no_pickled_machine_reaches_a_unit():
    class Probe(pickle.Pickler):
        def reducer_override(self, obj):
            assert not isinstance(obj, (units.Unit, units.Exit))
            code = getattr(obj, "__code__", None)
            assert code is None or not code.co_filename.startswith(
                "<run-ahead unit")
            return NotImplemented

    for name in ("bitcnt", "mmul", "zoom"):
        activity = prefetch_transform(builders("test")[name]().activity)
        machine = Machine(paper_config(2))
        machine.load(activity)
        with pytest.raises(SimulationLimitExceeded):
            machine.run(max_cycles=2_000)  # mid-run, units built
        assert any(t.decoded.units for t in activity.templates)
        Probe(io.BytesIO()).dump(machine)
