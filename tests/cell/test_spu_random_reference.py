"""Random programs run ahead exactly as the per-cycle reference runs them.

The mini-programs of ``test_spu_fastforward.py`` put each run-ahead rule
on the critical path one at a time.  This suite throws random ones at
it: every :func:`~repro.isa.fuzz.random_activity` seed below runs as
generated and after :func:`~repro.compiler.passes.prefetch_transform`,
plain and under a metrics hub with 16-cycle buckets, and is compared
with the per-cycle reference (``_WINDOW_CYCLES = 1``, so no tick issues
past the engine's cycle).  Cycles, ``asdict(stats)``, outputs and, when
observed, the whole ``hub.to_dict()`` must be equal, and the run may
dispatch no more engine ticks than the reference.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cell import spu
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.isa.fuzz import random_activity
from repro.obs.hub import HubConfig, MetricsHub
from repro.testing import small_config

SEEDS = range(40)


def outcome(seed: int, prefetch: bool, observe: bool) -> dict:
    activity = random_activity(seed)
    if prefetch:
        activity = prefetch_transform(activity)
    machine = Machine(small_config(num_spes=2))
    if observe:
        machine.attach_hub(MetricsHub(HubConfig(bucket_cycles=16)))
    machine.load(activity)
    result = machine.run(max_cycles=20_000_000)
    return {
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "outputs": {
            obj.name: machine.read_global(obj.name)
            for obj in activity.globals
        },
        "hub": machine.hub.to_dict() if observe else None,
        "ticks": machine.engine.ticks_dispatched,
    }


@pytest.mark.parametrize("observe", (False, True), ids=("plain", "observed"))
@pytest.mark.parametrize("prefetch", (False, True),
                         ids=("generated", "prefetched"))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_activity_matches_the_per_cycle_reference(
        seed, prefetch, observe, monkeypatch):
    run = outcome(seed, prefetch, observe)
    monkeypatch.setattr(spu, "_WINDOW_CYCLES", 1)
    reference = outcome(seed, prefetch, observe)
    ticks, ref_ticks = run.pop("ticks"), reference.pop("ticks")
    assert run == reference
    assert ticks <= ref_ticks
