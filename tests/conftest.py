"""Shared test fixtures and helpers."""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.sim.config import MachineConfig
from repro.testing import small_config

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"


@pytest.fixture
def cfg1() -> MachineConfig:
    """A 1-SPE machine configuration."""
    return small_config(num_spes=1)


@pytest.fixture
def cfg2() -> MachineConfig:
    """A 2-SPE machine configuration."""
    return small_config(num_spes=2)


@pytest.fixture
def cfg4() -> MachineConfig:
    """A 4-SPE machine configuration."""
    return small_config(num_spes=4)


def _canonical(obj):
    """JSON-ready copy of ``obj``: dict keys that are not strings become
    ``repr(k)``, tuples become lists."""
    if isinstance(obj, dict):
        return {
            k if isinstance(k, str) else repr(k): _canonical(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


class Goldens:
    """Committed truth for results that must stay bit-identical.

    ``tests/golden/digests.json`` maps a key to a small JSON entry (cycle
    counts, instruction counts and :meth:`digest` strings).
    :meth:`check` compares a fresh entry with the committed one.  When the
    key is missing (or the file is), the entry is computed, written, and
    the test fails: a new or regenerated golden is a reviewed change that
    needs a justifying line in CHANGES.md.
    """

    @staticmethod
    def digest(obj) -> str:
        """sha256 of ``obj`` as canonical, key-sorted JSON."""
        text = json.dumps(_canonical(obj), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def entry(self, key: str) -> dict:
        """The committed entry under ``key``."""
        entries = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        if key not in entries:
            pytest.fail(f"tests/golden/digests.json has no entry {key!r}")
        return entries[key]

    def check(self, key: str, entry: dict) -> None:
        """Assert ``entry`` equals the golden entry under ``key``."""
        entries = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        if key in entries:
            assert entry == entries[key], (
                f"{key}: result differs from tests/golden/digests.json"
            )
            return
        entries[key] = entry
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(entries, indent=1, sort_keys=True) + "\n"
        )
        pytest.fail(
            f"tests/golden/digests.json had no entry {key!r}; wrote it. "
            f"Commit it with a line in CHANGES.md that justifies it."
        )


@pytest.fixture
def golden() -> Goldens:
    """The committed golden digests (see :class:`Goldens`)."""
    return Goldens()


def python_calls(target) -> Counter:
    """Python function calls made by ``target.run()`` for a loaded
    machine, or by ``target()`` for a callable, per code object.

    The cyclic garbage collector is emptied first and kept off during
    the count: a collection inside the run would add the finalizers of
    unrelated garbage (suspended generators left by other tests, for
    example) to the count.
    """
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    run = target if callable(target) else target.run
    gc.collect()
    gc.disable()
    outer = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(outer)
        gc.enable()
    return calls


@pytest.fixture
def count_calls():
    """:func:`python_calls`: count the Python calls of a loaded machine's
    ``run()``, or of a callable (host work, counted instead of timed)."""
    return python_calls
