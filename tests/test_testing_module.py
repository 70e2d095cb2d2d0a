"""The repro.testing helpers themselves."""

from __future__ import annotations

import pytest

from repro.core.activity import GlobalObject, ObjRef
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.testing import run_program, small_config


def trivial_builder():
    b = ThreadBuilder("t")
    b.slot("out")
    b.slot("x")
    with b.block(BlockKind.PL):
        b.load("rout", "out")
        b.load("v", "x")
    with b.block(BlockKind.EX):
        b.addi("v", "v", 1)
        b.write("rout", 0, "v")
        b.stop()
    return b


class TestSmallConfig:
    def test_defaults_to_one_spe(self):
        assert small_config().num_spes == 1

    def test_overrides_pass_through(self):
        cfg = small_config(num_spes=2, sanitize=True)
        assert cfg.num_spes == 2
        assert cfg.sanitize


class TestRunProgram:
    def test_named_slots_with_builder(self):
        res = run_program(
            trivial_builder(),
            stores={"out": ObjRef("out"), "x": 41},
            globals_=[GlobalObject.zeros("out", 1)],
        )
        assert res.word("out") == 42
        assert res.cycles > 0

    def test_numeric_slots_with_program(self):
        prog = trivial_builder().build()
        res = run_program(
            prog,
            stores={0: ObjRef("out"), 1: 10},
            globals_=[GlobalObject.zeros("out", 1)],
        )
        assert res.word("out") == 11

    def test_named_slots_require_builder(self):
        prog = trivial_builder().build()
        with pytest.raises(ValueError, match="named slots"):
            run_program(prog, stores={"x": 1})

    def test_read_global_and_word(self):
        res = run_program(
            trivial_builder(),
            stores={"out": ObjRef("out"), "x": 1},
            globals_=[GlobalObject.zeros("out", 2)],
        )
        assert res.read_global("out") == [2, 0]
        assert res.word("out", 1) == 0

    def test_max_cycles_propagates(self):
        from repro.sim.engine import SimulationLimitExceeded

        with pytest.raises(SimulationLimitExceeded):
            run_program(
                trivial_builder(),
                stores={"out": ObjRef("out"), "x": 1},
                globals_=[GlobalObject.zeros("out", 1)],
                max_cycles=2,
            )
