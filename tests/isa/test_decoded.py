"""Decoded-instruction tables: value functions pinned, rows faithful.

The SPU issue loop (``SPU._issue_cycle``) trusts
:mod:`repro.isa.decoded` completely, so this suite pins the decoded
closures to the canonical semantics in :mod:`repro.isa.semantics` over a
value grid, and checks the row fields and fast-forward run lengths
against first principles.
"""

from __future__ import annotations

import pytest

from repro.isa.builder import ThreadBuilder
from repro.isa.decoded import (
    _ALU_FN,
    _BRANCH_FN,
    D_AVAL,
    D_BREG,
    D_BVAL,
    D_FF,
    D_FN,
    D_HAZ,
    D_KIND,
    D_LAT,
    D_MEM,
    D_NAME,
    D_RD,
    D_TARGET,
    K_ALU,
    K_BRANCH,
    K_STRUCT,
    decode_program,
)
from repro.isa.opcodes import Op, Slot, spec_of
from repro.isa.program import BlockKind
from repro.isa.semantics import (
    ArithmeticFault,
    alu_result,
    branch_taken,
)

#: Edge-heavy operand grid: signs, zero, wrap boundaries, shift widths.
GRID = (
    0, 1, -1, 2, -2, 7, 63, 64, 100, -100,
    2**31, -(2**31), 2**62, -(2**62), 2**63 - 1, -(2**63),
)


class TestValueFunctionsPinned:
    @pytest.mark.parametrize("op", sorted(_ALU_FN, key=lambda o: o.value))
    def test_alu_fn_matches_alu_result_on_grid(self, op):
        fn = _ALU_FN[op]
        for a in GRID:
            for b in GRID:
                try:
                    expected = alu_result(op, a, b)
                except ArithmeticFault:
                    with pytest.raises(ArithmeticFault):
                        fn(a, b)
                    continue
                assert fn(a, b) == expected, (op, a, b)

    @pytest.mark.parametrize("op", sorted(_BRANCH_FN, key=lambda o: o.value))
    def test_branch_fn_matches_branch_taken_on_grid(self, op):
        fn = _BRANCH_FN[op]
        for a in GRID:
            for b in GRID:
                assert fn(a, b) == branch_taken(op, a, b), (op, a, b)

    def test_every_alu_and_branch_op_is_covered(self):
        # A new opcode must get a decoded closure (or the decoder would
        # KeyError at decode time) *and* a grid pin here.
        for op in Op:
            spec = spec_of(op)
            if spec.is_branch:
                assert op in _BRANCH_FN
            elif spec.slot is Slot.ALU and op is not Op.NOP:
                assert op in _ALU_FN


def ex_program(body):
    """Build a one-block EX program: ``body(b)`` then STOP."""
    b = ThreadBuilder("t")
    with b.block(BlockKind.EX):
        body(b)
        b.stop()
    return b.build()


class TestRowFields:
    def test_immediate_alu_folds_imm_into_bval(self):
        prog = ex_program(lambda b: (b.li("x", 5), b.addi("x", "x", 37)))
        rows = decode_program(prog).rows
        addi = rows[1]
        assert addi[D_KIND] == K_ALU
        assert addi[D_BREG] is None
        assert addi[D_BVAL] == 37
        assert addi[D_NAME] == Op.ADDI.value

    def test_li_carries_value_in_bval(self):
        rows = decode_program(ex_program(lambda b: b.li("x", 123))).rows
        li = rows[0]
        assert li[D_BREG] is None and li[D_BVAL] == 123
        assert li[D_FN](0, li[D_BVAL]) == 123

    def test_nop_has_no_value_function(self):
        rows = decode_program(ex_program(lambda b: b.nop())).rows
        nop = rows[0]
        assert nop[D_KIND] == K_ALU
        assert nop[D_FN] is None
        assert nop[D_RD] is None

    def test_latency_and_hazard_registers(self):
        def body(b):
            b.li("x", 3)
            b.muli("y", "x", 7)

        rows = decode_program(ex_program(body)).rows
        muli = rows[1]
        assert muli[D_LAT] == spec_of(Op.MULI).result_latency == 2
        # Hazard set covers ra and rd (WAW), in ra, rb, rd order.
        x, y = rows[0][D_RD], muli[D_RD]
        assert muli[D_HAZ] == (x, y)

    def test_branch_row_resolves_target(self):
        def body(b):
            b.li("x", 0)
            b.label("top")
            b.addi("x", "x", 1)
            b.bne("x", "x", "top")

        rows = decode_program(ex_program(body)).rows
        bne = rows[2]
        assert bne[D_KIND] == K_BRANCH
        assert bne[D_TARGET] == 1
        assert not bne[D_MEM]

    def test_stop_is_a_mem_slot_row(self):
        rows = decode_program(ex_program(lambda b: b.li("x", 1))).rows
        assert rows[-1][D_KIND] == K_STRUCT
        assert rows[-1][D_MEM]


class TestFastForwardRunLengths:
    def test_straight_alu_run_counts_down_to_the_stop(self):
        def body(b):
            b.li("a", 1)
            b.li("b", 2)
            b.add("c", "a", "b")
            b.add("d", "c", "c")

        rows = decode_program(ex_program(body)).rows
        # The last ALU op precedes STOP (MEM slot): the per-cycle path
        # would dual-issue them, so its ff must be 0.
        assert [r[D_FF] for r in rows] == [3, 2, 1, 0, 0]

    def test_branch_terminates_the_run(self):
        def body(b):
            b.li("x", 4)
            b.li("y", 0)
            b.label("top")
            b.addi("y", "y", 1)
            b.subi("x", "x", 1)
            b.bnez("x", "top")

        rows = decode_program(ex_program(body)).rows
        ffs = [r[D_FF] for r in rows]
        # The two ALU ops before the branch may fast-forward (the branch
        # occupies the ALU slot next cycle); the branch itself may not.
        assert ffs == [4, 3, 2, 1, 0, 0]

    def test_mem_slot_successor_zeroes_ff(self):
        def body(b):
            b.li("x", 9)
            b.lstore("x", 0, "x")
            b.addi("x", "x", 1)

        rows = decode_program(ex_program(body)).rows
        ffs = [r[D_FF] for r in rows]
        # li precedes LSTORE (MEM): dual-issue candidate, ff = 0.
        # addi precedes STOP (MEM): same.  LSTORE is not ALU: ff = 0.
        assert ffs == [0, 0, 0, 0]

    def test_nops_participate_in_runs(self):
        def body(b):
            b.li("x", 1)
            b.nop()
            b.nop()
            b.addi("x", "x", 1)

        rows = decode_program(ex_program(body)).rows
        assert [r[D_FF] for r in rows] == [3, 2, 1, 0, 0]

    def test_decode_is_cached_per_program(self):
        prog = ex_program(lambda b: b.li("x", 1))
        assert prog.decoded is prog.decoded
