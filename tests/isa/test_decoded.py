"""Decoded-instruction tables: value functions pinned, rows faithful.

The machine reads instructions only as :mod:`repro.isa.decoded` rows
(the SPU issue loop ``SPU._issue_cycle`` and the LSE's XP pipeline), so
this suite pins the decoded closures to the canonical semantics in
:mod:`repro.isa.semantics` over a value grid, checks the row fields, the
``solo`` flag included, against first principles, and checks that no
machine module reads an instruction any other way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

from repro.isa.builder import ThreadBuilder
from repro.isa.decoded import (
    _ALU_FN,
    _BRANCH_FN,
    D_AREG,
    D_AVAL,
    D_BREG,
    D_BVAL,
    D_FN,
    D_HAZ,
    D_IMM,
    D_KIND,
    D_LAT,
    D_MEM,
    D_NAME,
    D_RD,
    D_SOLO,
    D_STRIDE,
    D_TAG,
    D_TARGET,
    K_ALU,
    K_BRANCH,
    K_LS,
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

    def test_local_store_rows(self):
        b = ThreadBuilder("t")
        b.slot("in"), b.slot("copy")
        with b.block(BlockKind.PF):
            b.li("w", 7)
            b.storef("copy", "w")
        with b.block(BlockKind.PL):
            b.load("w", "in")
        with b.block(BlockKind.EX):
            b.li("base", 0x200)
            b.lload("v", "base", 8)
            b.lstore("base", 12, "v")
            b.stop()
        rows = decode_program(b.build()).rows
        storef, load = rows[1:3]
        lload, lstore = rows[4:6]
        w, base, v = rows[0][D_RD], rows[3][D_RD], lload[D_RD]
        for row, name in ((lload, "LLOAD"), (lstore, "LSTORE"),
                          (load, "LOAD"), (storef, "STOREF")):
            assert row[D_KIND] == K_LS
            assert row[D_NAME] == name
            assert row[D_MEM]
            assert row[D_FN] is None
            assert not row[D_SOLO]
        # Operands pre-resolved to register indices; the raw immediate
        # is the address offset (LLOAD/LSTORE) or frame slot (LOAD/STOREF).
        assert (lload[D_AREG], lload[D_RD], lload[D_IMM]) == (base, v, 8)
        assert (lstore[D_AREG], lstore[D_BREG], lstore[D_IMM]) == (
            base, v, 12
        )
        assert (load[D_AREG], load[D_RD], load[D_IMM]) == (None, w, 0)
        assert (storef[D_AREG], storef[D_IMM]) == (w, 1)
        assert lload[D_HAZ] == (base, v)
        assert lstore[D_HAZ] == (base, v)

    def test_dma_rows_carry_the_command(self):
        b = ThreadBuilder("t")
        with b.block(BlockKind.PF):
            b.lsalloc("ls", 64)
            b.li("mem", 0x1000)
            b.dmaget("ls", "mem", 64, tag=2)
            b.dmagets("ls", "mem", 8, tag=3, stride=32)
            b.dmawait(3)
        with b.block(BlockKind.PS):
            b.dmaput("ls", "mem", 64, tag=4)
            b.stop()
        rows = decode_program(b.build()).rows
        ls, mem = rows[0][D_RD], rows[1][D_RD]
        get, gets, wait, put = rows[2:6]
        # Table 3's command: LS address, memory address, size, tag (and
        # the gather stride); a DMAGETS's immediate counts words.
        for row, name in ((get, "DMAGET"), (gets, "DMAGETS"), (put, "DMAPUT")):
            assert (row[D_KIND], row[D_NAME]) == (K_STRUCT, name)
            assert (row[D_AREG], row[D_BREG]) == (ls, mem)
            assert row[D_MEM]
        assert (get[D_IMM], get[D_TAG], get[D_STRIDE]) == (64, 2, None)
        assert (gets[D_IMM], gets[D_TAG], gets[D_STRIDE]) == (8, 3, 32)
        assert (put[D_IMM], put[D_TAG], put[D_STRIDE]) == (64, 4, None)
        assert (wait[D_NAME], wait[D_TAG], wait[D_AREG]) == ("DMAWAIT", 3, None)
        assert rows[1][D_TAG] is None and rows[1][D_STRIDE] is None

    def test_stop_is_a_mem_slot_row(self):
        rows = decode_program(ex_program(lambda b: b.li("x", 1))).rows
        assert rows[-1][D_KIND] == K_STRUCT
        assert rows[-1][D_MEM]

    def test_decode_is_cached_per_program(self):
        prog = ex_program(lambda b: b.li("x", 1))
        assert prog.decoded is prog.decoded


class TestSoloRows:
    """``D_SOLO``: an ALU or branch row whose next row needs the ALU slot
    too never shares its cycle.  The issue loop retires such rows on its
    tight path, and looks past any other ALU or branch row for the
    MEM-slot op it may pair with."""

    def test_straight_alu_run_is_solo_until_the_stop(self):
        def body(b):
            b.li("a", 1)
            b.li("b", 2)
            b.add("c", "a", "b")
            b.add("d", "c", "c")

        rows = decode_program(ex_program(body)).rows
        # The last ALU op precedes STOP (MEM slot): the two may share a
        # cycle.  STOP is a MEM-slot row, never solo.
        assert [r[D_SOLO] for r in rows] == [True, True, True, False, False]

    def test_loop_body_and_back_edge_are_solo(self):
        def body(b):
            b.li("x", 4)
            b.li("y", 0)
            b.label("top")
            b.addi("y", "y", 1)
            b.subi("x", "x", 1)
            b.bnez("x", "top")

        rows = decode_program(ex_program(body)).rows
        # The back-edge occupies the ALU slot, so the op before it is
        # solo; the back-edge itself precedes STOP, which it issues with
        # when it falls through.
        assert [r[D_SOLO] for r in rows] == [
            True, True, True, True, False, False
        ]

    def test_branch_row_follows_its_successor_slot(self):
        def body(b):
            b.li("x", 1)
            b.label("top")
            b.beqz("x", "end")     # falls through to an ALU op
            b.subi("x", "x", 1)
            b.jmp("top")           # falls through to a MEM-slot op
            b.label("end")
            b.lstore("x", 0, "x")

        rows = decode_program(ex_program(body)).rows
        assert [r[D_KIND] for r in rows[:4]] == [
            K_ALU, K_BRANCH, K_ALU, K_BRANCH
        ]
        assert [r[D_SOLO] for r in rows] == [
            True, True, True, False, False, False
        ]

    def test_mem_slot_successor_pairs(self):
        def body(b):
            b.li("x", 9)
            b.lstore("x", 0, "x")
            b.addi("x", "x", 1)

        rows = decode_program(ex_program(body)).rows
        # li precedes LSTORE and addi precedes STOP: each may share its
        # cycle with the MEM-slot op after it.  Only ALU and branch rows
        # can be solo.
        assert [r[D_SOLO] for r in rows] == [False, False, False, False]

    def test_nops_are_alu_slot_rows(self):
        def body(b):
            b.li("x", 1)
            b.nop()
            b.nop()
            b.addi("x", "x", 1)

        rows = decode_program(ex_program(body)).rows
        assert [r[D_SOLO] for r in rows] == [True, True, True, False, False]


#: The modules that model instructions for the oracle: the functional
#: interpreter executes :class:`~repro.isa.instructions.Instruction`
#: objects through :func:`~repro.isa.semantics.alu_result`.
ORACLE_MODULES = frozenset({
    "repro.isa.instructions", "repro.isa.opcodes", "repro.isa.semantics",
})


def test_machine_reads_instructions_only_as_decoded_rows():
    # A machine module importing an oracle module would be a second
    # reading of instructions beside the decoded rows.
    src = Path(repro.__file__).parent
    imports = []
    for package in ("cell", "core"):
        for path in sorted((src / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                imports += [
                    f"{package}/{path.name}: {name}"
                    for name in names if name in ORACLE_MODULES
                ]
    assert imports == []
