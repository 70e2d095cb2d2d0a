"""Decoded-instruction cache: per-program flat execution tables.

The SPU issue loop would otherwise re-derive everything about an
:class:`~repro.isa.instructions.Instruction` on every visit:
``instr.spec`` (a dict lookup keyed by enum hash), ``isinstance`` checks
on operands, enum identity chains in ``alu_result``.  Per paper-benchmark
run those lookups happen hundreds of thousands of times on immutable
data.

:func:`decode_program` resolves all of it **once per program** into flat
tuples — one row per flat instruction — holding:

* a small-int dispatch ``kind``: ALU, branch, Local Store (LOAD, STOREF,
  LLOAD, LSTORE) or structural (memory, scheduler and DMA ops, which the
  SPU issues only in the engine's cycle),
* pre-resolved operands (register index *or* immediate value, with the
  ALU ``imm``-as-``rb`` fallback already folded in), the raw instruction
  immediate ``imm`` (a Local Store row's frame slot or address offset, a
  DMA row's size in bytes or a gather's word count) and a DMA row's tag
  and gather stride (Table 3's command: LS address ``ra``, memory
  address ``rb``, size, tag),
* the value function (one tiny closure per opcode instead of the
  ``alu_result`` if-chain; ``tests/isa/test_decoded.py`` pins these to
  :func:`~repro.isa.semantics.alu_result` /
  :func:`~repro.isa.semantics.branch_taken` so they cannot drift),
* the scoreboard-checked register set and the result latency,
* ``solo``: True for an ALU or branch row whose next row needs the ALU
  slot too, so the row never shares its cycle with another.  The SPU
  issue loop (``SPU._issue_cycle``) retires such rows on its tight path
  and looks past the others for the MEM-slot op they may pair with
  (``docs/PERFORMANCE.md``).

Rows are plain tuples indexed by the ``D_*`` constants (attribute access
is what we are deleting from the hot path).  The decoded table attaches
lazily to :class:`~repro.isa.program.ThreadProgram` via its ``decoded``
property.  It is the only form in which the machine reads an
instruction: the SPU issues every op from its row, and the LSE's XP
pipeline runs a PF block's rows.  The functional interpreter
deliberately does not use it: as the oracle the machine is checked
against, it decodes nothing.
"""

from __future__ import annotations

import typing

from repro.isa.opcodes import Op, Slot, spec_of
from repro.isa.instructions import Imm, Reg
from repro.isa.semantics import ArithmeticFault, wrap64

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa.program import ThreadProgram

__all__ = [
    "DecodedProgram",
    "decode_program",
    # row field indices
    "D_KIND", "D_AREG", "D_AVAL", "D_BREG", "D_BVAL", "D_RD", "D_TARGET",
    "D_LAT", "D_HAZ", "D_FN", "D_NAME", "D_MEM", "D_SOLO", "D_IMM",
    "D_TAG", "D_STRIDE",
    # dispatch kinds
    "K_ALU", "K_BRANCH", "K_LS", "K_STRUCT",
]


# -- row layout ---------------------------------------------------------------
# One decoded instruction is a plain tuple; index with these constants.

D_KIND = 0    #: dispatch class (K_* below)
D_AREG = 1    #: ra register index, or None (then D_AVAL is the value)
D_AVAL = 2    #: ra immediate value; 0 when ra is absent
D_BREG = 3    #: rb register index, or None (then D_BVAL is the value)
D_BVAL = 4    #: rb immediate value; ALU rows fold the imm fallback here
D_RD = 5      #: destination register index, or None
D_TARGET = 6  #: resolved branch target flat index, or None
D_LAT = 7     #: result latency in cycles (>= 1; ALU rows only matter)
D_HAZ = 8     #: tuple of scoreboard-checked register indices, in ra,rb,rd order
D_FN = 9      #: value function (ALU result / branch predicate), or None (NOP)
D_NAME = 10   #: op mnemonic (InstructionMix.by_opcode key)
D_MEM = 11    #: True when the op occupies the MEM issue slot
D_SOLO = 12   #: ALU/branch row whose next row needs the ALU slot too
D_IMM = 13    #: the instruction's raw immediate, or None
D_TAG = 14    #: DMA tag group, or None
D_STRIDE = 15  #: DMAGETS gather stride in bytes, or None

# -- dispatch kinds -----------------------------------------------------------

K_ALU = 0
K_BRANCH = 1
K_LS = 2      #: LOAD, STOREF, LLOAD, LSTORE (issued inline by the SPU)
K_STRUCT = 3  #: memory, scheduler and DMA ops (only in the engine's cycle)

#: Ops that decode to K_LS rows.
_LS_OPS = frozenset({Op.LOAD, Op.STOREF, Op.LLOAD, Op.LSTORE})


# -- value functions ----------------------------------------------------------
# One closure per opcode; semantically identical to alu_result/branch_taken
# (pinned by tests/isa/test_decoded.py) but without the if-chain.  Results
# wrap to signed 64 bits inline, as wrap64 does, without the call; the
# bitwise ops and SHL need no to_unsigned64 first, because their result
# modulo 2**64 depends only on their operands modulo 2**64.

_SIGN = 1 << 63
_MASK = (1 << 64) - 1


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("division by zero")
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("modulo by zero")
    r = abs(a) % abs(b)
    return wrap64(-r if a < 0 else r)


_ALU_FN: dict[Op, typing.Callable[[int, int], int]] = {
    Op.ADD: lambda a, b: ((a + b + _SIGN) & _MASK) - _SIGN,
    Op.ADDI: lambda a, b: ((a + b + _SIGN) & _MASK) - _SIGN,
    Op.SUB: lambda a, b: ((a - b + _SIGN) & _MASK) - _SIGN,
    Op.SUBI: lambda a, b: ((a - b + _SIGN) & _MASK) - _SIGN,
    Op.MUL: lambda a, b: ((a * b + _SIGN) & _MASK) - _SIGN,
    Op.MULI: lambda a, b: ((a * b + _SIGN) & _MASK) - _SIGN,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: lambda a, b: (((a & b) + _SIGN) & _MASK) - _SIGN,
    Op.ANDI: lambda a, b: (((a & b) + _SIGN) & _MASK) - _SIGN,
    Op.OR: lambda a, b: (((a | b) + _SIGN) & _MASK) - _SIGN,
    Op.ORI: lambda a, b: (((a | b) + _SIGN) & _MASK) - _SIGN,
    Op.XOR: lambda a, b: (((a ^ b) + _SIGN) & _MASK) - _SIGN,
    Op.XORI: lambda a, b: (((a ^ b) + _SIGN) & _MASK) - _SIGN,
    Op.SHL: lambda a, b: (((a << (b & 63)) + _SIGN) & _MASK) - _SIGN,
    Op.SHLI: lambda a, b: (((a << (b & 63)) + _SIGN) & _MASK) - _SIGN,
    Op.SHR: lambda a, b: ((((a & _MASK) >> (b & 63)) + _SIGN) & _MASK) - _SIGN,
    Op.SHRI: lambda a, b: ((((a & _MASK) >> (b & 63)) + _SIGN) & _MASK) - _SIGN,
    Op.SLT: lambda a, b: 1 if a < b else 0,
    Op.SLTI: lambda a, b: 1 if a < b else 0,
    Op.SEQ: lambda a, b: 1 if a == b else 0,
    Op.SEQI: lambda a, b: 1 if a == b else 0,
    Op.MIN: lambda a, b: min(a, b),
    Op.MAX: lambda a, b: max(a, b),
    Op.MOV: lambda a, b: ((a + _SIGN) & _MASK) - _SIGN,
    Op.LI: lambda a, b: ((b + _SIGN) & _MASK) - _SIGN,
}

_BRANCH_FN: dict[Op, typing.Callable[[int, int], bool]] = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
    Op.BEQZ: lambda a, b: a == 0,
    Op.BNEZ: lambda a, b: a != 0,
    Op.JMP: lambda a, b: True,
}


class DecodedProgram:
    """The decoded execution table of one :class:`ThreadProgram`."""

    __slots__ = ("rows", "program")

    def __init__(self, rows: tuple[tuple, ...],
                 program: "ThreadProgram") -> None:
        self.rows = rows
        self.program = program

    def __len__(self) -> int:
        return len(self.rows)

    def __reduce__(self):
        # Rows hold per-opcode closures, which do not pickle: a pickle
        # holds the program, and a load decodes it again (and caches the
        # table on the program, as a live run does).
        return getattr, (self.program, "decoded")


def _operand(operand: "Reg | Imm | None") -> tuple[int | None, int]:
    """Resolve a source operand to ``(reg_index_or_None, imm_value)``."""
    if isinstance(operand, Reg):
        return operand.index, 0
    if isinstance(operand, Imm):
        return None, operand.value
    return None, 0


def _op_facts(op: Op) -> tuple:
    """``(kind, value function, mnemonic, latency, MEM slot)`` of ``op``."""
    spec = spec_of(op)
    if spec.is_branch:
        kind, fn = K_BRANCH, _BRANCH_FN[op]
    elif op in _ALU_FN or op is Op.NOP:
        kind, fn = K_ALU, _ALU_FN.get(op)  # None for NOP
    else:
        kind, fn = (K_LS if op in _LS_OPS else K_STRUCT), None
    return kind, fn, op.value, spec.result_latency or 1, spec.slot is Slot.MEM


#: The row fields an opcode alone decides, so decoding an instruction
#: looks its opcode up once (a checkpoint load decodes running programs).
_OP_FACTS = {op: _op_facts(op) for op in Op}


def decode_program(program: "ThreadProgram") -> DecodedProgram:
    """Build the :class:`DecodedProgram` for ``program``."""
    partial: list[list] = []
    for instr in program.flat:
        kind, fn, name, latency, mem = _OP_FACTS[instr.op]
        a_reg, a_val = _operand(instr.ra)
        if kind == K_ALU and instr.rb is None:
            # ALU ops fall back to imm (or 0) for rb.
            b_reg, b_val = None, instr.imm if instr.imm is not None else 0
        else:
            b_reg, b_val = _operand(instr.rb)
        haz: list[int] = []
        if a_reg is not None:
            haz.append(a_reg)
        if b_reg is not None:
            haz.append(b_reg)
        if instr.rd is not None:
            haz.append(instr.rd)  # WAW
        partial.append([
            kind,
            a_reg, a_val,
            b_reg, b_val,
            instr.rd,
            instr.target,
            latency,
            tuple(haz),
            fn,
            name,
            mem,
            False,  # D_SOLO, filled below
            instr.imm,
            instr.tag,
            instr.stride,
        ])

    # A valid program ends with STOP (a MEM-slot row), so every ALU and
    # branch row has a next row.
    for row, nxt in zip(partial, partial[1:]):
        if row[D_KIND] in (K_ALU, K_BRANCH):
            row[D_SOLO] = not nxt[D_MEM]

    return DecodedProgram(tuple(map(tuple, partial)), program)
