"""Pure functional semantics of the ALU and branch instructions.

These helpers are shared between the SPU pipeline model (the normal
execution path) and the LSE's XP-pipeline PreFetch executor (ablation A2,
where the scheduler element itself runs PF blocks while the SPU keeps
executing other threads).  Keeping value computation in one place
guarantees the two engines can never disagree about a result.

All arithmetic is 64-bit two's-complement: values wrap at 2**63, and the
shift instructions operate on the 64-bit unsigned representation (SHR is a
logical shift, as the bit-counting kernels require).
"""

from __future__ import annotations

from repro.isa.opcodes import Op

__all__ = ["wrap64", "to_unsigned64", "alu_result", "branch_taken", "ArithmeticFault"]

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


class ArithmeticFault(RuntimeError):
    """Division or modulo by zero inside a simulated program."""


def wrap64(value: int) -> int:
    """Wrap an unbounded int to signed 64-bit two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value & _SIGN64 else value


def to_unsigned64(value: int) -> int:
    """The 64-bit unsigned representation of a signed value."""
    return value & _MASK64


def _shift_amount(value: int) -> int:
    """Shift amounts use the low 6 bits, like most 64-bit ISAs."""
    return value & 63


def alu_result(op: Op, a: int, b: int) -> int:
    """Result of a two-source ALU operation (immediate forms pass b=imm)."""
    if op in (Op.ADD, Op.ADDI):
        return wrap64(a + b)
    if op in (Op.SUB, Op.SUBI):
        return wrap64(a - b)
    if op in (Op.MUL, Op.MULI):
        return wrap64(a * b)
    if op is Op.DIV:
        if b == 0:
            raise ArithmeticFault("division by zero")
        q = abs(a) // abs(b)
        return wrap64(-q if (a < 0) != (b < 0) else q)
    if op is Op.MOD:
        if b == 0:
            raise ArithmeticFault("modulo by zero")
        r = abs(a) % abs(b)
        return wrap64(-r if a < 0 else r)
    if op in (Op.AND, Op.ANDI):
        return wrap64(to_unsigned64(a) & to_unsigned64(b))
    if op in (Op.OR, Op.ORI):
        return wrap64(to_unsigned64(a) | to_unsigned64(b))
    if op in (Op.XOR, Op.XORI):
        return wrap64(to_unsigned64(a) ^ to_unsigned64(b))
    if op in (Op.SHL, Op.SHLI):
        return wrap64(to_unsigned64(a) << _shift_amount(b))
    if op in (Op.SHR, Op.SHRI):
        return wrap64(to_unsigned64(a) >> _shift_amount(b))
    if op in (Op.SLT, Op.SLTI):
        return 1 if a < b else 0
    if op in (Op.SEQ, Op.SEQI):
        return 1 if a == b else 0
    if op is Op.MIN:
        return min(a, b)
    if op is Op.MAX:
        return max(a, b)
    if op is Op.MOV:
        return wrap64(a)
    if op is Op.LI:
        return wrap64(b)
    raise ValueError(f"{op.value} is not an ALU operation")


def branch_taken(op: Op, a: int, b: int = 0) -> bool:
    """Whether a branch instruction is taken given its source values."""
    if op is Op.BEQ:
        return a == b
    if op is Op.BNE:
        return a != b
    if op is Op.BLT:
        return a < b
    if op is Op.BGE:
        return a >= b
    if op is Op.BEQZ:
        return a == 0
    if op is Op.BNEZ:
        return a != 0
    if op is Op.JMP:
        return True
    raise ValueError(f"{op.value} is not a branch")
