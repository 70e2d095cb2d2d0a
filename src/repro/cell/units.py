"""Run-ahead units: the SPU's run-ahead cycles as generated Python.

``SPU._issue_cycle`` runs ahead of the engine through cycles that issue
only ALU ops, branches, Local Store ops that no other component can see
or change first and posted ops (WRITE, STORE, FFREE), whose outside part
the SPU performs later, in its own tick at the op's cycle
(docs/PERFORMANCE.md, "SPU run-ahead" and "Posted ops").  A *unit* runs
a stretch of such cycles as one generated Python function instead of
interpreting them row by row, as a dynamic binary translator runs guest
code (Embra, Witchel & Rosenblum, SIGMETRICS 1996).

A unit starts at a run-ahead cycle boundary and is keyed by the program's
rows, whether Local Store ops may run ahead in the tick (``ahead``: the
MFC idle, the XP pipeline off and no data-fault LOAD checks, which
``_issue_cycle`` decides once per tick), the pc and the scoreboard writes
still pending there, as ``(register, cycles left, stall bucket)``
triples.  ``SPU._schedule`` works its schedule out once, by walking the
issue rules of ``_issue_cycle``: which rows issue in which cycle, every
scoreboard stall and its bucket, and every exit.  Without ``ahead`` the
walk stops at the first cycle with a Local Store op.  The generated code
is left with what the walk cannot know:

* register values and Local Store words, computed with the same opcode
  templates the decoded closures are built from
  (:data:`repro.isa.decoded.TEMPLATES`);
* whether each branch is taken: a taken branch leaves the unit, and the
  caller chains to the unit at its target, except that a branch back to
  the unit's own entry state loops inside the function;
* the checks ``_issue_cycle`` makes in each cycle before a Local Store
  op runs ahead: at most ``ports - 2`` ports booked for the cycle, and
  an LLOAD/LSTORE address at or above ``frame_region``;
* the check before a posted op: a store-queue credit left for a WRITE,
  an LSE-queue slot left for a STORE or FFREE.  The caller passes both
  counts in, net of the posts the tick has made so far, and the code
  counts its own posts down from them.  A posted op appends its post
  record ``(cycle, code, x, y, z)`` (:data:`POST_CODES`) to the SPU's
  pending posts.

A failing check, a zero divisor and a Local Store address that would
fault *decline* the cycle: the unit returns with the cycle not begun,
and the interpreter decides it itself.

The generated function returns ``(exit index, loops)``.  Each exit is an
:class:`Exit` record holding everything the schedule fixed: the next pc,
the cycles used, the issue, dual-issue, wait and Local Store wait sums
and the WRITEs and LSE requests posted, the opcode counts and the
scoreboard at the exit.  ``loops`` counts the passes through the loop
exit before it, each worth that exit's record again.

The source holds only integers taken from the rows and the machine
configuration, the templates and fixed scaffolding, so a unit's code
depends only on its key.  Each unit compiles under a file name of its
own, with its pc and a digest of its key and code, so profilers keep
units apart.  Units are cached by content: on the decoded
program (``DecodedProgram.units``) and in a bounded process-wide cache,
since every run builds its programs afresh.  Nothing that pickles holds
a unit: ``DecodedProgram`` pickles as its program.
"""

from __future__ import annotations

import operator
import threading
import zlib

from repro.cell.local_store import PORT_HISTORY
from repro.isa.decoded import (
    D_AREG,
    D_AVAL,
    D_BREG,
    D_BVAL,
    D_FN,
    D_IMM,
    D_NAME,
    D_RD,
    NAMESPACE,
    TEMPLATES,
)

__all__ = ["Exit", "Unit", "UNRESOLVED", "POST_CODES", "lookup",
           "ALU", "NONZERO", "GUARD", "LS", "BRANCH", "END", "CREDIT",
           "POST"]

# -- schedule steps -----------------------------------------------------------
# SPU._schedule describes a unit as a list of steps, in issue order:
ALU = 0      #: (ALU, row): an ALU op's value into its destination
NONZERO = 1  #: (NONZERO, row, exit): a DIV/MOD divisor, zero declines
GUARD = 2    #: (GUARD, cycle, alu, mem, exit): may the cycle with Local
             #: Store op ``mem`` run ahead?  ``alu`` is the ALU op that
             #: issues first in it, if any, whose value an LLOAD/LSTORE
             #: address may use
LS = 3       #: (LS, cycle, row): a Local Store op on the port GUARD booked
BRANCH = 4   #: (BRANCH, row, exit): a taken branch leaves by ``exit``
END = 5      #: (END, exit): the schedule ends
CREDIT = 6   #: (CREDIT, row, exit): may the cycle post ``row``?  A
             #: WRITE needs a store-queue credit, a STORE or FFREE an
             #: LSE-queue slot
POST = 7     #: (POST, cycle, row): a posted op's record onto the posts

#: A posted op's code in its post record ``(cycle, code, x, y, z)``:
#: WRITE ``(address, value, 0)``, STORE ``(handle, slot, value)``, FFREE
#: ``(handle, 0, 0)``.
POST_CODES = {"WRITE": 0, "STORE": 1, "FFREE": 2}

#: ``Exit.next`` before the caller has looked the next unit up.
UNRESOLVED = object()

#: Units kept process-wide; the oldest goes first.
CACHE_SIZE = 1024

_CACHE: dict = {}
_LOCK = threading.Lock()
_GLOBALS = dict(NAMESPACE)


class Exit:
    """One way out of a unit, with what the schedule fixed for it."""

    __slots__ = ("pc", "sums", "ops", "sb", "chain", "next")

    def __init__(self, pc, sums, ops, sb, chain) -> None:
        #: The pc the SPU goes on from.
        self.pc = pc
        #: ``(cycles, issue, dual, wait, ls_wait, writes, requests)``: the
        #: cycles from the unit's entry to the exit, issue and dual-issue
        #: cycles, cycles charged to the Working bucket besides issue
        #: (branch penalties, pipeline stalls), Local Store stall cycles,
        #: and the WRITEs and LSE requests (STORE, FFREE) posted.
        self.sums = sums
        #: ``(mnemonic, count)`` pairs, in first-issue order.
        self.ops = ops
        #: The pending scoreboard writes at the exit, as in a unit key.
        self.sb = sb
        #: True when another unit may start at the exit (a taken branch,
        #: or the end of a long schedule); False when the interpreter
        #: must decide the exit's cycle.
        self.chain = chain
        #: The unit that starts at the exit, once looked up (or None).
        self.next = UNRESOLVED


class Unit:
    """A run-ahead unit: its generated function and its exits."""

    __slots__ = ("run", "exits", "loop", "span", "source")

    def __init__(self, run, exits, loop, span, source) -> None:
        #: ``run(regs, words, ls, now, limit, fa, posts, wc, lq) -> (exit,
        #: loops)`` with the register file, the Local Store's words, the
        #: Local Store, the entry cycle, the cycle no pass may reach, the
        #: thread's frame address, the SPU's pending posts and the
        #: store-queue credits and LSE-queue slots left.
        self.run = run
        self.exits = exits
        #: The exit that loops back to the entry, or None.
        self.loop = loop
        #: The cycles from entry to the latest exit: a unit (and each
        #: pass of a loop) runs only if entry + span is before ``limit``.
        self.span = span
        self.source = source


def lookup(rows: tuple, key: tuple, schedule) -> "Unit | None":
    """The unit of ``key`` = ``(config, ahead, pc, pending)`` over
    ``rows``, or None when none starts there; built from
    ``schedule(rows, pc, pending, ls_latency, branch_penalty, ahead)``
    (``SPU._schedule``) unless the process-wide cache has it."""
    with _LOCK:  # the serving gateway simulates on several threads
        try:
            return _CACHE[rows, key]
        except KeyError:
            pass
        config, ahead, pc, pending = key
        plan = schedule(rows, pc, pending, config[3], config[4], ahead)
        unit = None if plan is None else _build(*plan, key)
        if len(_CACHE) >= CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]
        _CACHE[rows, key] = unit
        return unit


def _int(value) -> str:
    """An integer from a row or the configuration, as source text."""
    return f"({operator.index(value)})"


def _operand(row, reg_field: int, val_field: int) -> str:
    reg = row[reg_field]
    if reg is None:
        return _int(row[val_field])
    return f"regs[{operator.index(reg)}]"


def _value(row) -> str:
    """The value of an ALU or branch row, from its opcode's template."""
    return "(" + TEMPLATES[row[D_NAME]].format(
        a=_operand(row, D_AREG, D_AVAL), b=_operand(row, D_BREG, D_BVAL)
    ) + ")"


def _build(steps: list, exits: list, loop: "int | None",
           key: tuple) -> Unit:
    """Generate, compile and wrap the function of one schedule, the
    unit of ``key``."""
    ports, frame_region, size = key[0][:3]
    span = max(e.sums[0] for e in exits)
    n = "0" if loop is None else "n"
    pad = "    " if loop is None else "        "
    lines = ["def unit(regs, words, ls, now, limit, fa, posts, wc, lq):",
             "    pu = ls._ports_used"]
    if loop is not None:
        lines += ["    n = 0", "    while True:"]

    def emit(*text: str) -> None:
        lines.extend(pad + line for line in text)

    for step in steps:
        kind = step[0]
        if kind == ALU:
            row = step[1]
            if row[D_FN] is not None:  # None = NOP
                emit(f"regs[{operator.index(row[D_RD])}] = {_value(row)}")
        elif kind == NONZERO:
            _, row, k = step
            emit(f"if {_operand(row, D_BREG, D_BVAL)} == 0: return {k}, {n}")
        elif kind == GUARD:
            _, cycle, alu, mem, k = step
            if alu is not None:
                emit(f"x = {_value(alu)}")
            at = f"now + {cycle}" if cycle else "now"
            emit(f"u = pu.get({at}, 0)",
                 f"if u > {ports - 2}: return {k}, {n}")
            low = frame_region
            if mem[D_NAME] not in ("LLOAD", "LSTORE"):  # LOAD, STOREF
                base, low = f"fa + {4 * operator.index(mem[D_IMM])}", 0
            elif alu is not None and mem[D_AREG] == alu[D_RD]:
                # A latency-1 ALU op pairs with the LLOAD or LSTORE that
                # reads its result.
                base = f"x + {_int(mem[D_IMM])}"
            else:
                base = f"{_operand(mem, D_AREG, D_AVAL)} + {_int(mem[D_IMM])}"
            emit(f"a = {base}",
                 f"if a & 3 or not {low} <= a < {size}: return {k}, {n}")
            if alu is not None:
                emit(f"regs[{operator.index(alu[D_RD])}] = x")
        elif kind == LS:
            _, cycle, row = step
            at = f"now + {cycle}" if cycle else "now"
            emit(f"pu[{at}] = u + 1",
                 f"if len(pu) > {PORT_HISTORY}:",
                 f"    pu = ls._ports_used = "
                 f"{{c: m for c, m in pu.items() if c >= {at}}}")
            name = row[D_NAME]
            if row[D_RD] is not None:  # LLOAD, LOAD
                emit(f"regs[{operator.index(row[D_RD])}] = words[a >> 2]")
            elif name == "LSTORE":
                emit(f"words[a >> 2] = {_operand(row, D_BREG, D_BVAL)}")
            else:  # STOREF
                emit(f"words[a >> 2] = {_operand(row, D_AREG, D_AVAL)}")
        elif kind == CREDIT:
            _, row, k = step
            left = "wc" if row[D_NAME] == "WRITE" else "lq"
            emit(f"if {left} < 1: return {k}, {n}")
        elif kind == POST:
            _, cycle, row = step
            at = f"now + {cycle}" if cycle else "now"
            name = row[D_NAME]
            a = _operand(row, D_AREG, D_AVAL)
            if name == "WRITE":
                emit("wc -= 1")
                xyz = (f"{a} + {_int(row[D_IMM])}",
                       _operand(row, D_BREG, D_BVAL), "0")
            else:
                emit("lq -= 1")
                xyz = ((a, _int(row[D_IMM]), _operand(row, D_BREG, D_BVAL))
                       if name == "STORE" else (a, "0", "0"))
            emit(f"posts.append(({at}, {POST_CODES[name]}, "
                 f"{', '.join(xyz)}))")
        elif kind == BRANCH:
            _, row, k = step
            emit(f"if {_value(row)}:")
            if k == loop:
                period = exits[k].sums[0]
                emit(f"    if now + {period + span} >= limit: return {k}, n",
                     f"    now += {period}",
                     "    n += 1",
                     "    continue")
            else:
                emit(f"    return {k}, {n}")
        else:  # END
            emit(f"return {step[1]}, {n}")
    source = "\n".join(lines) + "\n"
    digest = zlib.crc32(f"{key}\n{source}".encode())
    name = f"<run-ahead unit pc {key[2]} {digest:08x}>"
    exec(compile(source, name, "exec"), _GLOBALS)
    return Unit(_GLOBALS.pop("unit"), tuple(exits),
                None if loop is None else exits[loop], span, source)
