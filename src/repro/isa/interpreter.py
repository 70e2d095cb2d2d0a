"""Functional reference interpreter — the timing-free golden model.

Executes a :class:`~repro.core.activity.TLPActivity` with plain Python
data structures and a sequential scheduler: frames are dictionaries, DMA
is a memcpy, FALLOC returns immediately.  No cycles, ports, queues or
stalls exist here — only the *architectural* semantics of the ISA and
the dataflow firing rule (a thread runs when its SC reaches zero).

Its purpose is differential testing: for any activity, the cycle-level
machine in :mod:`repro.cell` must leave main memory in exactly the state
this interpreter computes.  A divergence means a *functional* bug in the
timing model (wrong forwarding, a lost store, a mis-rewritten program),
which timing-only assertions can never catch.

It is also handy on its own for debugging workloads: it runs orders of
magnitude faster than the simulator and raises on the same programming
errors (unaligned accesses, SC overflow, division by zero).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.activity import TLPActivity
from repro.core.frame import pack_handle, unpack_handle
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.opcodes import Op
from repro.isa.program import ThreadProgram
from repro.isa.semantics import alu_result, branch_taken

__all__ = ["FunctionalMachine", "InterpreterError", "run_functional"]


class InterpreterError(RuntimeError):
    """An architectural violation detected by the reference interpreter."""


@dataclass(slots=True)
class _Thread:
    tid: int
    program: ThreadProgram
    frame: dict[int, int]
    sc: int
    handle: int
    pending_stores: list[tuple[int, int]] = field(default_factory=list)


class FunctionalMachine:
    """Sequential, timing-free executor of TLP activities."""

    #: Functional machines pretend to be a single PE for handle packing.
    PE_ID = 0

    def __init__(self, activity: TLPActivity, max_threads: int = 1_000_000):
        activity.validate()
        self.activity = activity
        self.max_threads = max_threads
        self.memory: dict[int, int] = {}
        #: A boundless local store for DMA staging (byte-addressed words).
        self.ls: dict[int, int] = {}
        self._ls_heap = 0x100000  # fake allocator bump pointer
        self.threads: dict[int, _Thread] = {}
        self._ready: deque[_Thread] = deque()
        self._next_tid = 0
        self.threads_run = 0
        self.instructions = 0
        for obj in activity.globals:
            assert obj.addr is not None
            for i, v in enumerate(obj.data):
                self.memory[obj.addr + 4 * i] = v

    # -- memory helpers ------------------------------------------------------

    def _mem_read(self, addr: int) -> int:
        if addr % 4:
            raise InterpreterError(f"unaligned READ at {addr:#x}")
        return self.memory.get(addr, 0)

    def _mem_write(self, addr: int, value: int) -> None:
        if addr % 4:
            raise InterpreterError(f"unaligned WRITE at {addr:#x}")
        self.memory[addr] = value

    def read_global(self, name: str) -> list[int]:
        obj = self.activity.global_obj(name)
        assert obj.addr is not None
        return [self.memory.get(obj.addr + 4 * i, 0)
                for i in range(len(obj.data))]

    # -- thread management ------------------------------------------------------

    def _falloc(self, template_id: int, sc: int) -> int:
        if self._next_tid >= self.max_threads:
            raise InterpreterError("thread budget exhausted (runaway fork?)")
        tid = self._next_tid
        self._next_tid += 1
        program = self.activity.templates[template_id]
        # Every frame lives at a unique fake LS address so handles are
        # distinct and reversible.
        thread = _Thread(
            tid=tid,
            program=program,
            frame={},
            sc=sc,
            handle=pack_handle(self.PE_ID, 4 * (tid + 1)),
        )
        self.threads[tid] = thread
        if sc == 0:
            self._ready.append(thread)
        return thread.handle

    def _thread_by_handle(self, handle: int) -> _Thread:
        pe, addr = unpack_handle(handle)
        tid = addr // 4 - 1
        thread = self.threads.get(tid)
        if thread is None:
            raise InterpreterError(f"store to unknown frame handle {handle:#x}")
        return thread

    def _store(self, handle: int, slot: int, value: int) -> None:
        thread = self._thread_by_handle(handle)
        if thread.sc <= 0:
            raise InterpreterError(
                f"thread {thread.tid}: more stores than its SC allowed"
            )
        thread.frame[slot] = value
        thread.sc -= 1
        if thread.sc == 0:
            self._ready.append(thread)

    # -- execution ----------------------------------------------------------------

    def run(self) -> None:
        """Spawn the roots and run every thread to completion."""
        spawned: list[int] = []
        for spawn in self.activity.spawns:
            handle = self._falloc(
                self.activity.template_id(spawn.template), spawn.sc
            )
            spawned.append(handle)
            for slot, value in sorted(spawn.stores.items()):
                self._store(
                    handle, slot, self.activity.resolve(value, spawned[:-1])
                )
        while self._ready:
            self._run_thread(self._ready.popleft())
        live = [t.tid for t in self.threads.values() if t.sc > 0]
        if live:
            raise InterpreterError(
                f"threads never fired (missing producer stores): {live[:10]}"
            )

    def _run_thread(self, thread: _Thread) -> None:
        self.threads_run += 1
        regs = [0] * 128
        program = thread.program
        flat = program.flat
        pc = 0
        #: (tid, tag) completion is immediate: DMA is a memcpy here.

        def val(operand) -> int:
            if isinstance(operand, Reg):
                return regs[operand.index]
            if isinstance(operand, Imm):
                return operand.value
            raise InterpreterError("missing operand")

        while True:
            if pc >= len(flat):
                raise InterpreterError(
                    f"{program.name}: fell off the end (missing STOP?)"
                )
            instr: Instruction = flat[pc]
            self.instructions += 1
            op = instr.op
            if op is Op.STOP:
                del self.threads[thread.tid]
                return
            if instr.spec.is_branch:
                a = val(instr.ra) if instr.ra is not None else 0
                b = val(instr.rb) if instr.rb is not None else 0
                if branch_taken(op, a, b):
                    assert isinstance(instr.target, int)
                    pc = instr.target
                else:
                    pc += 1
                continue
            pc += 1
            if op is Op.NOP:
                continue
            if op is Op.LOAD:
                regs[instr.rd] = thread.frame.get(instr.imm, 0)
            elif op is Op.STOREF:
                thread.frame[instr.imm] = val(instr.ra)
            elif op is Op.STORE:
                self._store(val(instr.ra), instr.imm, val(instr.rb))
            elif op is Op.LLOAD:
                regs[instr.rd] = self.ls.get(val(instr.ra) + instr.imm, 0)
            elif op is Op.LSTORE:
                self.ls[val(instr.ra) + instr.imm] = val(instr.rb)
            elif op is Op.READ:
                regs[instr.rd] = self._mem_read(val(instr.ra) + instr.imm)
            elif op is Op.WRITE:
                self._mem_write(val(instr.ra) + instr.imm, val(instr.rb))
            elif op is Op.DMAGET:
                ls, mem = val(instr.ra), val(instr.rb)
                for i in range(instr.imm // 4):
                    self.ls[ls + 4 * i] = self._mem_read(mem + 4 * i)
            elif op is Op.DMAGETS:
                ls, mem = val(instr.ra), val(instr.rb)
                for i in range(instr.imm):
                    self.ls[ls + 4 * i] = self._mem_read(mem + i * instr.stride)
            elif op is Op.DMAPUT:
                ls, mem = val(instr.ra), val(instr.rb)
                for i in range(instr.imm // 4):
                    self._mem_write(mem + 4 * i, self.ls.get(ls + 4 * i, 0))
            elif op is Op.DMAWAIT:
                pass  # DMA completed synchronously
            elif op is Op.LSALLOC:
                self._ls_heap += ((instr.imm + 15) // 16) * 16
                regs[instr.rd] = self._ls_heap - ((instr.imm + 15) // 16) * 16
            elif op is Op.FALLOC:
                regs[instr.rd] = self._falloc(instr.imm, val(instr.ra))
            elif op is Op.FFREE:
                self._thread_by_handle(val(instr.ra))  # existence check only
            else:
                # Plain ALU operation.
                a = val(instr.ra) if instr.ra is not None else 0
                b = (
                    val(instr.rb)
                    if instr.rb is not None
                    else (instr.imm if instr.imm is not None else 0)
                )
                regs[instr.rd] = alu_result(op, a, b)


def run_functional(activity: TLPActivity) -> FunctionalMachine:
    """Run ``activity`` on the reference interpreter and return it."""
    machine = FunctionalMachine(activity)
    machine.run()
    return machine
