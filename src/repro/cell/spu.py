"""SPU pipeline model.

An in-order, dual-issue core (paper Sec. 4.1: "an in-order SIMD processor
which can issue two instructions in each cycle (one memory and one
calculation).  It does not contain any branch prediction ... does not
have any caches").  The reproduction keeps the issue rules and drops the
SIMD width (the paper's effects concern memory decoupling, not data
parallelism).

Timing model
------------
* Up to one MEM-slot and one ALU-slot instruction issue per cycle, in
  program order; nothing issues past a taken branch, and taken branches
  pay a fixed penalty (no branch prediction).
* A register scoreboard delays any instruction whose source or
  destination register has a pending writer; the stall is attributed to
  the unit that owns the pending write (Local Store or pipeline), which
  is what produces the Figure 5 "LS stalls" bucket.
* Scalar READs **block the pipeline** until the response returns from
  main memory over the bus — the paper's "Memory Stalls" bucket ("these
  accesses cause stalls in the pipeline").  WRITEs are posted through a
  bounded store queue credited back by the memory controller.
* FALLOC and LSALLOC block until the scheduler responds ("LSE stalls");
  STOREs and STOP are posted but stall when the LSE's bounded request
  queue is full — the paper's bitcnt LSE-stall effect.
* DMAGET occupies the pipeline for the MFC command latency — the paper's
  "Prefetching" overhead ("the SPU must spend some time in order to
  program the DMA unit").
* **Every cycle spent inside a PF code block is attributed to the
  Prefetching bucket**, whatever the SPU is doing, matching the paper's
  definition of prefetching overhead.

At the end of a PF block with outstanding DMA tags the thread yields the
pipeline (Wait-for-DMA state) and the SPU immediately dispatches another
ready thread — the non-blocking execution this paper is about.
"""

from __future__ import annotations

import enum
import typing

from repro.cell.mfc import DmaKind
from repro.core.messages import ReadRequest, WriteRequest
from repro.core.thread import ThreadInstance, ThreadState
from repro.isa.decoded import (
    D_AREG,
    D_AVAL,
    D_BREG,
    D_BVAL,
    D_FF,
    D_FN,
    D_HAZ,
    D_IMM,
    D_KIND,
    D_LAT,
    D_MEM,
    D_NAME,
    D_RD,
    D_TARGET,
    K_ALU,
    K_BRANCH,
    K_LS,
)
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.opcodes import Op, Unit
from repro.isa.program import BlockKind
from repro.sim.component import Component
from repro.sim.config import MachineConfig, SPUConfig
from repro.sim.stats import Bucket, SpuStats

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.local_store import LocalStore
    from repro.core.lse import LSE

__all__ = ["SPU", "SpuFault"]


class SpuFault(RuntimeError):
    """A program did something architecturally illegal on the SPU."""


class _State(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    TIMED = "timed"  # stalled until a known cycle (scoreboard, DMAGET, ...)
    EXTERNAL = "external"  # stalled until another component unblocks us


#: Stall bucket per owning unit.
_UNIT_BUCKET = {
    Unit.LS: Bucket.LS_STALL,
    Unit.MAIN: Bucket.MEM_STALL,
    Unit.LSE: Bucket.LSE_STALL,
    Unit.MFC: Bucket.PREFETCH,
    Unit.PIPE: Bucket.WORKING,
}

#: Most cycles one fast-forward window covers before it returns to the
#: engine, so a loop that never exits still reaches ``max_cycles``.
_WINDOW_CYCLES = 4096


class SPU(Component):
    """One synergistic processing unit."""

    priority = 60  # tick after buses/memories/schedulers each cycle

    #: ``_dec`` holds the running thread's DecodedProgram — rows carry
    #: per-opcode closures, so it is rebuilt on restore, not serialized.
    _SNAPSHOT_EXCLUDE = frozenset({"_dec"})

    def __init__(
        self,
        name: str,
        spe_id: int,
        config: SPUConfig,
        machine_config: MachineConfig,
        local_store: "LocalStore",
        stats: SpuStats | None = None,
    ) -> None:
        super().__init__(name)
        self.spe_id = spe_id
        self.config = config
        self.machine_config = machine_config
        self.ls = local_store
        self.stats = stats if stats is not None else SpuStats()
        # Wiring.
        self._lse: "LSE | None" = None
        self._mfc = None
        self._bus = None
        self._memory = None
        self._endpoint = None
        self._cache = None
        self._sanitizer = None  # optional Sanitizer
        #: True only when a data-corrupting fault plan is active: every
        #: frame LOAD then consults the LSE's poison table.  Plain bool
        #: so the fault-free issue loop pays one predictable branch.
        self._check_loads = False
        # Architectural state.
        self.thread: ThreadInstance | None = None
        self.pc = 0
        self.regs = [0] * config.num_registers
        self._scoreboard: dict[int, tuple[int, Unit]] = {}
        self._pf_end = 0
        #: The running thread's DecodedProgram (None when idle).
        self._dec = None
        self._regs_zero = [0] * config.num_registers
        # Pipeline control.
        self._state = _State.IDLE
        self._stall_start = 0
        self._stall_bucket = Bucket.WORKING
        self._timed_until = 0
        #: Deferred action retried when the timed wait expires; a plain
        #: data tuple (see _run_timed_action) so pipeline state stays
        #: checkpoint-serializable.
        self._timed_action: tuple | None = None
        #: Destination register of the blocking external op (READ/FALLOC/
        #: LSALLOC); None for waits that produce no value.
        self._ext_rd: int | None = None
        self._ext_kind: str | None = None  # "value" | "lse_queue" | "write_credit"
        self._outstanding_writes = 0
        # Hub instruments (bound in _bind_metrics; None = observability off).
        self._m_buckets: dict[str, object] | None = None
        self._m_issue = None
        self._m_issue_cycles = None
        self._m_dual_issue = None

    def _bind_metrics(self, hub) -> None:
        prefix = f"spu{self.spe_id}"
        self._m_buckets = {
            bucket: hub.bucket_series(f"{prefix}.{bucket}")
            for bucket in Bucket.ALL
            if bucket != Bucket.IDLE
        }
        self._m_issue = hub.bucket_series(f"{prefix}.issue")
        self._m_issue_cycles = hub.counter(f"{prefix}.issue_cycles")
        self._m_dual_issue = hub.counter(f"{prefix}.dual_issue_cycles")

    def wire(self, lse, mfc, bus, memory, endpoint, cache=None,
             injector=None, sanitizer=None) -> None:
        self._lse = lse
        self._mfc = mfc
        self._bus = bus
        self._memory = memory
        self._endpoint = endpoint
        self._cache = cache
        self._sanitizer = sanitizer
        self._check_loads = (
            injector is not None and injector.plan.data_active
        )

    # -- accounting ---------------------------------------------------------

    def _bucket(self, default: str) -> str:
        """Route to the Prefetching bucket while executing a PF block."""
        if (
            self.thread is not None
            and self._pf_end
            and self.pc < self._pf_end
            and not self.thread.prefetch_done
        ):
            return Bucket.PREFETCH
        return default

    def _account(self, bucket: str, cycles: int, now: int) -> None:
        """Charge ``cycles`` to ``bucket``; the hub sees them at ``now``."""
        if cycles > 0:
            # Callers pass Bucket names only, so the field exists.
            self.stats.breakdown.__dict__[bucket] += cycles
            if self.thread is not None:
                self.stats.template_cycles[self.thread.program.name] += cycles
            if self._m_buckets is not None:
                self._m_buckets[bucket].add(now, cycles)

    # -- external notifications ----------------------------------------------

    def notify_ready(self) -> None:
        """LSE: a thread became ready (wakes an idle SPU)."""
        if self._state is _State.IDLE:
            self.wake()

    def unblock(self, value: int) -> None:
        """LSE / memory: the value a blocked instruction was waiting for."""
        if self._state is not _State.EXTERNAL or self._ext_kind != "value":
            raise SpuFault(f"{self.name}: spurious unblock({value})")
        self._finish_external()
        rd, self._ext_rd = self._ext_rd, None
        assert rd is not None
        self.regs[rd] = value
        self.wake()

    def lse_queue_drained(self) -> None:
        """LSE: space opened in its SPU-side request queue."""
        if self._state is _State.EXTERNAL and self._ext_kind == "lse_queue":
            self._finish_external()
            self._ext_rd = None
            self.wake()

    def write_ack(self) -> None:
        """Memory: a posted WRITE was accepted (store-queue credit)."""
        if self._outstanding_writes <= 0:
            raise SpuFault(f"{self.name}: write credit underflow")
        self._outstanding_writes -= 1
        if self._state is _State.EXTERNAL and self._ext_kind == "write_credit":
            self._finish_external()
            self._ext_rd = None
            self.wake()

    def read_response(self, value: int) -> None:
        """Memory: the datum for the blocking READ in flight."""
        self.unblock(value)

    def dma_waiter_resume(self) -> None:
        """LSE: the DMAWAIT tag group completed."""
        if self._state is not _State.EXTERNAL or self._ext_kind != "dmawait":
            raise SpuFault(f"{self.name}: spurious DMA-wait resume")
        self._finish_external()
        self._ext_rd = None
        self.wake()

    def _finish_external(self) -> None:
        # The resume tick runs next cycle; charge the stall through it.
        now = self.now
        self._account(self._stall_bucket, now + 1 - self._stall_start, now)
        self._state = _State.RUNNING
        self._ext_kind = None

    # -- blocking helpers ----------------------------------------------------------

    def _block_timed(
        self, until: int, bucket: str, action: tuple | None = None
    ) -> None:
        self._state = _State.TIMED
        self._stall_start = self.now
        self._stall_bucket = bucket
        self._timed_until = until
        self._timed_action = action
        self.wake(until)

    def _block_external(self, kind: str, bucket: str, rd: int | None = None) -> None:
        self._state = _State.EXTERNAL
        self._stall_start = self.now
        self._stall_bucket = bucket
        self._ext_kind = kind
        self._ext_rd = rd

    def _run_timed_action(self, action: tuple) -> bool:
        """Execute a deferred timed action; True when it succeeded.

        Actions are plain tuples so a TIMED pipeline snapshots cleanly;
        the only kind today programs the MFC after the channel-interface
        latency has been paid (retried every cycle while the queue is
        full — the retry accrues in the same stall bucket).
        """
        if action[0] == "dma_enqueue":
            _, kind, ls_addr, mem_addr, size, tag, tid, stride = action
            return self._mfc.enqueue(
                kind, ls_addr, mem_addr, size, tag, tid, stride=stride
            )
        raise SpuFault(f"{self.name}: unknown timed action {action[0]!r}")

    # -- component --------------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        if self._state is _State.EXTERNAL:
            return None  # spurious wake; resumes via unblock paths
        if self._state is _State.TIMED:
            if now < self._timed_until:
                return self._timed_until
            self._account(self._stall_bucket, now - self._stall_start, now)
            self._stall_start = now
            action = self._timed_action
            if action is not None:
                if not self._run_timed_action(action):
                    # Retry next cycle, continuing to accrue the bucket.
                    self._timed_until = now + 1
                    return now + 1
                self._timed_action = None
            self._state = _State.RUNNING
        if self._state is _State.IDLE:
            if not self._try_dispatch(now):
                return None
            if self._state is not _State.RUNNING:
                return None  # dispatch entered a timed wait
        return self._issue_cycle(now)

    # -- dispatch -----------------------------------------------------------------------

    def _try_dispatch(self, now: int) -> bool:
        assert self._lse is not None
        thread = self._lse.pop_ready()
        while thread is not None and self._lse.offload_prefetch(thread):
            thread = self._lse.pop_ready()
        if thread is None:
            self._state = _State.IDLE
            return False
        self.thread = thread
        self.regs[:] = self._regs_zero  # reuse the register file allocation
        self._scoreboard.clear()
        self._dec = thread.program.decoded
        ranges = thread.program.block_ranges
        self._pf_end = ranges[BlockKind.PF][1] if BlockKind.PF in ranges else 0
        if thread.program.has_prefetch and not thread.prefetch_done:
            self.pc = 0
            thread.transition(ThreadState.PROGRAM_DMA)
        else:
            self.pc = self._pf_end
            thread.transition(ThreadState.EXECUTING)
        if self._sanitizer is not None:
            self._sanitizer.thread_started(self.name, thread.tid)
        self.stats.threads_executed += 1
        self._trace(
            "dispatch", tid=thread.tid, template=thread.program.name,
            resumed=thread.prefetch_done,
            pf=thread.program.has_prefetch and not thread.prefetch_done,
        )
        # Frame-pointer setup / context switch cost.
        lat = self._lse.config.request_latency
        self._block_timed(now + lat, Bucket.LSE_STALL)
        return True

    def _detach(self) -> None:
        self.thread = None
        self.pc = 0
        self._pf_end = 0
        self._scoreboard.clear()
        self._dec = None

    # -- the issue loop ------------------------------------------------------------------------

    def _issue_cycle(self, now: int) -> int | None:
        """Issue up to one MEM-slot and one ALU-slot instruction.

        Reads the pre-resolved :mod:`repro.isa.decoded` rows and executes
        ALU, branch and Local Store rows inline; memory, scheduler and
        DMA ops run through :meth:`_dispatch_op`.

        When the next instructions form an ALU run (with the branches it
        reaches), defers to :meth:`_fast_forward` to retire it in one tick.
        """
        thread = self.thread
        assert thread is not None
        rows = self._dec.rows
        pc = self.pc
        pf_end = self._pf_end
        open_pf = pf_end and not thread.prefetch_done
        # Fast-forward only outside open PF blocks (no Prefetching-bucket
        # routing, no PF-boundary yield inside a window).  Nothing sees a
        # window's interior cycles: the SPU traces only at dispatch,
        # yield-dma and thread-stop, _fast_forward credits the hub in
        # spans, and the sanitizer and fault injector never observe the
        # SPU.  Nothing external can interrupt a RUNNING pipeline, so
        # window side effects at tick-time are indistinguishable from the
        # per-cycle schedule.
        if (
            (not open_pf or pc > pf_end)
            and pc < len(rows)
            and rows[pc][D_FF] >= 2
        ):
            return self._fast_forward(now, rows)
        issued = 0
        mem_used = False
        alu_used = False
        penalty = 0
        # Capture the bucket at cycle start: instructions issued this cycle
        # belong to the block the PC sat in when the cycle began.
        cycle_bucket = (
            Bucket.PREFETCH if open_pf and pc < pf_end else Bucket.WORKING
        )
        regs = self.regs
        sb = self._scoreboard
        by_opcode = self.stats.mix.by_opcode
        while issued < self.config.issue_width:
            # PF-block boundary: yield the pipeline if DMA is outstanding.
            if pf_end and pc == pf_end and not thread.prefetch_done:
                if issued:
                    break  # handle the boundary at the top of the next cycle
                assert self._lse is not None
                if self._lse.thread_wait_dma(thread):
                    self._trace("yield-dma", tid=thread.tid,
                                tags=sorted(thread.pending_tags))
                    self._detach()
                    if not self._try_dispatch(now):
                        return None
                    return now + 1 if self._state is _State.RUNNING else None
                thread.transition(ThreadState.EXECUTING)
            if pc >= len(rows):
                self.pc = pc
                raise SpuFault(
                    f"{self.name}: fell off the end of {thread.program.name!r} "
                    f"(missing STOP?)"
                )
            row = rows[pc]
            if row[D_MEM]:
                if mem_used:
                    break
            elif alu_used:
                break
            # Scoreboard scan (ra, rb, rd order); expired entries go.
            worst_ready = 0
            worst_unit = None
            for r in row[D_HAZ]:
                e = sb.get(r)
                if e is not None:
                    if e[0] <= now:
                        del sb[r]
                    elif e[0] > worst_ready:
                        worst_ready, worst_unit = e
            if worst_unit is not None:
                if issued == 0:
                    self._block_timed(
                        worst_ready, self._bucket(_UNIT_BUCKET[worst_unit])
                    )
                    return self._timed_until
                break
            kind = row[D_KIND]
            if kind == K_ALU:
                fn = row[D_FN]
                if fn is not None:  # None = NOP
                    ar = row[D_AREG]
                    a = regs[ar] if ar is not None else row[D_AVAL]
                    br = row[D_BREG]
                    b = regs[br] if br is not None else row[D_BVAL]
                    rd = row[D_RD]
                    regs[rd] = fn(a, b)
                    lat = row[D_LAT]
                    if lat > 1:
                        sb[rd] = (now + lat, Unit.PIPE)
                pc += 1
                issued += 1
                by_opcode[row[D_NAME]] += 1
                alu_used = True
                continue
            if kind == K_BRANCH:
                ar = row[D_AREG]
                a = regs[ar] if ar is not None else row[D_AVAL]
                br = row[D_BREG]
                b = regs[br] if br is not None else row[D_BVAL]
                issued += 1
                by_opcode[row[D_NAME]] += 1
                alu_used = True
                if row[D_FN](a, b):
                    pc = row[D_TARGET]
                    penalty = self.config.branch_taken_penalty
                    break
                pc += 1
                continue
            if kind == K_LS:
                # Local Store (frame + prefetched data): one LS port each.
                ls = self.ls
                if not ls.reserve_port(now):
                    if issued:
                        break  # structural conflict; retry next cycle
                    self._block_timed(
                        ls.next_free_port_cycle(now),
                        self._bucket(Bucket.LS_STALL),
                    )
                    return self._timed_until
                name = row[D_NAME]
                if name == "LLOAD" or name == "LSTORE":
                    ar = row[D_AREG]
                    addr = (
                        regs[ar] if ar is not None else row[D_AVAL]
                    ) + row[D_IMM]
                else:  # LOAD, STOREF: a slot of the thread's own frame
                    addr = thread.frame_addr + 4 * row[D_IMM]
                rd = row[D_RD]
                if rd is not None:  # LLOAD, LOAD
                    if (
                        self._check_loads
                        and name == "LOAD"
                        and self._lse.check_poisoned_load(thread, addr)
                    ):
                        # The word was poisoned by a corrupted producer
                        # store; the LSE scrubbed it and squashed the
                        # thread for re-execution before anything was
                        # consumed.  The aborted LOAD is not counted as
                        # issued.
                        return self._next_thread(
                            issued, now, penalty, cycle_bucket
                        )
                    regs[rd] = ls.read_word(addr)
                    sb[rd] = (
                        now + self.machine_config.local_store.latency, Unit.LS
                    )
                elif name == "LSTORE":
                    br = row[D_BREG]
                    ls.write_word(
                        addr, regs[br] if br is not None else row[D_BVAL]
                    )
                else:  # STOREF
                    ar = row[D_AREG]
                    ls.write_word(
                        addr, regs[ar] if ar is not None else row[D_AVAL]
                    )
                pc += 1
                issued += 1
                by_opcode[name] += 1
                mem_used = True
                continue
            # Memory, scheduler and DMA ops.
            self.pc = pc
            outcome = self._dispatch_op(thread.program.flat[pc], now, issued)
            if outcome == "blocked":
                # The op entered a timed/external wait (only legal as the
                # first issue of the cycle).
                assert issued == 0
                return self._timed_until if self._state is _State.TIMED else None
            if outcome == "retry":
                break  # structural conflict; retry next cycle
            pc = self.pc
            issued += 1
            by_opcode[row[D_NAME]] += 1
            mem_used = True  # every delegated op occupies the MEM slot
            if outcome == "stop":
                return self._next_thread(issued, now, penalty, cycle_bucket)
            if outcome == "yielded" or self._state is not _State.RUNNING:
                # A blocking op issued and is now waiting (READ, FALLOC...).
                self._charge_issue(issued, now, penalty, cycle_bucket)
                self._stall_start = now + 1
                return self._timed_until if self._state is _State.TIMED else None
        self.pc = pc
        self._charge_issue(issued, now, penalty, cycle_bucket)
        return now + 1 + penalty

    def _next_thread(
        self, issued: int, now: int, penalty: int, bucket: str
    ) -> int | None:
        """The thread left the pipeline (STOP, or a squash): charge the
        issue cycle and dispatch the next ready thread."""
        self._detach()
        self._charge_issue(issued, now, penalty, bucket)
        if not self._try_dispatch(now):
            return None
        if self._state is _State.TIMED:
            # The issue cycle is already charged; the dispatch stall
            # starts next cycle.
            self._stall_start = now + 1
            return self._timed_until
        return now + 1

    def _charge_issue(
        self, issued: int, now: int, penalty: int, bucket: str
    ) -> None:
        if issued:
            self.stats.issue_cycles += 1
            if issued >= 2:
                self.stats.dual_issue_cycles += 1
            if self._m_issue is not None:
                self._m_issue.add(now, 1)
                self._m_issue_cycles.add()
                if issued >= 2:
                    self._m_dual_issue.add()
            self._account(bucket, 1 + penalty, now)
        elif penalty:
            self._account(bucket, penalty, now)

    def _fast_forward(self, now: int, rows) -> int:
        """Retire an ALU run, following the branches it reaches, in one tick.

        Engaged by :meth:`_issue_cycle` when ``rows[pc][D_FF] >= 2`` and
        the pc is past any open PF block.  Replays the per-cycle loop
        exactly: one issue per cycle (the successor rule in
        :func:`~repro.isa.decoded.decode_program` guarantees the per-cycle
        loop could never dual-issue inside the window) and scoreboard
        stalls that advance ``now`` to the writer's ready cycle.

        A branch is evaluated from the registers: values are final at
        issue, the scoreboard only times them.  Taken, it costs its issue
        cycle plus ``branch_taken_penalty``, as in :meth:`_charge_issue`,
        and the window goes on at ``D_TARGET``.  Not taken, the window
        goes on at the fall-through, unless that is a MEM-slot op: the
        per-cycle loop would issue it in the branch's cycle, so the
        window ends before the branch.  The window also ends at a row
        with ``D_FF == 0``, at a target inside an open PF block, and
        after ``_WINDOW_CYCLES`` cycles, so an endless loop still
        returns to the engine.

        Stats are credited in bulk.  An attached hub gets what the
        per-cycle loop would give it: each stall as one add at its resume
        cycle (where the TIMED resume charges it), each stretch of issue
        cycles between stalls and taken branches as one span, and each
        branch penalty as one add at its branch's cycle.  The event
        engine never visits the interior cycles.  Returns the next tick
        cycle.
        """
        stats = self.stats
        regs = self.regs
        sb = self._scoreboard
        by_opcode = stats.mix.by_opcode
        observed = self._m_issue is not None
        pf_end = self._pf_end
        open_pf = pf_end and not self.thread.prefetch_done
        branch_penalty = self.config.branch_taken_penalty
        stop = now + _WINDOW_CYCLES
        pc = self.pc
        span_start = now  # first issue cycle not yet credited to the hub
        issue_cycles = 0
        penalty_cycles = 0
        while now < stop:
            row = rows[pc]
            if not row[D_FF]:
                break
            worst_ready = 0
            worst_unit = None
            for r in row[D_HAZ]:
                e = sb.get(r)
                if e is not None:
                    if e[0] <= now:
                        del sb[r]
                    elif e[0] > worst_ready:
                        worst_ready, worst_unit = e
            if worst_unit is not None:
                # The per-cycle loop would block TIMED until worst_ready
                # and charge the same bucket for the same interval.
                if observed:
                    self._credit_issue_span(span_start, now)
                    span_start = worst_ready
                self._account(
                    _UNIT_BUCKET[worst_unit], worst_ready - now, worst_ready
                )
                now = worst_ready
                continue
            fn = row[D_FN]
            if fn is not None:  # None = NOP
                ar = row[D_AREG]
                a = regs[ar] if ar is not None else row[D_AVAL]
                br = row[D_BREG]
                b = regs[br] if br is not None else row[D_BVAL]
                if row[D_KIND] != K_BRANCH:
                    rd = row[D_RD]
                    regs[rd] = fn(a, b)
                    lat = row[D_LAT]
                    if lat > 1:
                        sb[rd] = (now + lat, Unit.PIPE)
                elif fn(a, b):
                    # Taken: the issue cycle plus the penalty, as in
                    # _charge_issue; the hub's issue span ends here.
                    if observed:
                        self._credit_issue_span(span_start, now + 1)
                        self._m_buckets[Bucket.WORKING].add(
                            now, branch_penalty
                        )
                    by_opcode[row[D_NAME]] += 1
                    issue_cycles += 1
                    penalty_cycles += branch_penalty
                    now += 1 + branch_penalty
                    span_start = now
                    pc = row[D_TARGET]
                    if open_pf and pc <= pf_end:
                        break  # the target is in an open PF block
                    continue
                elif rows[pc + 1][D_MEM]:
                    break  # the per-cycle loop would dual-issue the two
            by_opcode[row[D_NAME]] += 1
            pc += 1
            issue_cycles += 1
            now += 1
        self.pc = pc
        stats.issue_cycles += issue_cycles
        cycles = issue_cycles + penalty_cycles
        stats.breakdown.working += cycles
        stats.template_cycles[self.thread.program.name] += cycles
        if observed:
            self._credit_issue_span(span_start, now)
            self._m_issue_cycles.add(issue_cycles)
        return now

    def _credit_issue_span(self, start: int, end: int) -> None:
        """Hub credit of single-issue cycles ``[start, end)``."""
        self._m_issue.add_span(start, end)
        self._m_buckets[Bucket.WORKING].add_span(start, end)

    # -- per-opcode execution -------------------------------------------------------------------

    def _val(self, operand: "Reg | Imm | None") -> int:
        if isinstance(operand, Reg):
            return self.regs[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise SpuFault(f"{self.name}: missing operand")

    def _dispatch_op(self, instr: Instruction, now: int, issued: int) -> str:
        """Execute the memory, scheduler or DMA op ``instr`` if possible.

        Local Store ops never come here: :meth:`_issue_cycle` issues them
        inline from their decoded rows.  Returns "issued", "stop",
        "yielded" (issued but the pipeline is now waiting), "retry"
        (structural conflict, nothing done) or "blocked" (entered a
        stall; only when nothing was issued this cycle).
        """
        op = instr.op
        thread = self.thread
        assert thread is not None
        assert self._lse is not None

        # -- main memory -----------------------------------------------------------
        if op is Op.READ:
            addr = self._val(instr.ra) + instr.imm
            rd = instr.rd
            self.pc += 1
            self._block_external(
                "value", self._bucket(Bucket.MEM_STALL), rd=rd
            )
            if self._cache is not None:
                # The cache answers hits after its own latency and fills
                # whole lines on misses; either way it unblocks us.
                self._cache.read(addr, on_value=self.unblock)
            else:
                self._bus.send(
                    self._endpoint,
                    self._memory,
                    ReadRequest(addr=addr, reply_key=0,
                                requester_spe=self.spe_id),
                )
            return "yielded"
        if op is Op.WRITE:
            if self._outstanding_writes >= self.config.store_queue_size:
                if issued == 0:
                    self._block_external(
                        "write_credit", self._bucket(Bucket.MEM_STALL)
                    )
                    return "blocked"
                return "retry"
            addr = self._val(instr.ra) + instr.imm
            value = self._val(instr.rb)
            thread.side_effects = True
            self._outstanding_writes += 1
            if self._cache is not None:
                self._cache.write(addr, value)  # write-through: keep fresh
            self._bus.send(
                self._endpoint,
                self._memory,
                WriteRequest(
                    addr=addr, value=value,
                    requester_spe=self.spe_id,
                ),
            )
            self.pc += 1
            return "issued"

        # -- scheduler ops ------------------------------------------------------------
        if op in (Op.STORE, Op.FFREE, Op.STOP, Op.FALLOC, Op.LSALLOC):
            if not self._lse.spu_can_accept():
                if issued == 0:
                    self._block_external(
                        "lse_queue", self._bucket(Bucket.LSE_STALL)
                    )
                    return "blocked"
                return "retry"
            if op is Op.STORE:
                thread.side_effects = True
                self._lse.spu_store(
                    self._val(instr.ra), instr.imm, self._val(instr.rb)
                )
                self.pc += 1
                return "issued"
            if op is Op.FFREE:
                thread.side_effects = True
                self._lse.spu_ffree(self._val(instr.ra))
                self.pc += 1
                return "issued"
            if op is Op.STOP:
                self._trace("thread-stop", tid=thread.tid)
                self._lse.spu_stop(thread)
                self.pc += 1
                return "stop"
            if op is Op.FALLOC:
                thread.side_effects = True
                self._lse.spu_falloc(instr.imm, self._val(instr.ra))
                self.pc += 1
                self._block_external(
                    "value", self._bucket(Bucket.LSE_STALL), rd=instr.rd
                )
                return "yielded"
            # LSALLOC
            self._lse.spu_lsalloc(thread, instr.imm)
            self.pc += 1
            self._block_external(
                "value", self._bucket(Bucket.LSE_STALL), rd=instr.rd
            )
            return "yielded"

        # -- DMA ----------------------------------------------------------------------
        if op in (Op.DMAGET, Op.DMAGETS, Op.DMAPUT):
            kind = DmaKind.PUT if op is Op.DMAPUT else DmaKind.GET
            ls_addr = self._val(instr.ra)
            mem_addr = self._val(instr.rb)
            tag, tid = instr.tag, thread.tid
            if op is Op.DMAGETS:
                size = 4 * instr.imm  # imm counts gathered words
                stride = instr.stride
            else:
                size = instr.imm
                stride = 4
            if kind is DmaKind.PUT or self.pc >= self._pf_end:
                # PUTs mutate main memory; EX-block GETs may observe it
                # mid-run.  Either way the thread is no longer replayable
                # for data-fault recovery.  PF-block GETs stay replayable.
                thread.side_effects = True
            self.pc += 1
            self._block_timed(
                now + self.machine_config.mfc.command_latency,
                self._bucket(Bucket.PREFETCH),
                action=(
                    "dma_enqueue", kind, ls_addr, mem_addr, size, tag, tid,
                    stride,
                ),
            )
            return "yielded"
        if op is Op.DMAWAIT:
            if self._lse.tag_outstanding(thread.tid, instr.tag):
                self._lse.register_dma_waiter(
                    thread.tid, instr.tag, self.dma_waiter_resume
                )
                self.pc += 1
                self._block_external(
                    "dmawait", self._bucket(Bucket.MEM_STALL)
                )
                return "yielded"
            self.pc += 1
            return "issued"

        raise SpuFault(f"{self.name}: unimplemented opcode {op.value}")

    # -- checkpointing ---------------------------------------------------------------------------

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        # Re-derive the running thread's decoded rows (not serialized).
        self._dec = (
            self.thread.program.decoded if self.thread is not None else None
        )

    # -- diagnostics -----------------------------------------------------------------------------

    def describe_state(self) -> str:
        t = self.thread.describe() if self.thread else "no thread"
        return (
            f"state={self._state.value} pc={self.pc} "
            f"outstanding_writes={self._outstanding_writes} [{t}]"
        )

