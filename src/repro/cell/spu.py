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
from repro.core.lse import LSE
from repro.core.messages import ReadRequest, WriteRequest
from repro.core.thread import ThreadInstance, ThreadState
from repro.isa.decoded import (
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
)
from repro.sim.component import Component
from repro.sim.config import MachineConfig, SPUConfig
from repro.sim.stats import Bucket, SpuStats

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.local_store import LocalStore

__all__ = ["SPU", "SpuFault"]


class SpuFault(RuntimeError):
    """A program did something architecturally illegal on the SPU."""


class _State(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    TIMED = "timed"  # stalled until a known cycle (scoreboard, DMAGET, ...)
    EXTERNAL = "external"  # stalled until another component unblocks us


#: Most cycles one tick issues ahead of the engine before it returns to
#: it, so a loop that never exits still reaches ``max_cycles``.
_WINDOW_CYCLES = 4096

#: Scheduler ops: each is one request to the LSE.
_LSE_OPS = frozenset({"STORE", "FALLOC", "STOP", "FFREE", "LSALLOC"})


class SPU(Component):
    """One synergistic processing unit."""

    priority = 60  # tick after buses/memories/schedulers each cycle

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
        #: Pending register writes: register -> (ready cycle, the stall
        #: bucket of the unit that writes it: Local Store or pipeline).
        self._scoreboard: dict[int, tuple[int, str]] = {}
        self._pf_end = 0
        #: The running thread's DecodedProgram (None when idle).
        self._dec = None
        self._regs_zero = [0] * config.num_registers
        # Pipeline control.
        self._state = _State.IDLE
        self._stall_start = 0
        self._stall_bucket = Bucket.WORKING
        self._timed_until = 0
        #: The :meth:`MFC.enqueue` arguments of a DMA command the pipeline
        #: programs when its timed wait expires, retried every cycle while
        #: the MFC queue is full (the retry accrues in the same stall
        #: bucket); a plain tuple, so the pipeline pickles.
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

    def wire(self, lse, mfc, bus, memory, cache=None, injector=None,
             sanitizer=None) -> None:
        self._lse = lse
        self._mfc = mfc
        self._bus = bus
        self._memory = memory
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
        """LSE / memory: the value a blocked instruction was waiting for
        (a READ's datum, a FALLOC's handle, an LSALLOC's address)."""
        if self._state is not _State.EXTERNAL or self._ext_kind != "value":
            raise SpuFault(f"{self.name}: spurious unblock({value})")
        rd = self._ext_rd
        assert rd is not None
        self.regs[rd] = value
        self._resume()

    def lse_queue_drained(self) -> None:
        """LSE: space opened in its SPU-side request queue."""
        if self._state is _State.EXTERNAL and self._ext_kind == "lse_queue":
            self._resume()

    def write_ack(self) -> None:
        """Memory: a posted WRITE was accepted (store-queue credit)."""
        if self._outstanding_writes <= 0:
            raise SpuFault(f"{self.name}: write credit underflow")
        self._outstanding_writes -= 1
        if self._state is _State.EXTERNAL and self._ext_kind == "write_credit":
            self._resume()

    def dma_waiter_resume(self) -> None:
        """LSE: the DMAWAIT tag group completed."""
        if self._state is not _State.EXTERNAL or self._ext_kind != "dmawait":
            raise SpuFault(f"{self.name}: spurious DMA-wait resume")
        self._resume()

    def _resume(self) -> None:
        """End an external wait: charge the stall through the resume tick,
        which runs next cycle (what :meth:`_account` does, inline), and
        wake the pipeline."""
        engine = self._engine
        now = engine._now
        cycles = now + 1 - self._stall_start
        if cycles > 0:
            bucket = self._stall_bucket
            stats = self.stats
            stats.breakdown.__dict__[bucket] += cycles
            if self.thread is not None:
                stats.template_cycles[self.thread.program.name] += cycles
            if self._m_buckets is not None:
                self._m_buckets[bucket].add(now, cycles)
        self._state = _State.RUNNING
        self._ext_kind = None
        self._ext_rd = None
        engine.schedule(self)

    # -- blocking helpers ----------------------------------------------------------

    def _block_timed(
        self, until: int, bucket: str, action: tuple | None = None
    ) -> None:
        self._state = _State.TIMED
        self._stall_start = self._engine._now
        self._stall_bucket = bucket
        self._timed_until = until
        self._timed_action = action
        self._engine.schedule(self, until)

    def _block_external(self, kind: str, bucket: str, rd: int | None = None) -> None:
        self._state = _State.EXTERNAL
        self._stall_start = self._engine._now
        self._stall_bucket = bucket
        self._ext_kind = kind
        self._ext_rd = rd

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
                if not self._mfc.enqueue(*action):
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
        program = thread.program
        self._dec = program.decoded
        pf_end = self._pf_end = program.pf_end
        pf = pf_end > 0 and not thread.prefetch_done
        if pf:
            self.pc = 0
            thread.transition(ThreadState.PROGRAM_DMA)
        else:
            self.pc = pf_end
            thread.transition(ThreadState.EXECUTING)
        if self._sanitizer is not None:
            self._sanitizer.thread_started(self.name, thread.tid)
        self.stats.threads_executed += 1
        if self._tracer is not None:
            self._tracer.emit(
                now, self.name, "dispatch", tid=thread.tid,
                template=program.name, resumed=thread.prefetch_done, pf=pf,
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
        """Issue cycles from ``now`` on; returns the next tick cycle.

        Each pass of the loop is one cycle: up to one MEM-slot and one
        ALU-slot instruction, in program order, read from the
        pre-resolved :mod:`repro.isa.decoded` rows.  Every row executes
        inline: a scheduler op is one :meth:`LSE.request`, and a DMAGET,
        DMAGETS or DMAPUT waits out the MFC's command latency and then
        programs the MFC.

        The first cycle is the engine's.  The loop then **runs ahead**:
        it goes on to the next cycle in the same tick while that cycle
        issues only ALU ops, branches and Local Store ops that no other
        component can see or change first.  A Local Store op qualifies
        while this SPE's MFC has nothing queued or in flight, the LSE's
        XP pipeline is off and no data-fault plan checks LOADs, if it
        leaves one LS port free for the LSE and, for LLOAD and LSTORE,
        addresses the prefetch region.  A cycle that could issue anything
        else goes back to the engine whole, as does an open PF block and
        the cycle ``_WINDOW_CYCLES`` after ``now``.  A scoreboard stall
        advances ``now`` in place.  docs/PERFORMANCE.md gives the
        argument.

        Stats and hub credits are summed in locals.  The stats get the
        tick's sums when it ends.  An attached hub gets what a tick per
        cycle would give it (each issue cycle at its cycle, each stall at
        its resume cycle, each branch penalty at its branch's cycle),
        summed per hub bucket: the sums are added when a credit reaches
        the next hub bucket and when the tick ends (see :meth:`_hub_span`).
        """
        thread = self.thread
        assert thread is not None
        rows = self._dec.rows
        pc = self.pc
        pf_end = self._pf_end
        open_pf = pf_end and not thread.prefetch_done
        if pc == pf_end and open_pf:
            # PF-block boundary: yield the pipeline if DMA is outstanding.
            if self._lse.thread_wait_dma(thread):
                self._trace("yield-dma", tid=thread.tid,
                            tags=sorted(thread.pending_tags))
                self._detach()
                if not self._try_dispatch(now):
                    return None
                return now + 1 if self._state is _State.RUNNING else None
            thread.transition(ThreadState.EXECUTING)
            open_pf = False
        # Instructions issued in a cycle belong to the block the pc sat in
        # when the cycle began; inside an open PF block that is one cycle.
        if open_pf and pc < pf_end:
            bucket = Bucket.PREFETCH
            stop = now + 1
        else:
            bucket = Bucket.WORKING
            stop = now + _WINDOW_CYCLES
        start = now
        ls_ahead = None  # may Local Store ops run ahead? Decided once.
        regs = self.regs
        sb = self._scoreboard
        by_opcode = self.stats.mix.by_opcode
        branch_penalty = self.config.branch_taken_penalty
        ls = self.ls
        lse = self._lse
        issue_cycles = 0
        dual_cycles = 0
        wait_cycles = 0  # branch penalties and stalls charged to `bucket`
        ls_wait_cycles = 0  # stalls charged to the Local Store bucket
        observed = self._m_issue is not None
        if observed:
            # The hub sums of the hub bucket that ends at `edge`.
            hub_width = self._m_issue.bucket_cycles
            edge = (now // hub_width + 1) * hub_width
            h_issue = h_wait = h_ls_wait = 0
            span_start = now  # first issue cycle not yet in h_issue
        while True:
            row = rows[pc]
            # Scoreboard scan (ra, rb, rd order); expired entries go.  A
            # first issue that must wait stalls the pipeline in place.
            worst_ready = 0
            stall = None
            for r in row[D_HAZ]:
                e = sb.get(r)
                if e is not None:
                    if e[0] <= now:
                        del sb[r]
                    elif e[0] > worst_ready:
                        worst_ready, stall = e
            if stall is not None:
                cycles = worst_ready - now
                # A Local Store stall has its own bucket, except in a PF
                # block, where every stall is Prefetching time.
                ls_wait = (
                    bucket is Bucket.WORKING and stall == Bucket.LS_STALL
                )
                if ls_wait:
                    ls_wait_cycles += cycles
                else:
                    wait_cycles += cycles
                if observed:
                    # The hub sees the stall at its resume cycle.
                    if worst_ready >= edge:
                        edge, h_issue, h_wait, h_ls_wait = self._hub_span(
                            span_start, now, worst_ready, edge, bucket,
                            h_issue, h_wait, h_ls_wait,
                        )
                    else:
                        h_issue += now - span_start
                    if ls_wait:
                        h_ls_wait += cycles
                    else:
                        h_wait += cycles
                    span_start = worst_ready
                now = worst_ready
                if now >= stop:
                    break
                continue
            kind = row[D_KIND]
            if kind == K_ALU and row[D_SOLO]:
                # An ALU op alone in its cycle: the tight path.
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
                        sb[rd] = (now + lat, Bucket.WORKING)
                by_opcode[row[D_NAME]] += 1
                pc += 1
                issue_cycles += 1
                now += 1
                if now >= stop:
                    break
                continue
            issued = 0
            penalty = 0
            if kind == K_BRANCH:
                # A branch first in its cycle: alone if taken or if its
                # next row needs the ALU slot too.  Register values are
                # final at issue; the scoreboard only times them.
                ar = row[D_AREG]
                a = regs[ar] if ar is not None else row[D_AVAL]
                br = row[D_BREG]
                b = regs[br] if br is not None else row[D_BVAL]
                if row[D_FN](a, b):
                    by_opcode[row[D_NAME]] += 1
                    issued = 1
                    pc = row[D_TARGET]
                    penalty = branch_penalty
                elif row[D_SOLO]:
                    by_opcode[row[D_NAME]] += 1
                    issued = 1
                    pc += 1
            if not issued:
                if now > start:
                    # The engine has not reached this cycle.  Its MEM-slot
                    # op, if any, is the row itself or, after an ALU op or
                    # a not-taken branch, the next row.  A memory,
                    # scheduler or DMA op there, or a Local Store op that
                    # another component could see or change first, hands
                    # the whole cycle back to the engine.
                    mem = row if kind >= K_LS else rows[pc + 1]
                    if mem[D_KIND] == K_STRUCT:
                        break
                    if ls_ahead is None:
                        # While the MFC is idle only the LSE can touch
                        # the Local Store before this SPU does, and
                        # only this SPU's DMA ops (issued in the
                        # engine's cycle) or the XP pipeline can feed
                        # the MFC.
                        ls_ahead = not (
                            self._check_loads
                            or self._lse.config.dual_pipelines
                            or self._mfc.outstanding_commands
                        )
                    if not ls_ahead:
                        break
                    if ls.ports_booked(now) + 1 >= ls.config.ports:
                        break  # the LSE may book one more this cycle
                    name = mem[D_NAME]
                    if name == "LLOAD" or name == "LSTORE":
                        ar = mem[D_AREG]
                        if ar is None:
                            base = mem[D_AVAL]
                        elif mem is not row and ar == row[D_RD]:
                            # A latency-1 ALU op pairs with the LLOAD
                            # or LSTORE that reads its result.
                            xr, yr = row[D_AREG], row[D_BREG]
                            base = row[D_FN](
                                regs[xr] if xr is not None
                                else row[D_AVAL],
                                regs[yr] if yr is not None
                                else row[D_BVAL],
                            )
                        else:
                            base = regs[ar]
                        if base + mem[D_IMM] < ls.config.frame_region:
                            break  # frame memory: the LSE writes there
                mem_used = False
                alu_used = False
                while True:
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
                                sb[rd] = (now + lat, Bucket.WORKING)
                        pc += 1
                        alu_used = True
                    elif kind == K_BRANCH:
                        ar = row[D_AREG]
                        a = regs[ar] if ar is not None else row[D_AVAL]
                        br = row[D_BREG]
                        b = regs[br] if br is not None else row[D_BVAL]
                        alu_used = True
                        if row[D_FN](a, b):
                            by_opcode[row[D_NAME]] += 1
                            issued += 1
                            pc = row[D_TARGET]
                            penalty = branch_penalty
                            break  # nothing issues past a taken branch
                        pc += 1
                    elif kind == K_LS:
                        # Local Store (frame + prefetched data): one LS
                        # port each.
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
                                # The word was poisoned by a corrupted
                                # producer store; the LSE scrubbed it and
                                # squashed the thread for re-execution
                                # before anything was consumed.  The
                                # aborted LOAD is not counted as issued.
                                return self._next_thread(issued, now, bucket)
                            regs[rd] = ls.read_word(addr)
                            sb[rd] = (now + ls.config.latency, Bucket.LS_STALL)
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
                        mem_used = True
                    elif row[D_NAME] in _LSE_OPS:
                        # Scheduler ops, like memory and DMA ops, issue
                        # only in the engine's cycle: one request each to
                        # the LSE, which refuses it while its queue is full.
                        name = row[D_NAME]
                        ar = row[D_AREG]
                        a = regs[ar] if ar is not None else row[D_AVAL]
                        if name == "STORE":
                            br = row[D_BREG]
                            accepted = lse.request(LSE.store, (
                                a, row[D_IMM],
                                regs[br] if br is not None else row[D_BVAL],
                            ))
                        elif name == "FALLOC":
                            accepted = lse.request(LSE.falloc, (row[D_IMM], a))
                        elif name == "STOP":
                            accepted = lse.request(LSE.stop, (thread,))
                        elif name == "FFREE":
                            accepted = lse.request(LSE.ffree, (a,))
                        else:  # LSALLOC
                            accepted = lse.request(LSE.lsalloc, (thread, row[D_IMM]))
                        if not accepted:
                            if issued:
                                break  # retry next cycle
                            self.pc = pc
                            self._block_external(
                                "lse_queue", self._bucket(Bucket.LSE_STALL)
                            )
                            return None
                        pc += 1
                        if name == "STORE" or name == "FFREE":
                            thread.side_effects = True
                            mem_used = True
                        else:
                            by_opcode[name] += 1
                            if name == "STOP":
                                if self._tracer is not None:
                                    self._tracer.emit(now, self.name, "thread-stop",
                                                      tid=thread.tid)
                                return self._next_thread(issued + 1, now, bucket)
                            # FALLOC or LSALLOC: wait for the frame handle
                            # or the buffer address.
                            if name == "FALLOC":
                                thread.side_effects = True
                            self.pc = pc
                            self._block_external(
                                "value", self._bucket(Bucket.LSE_STALL),
                                rd=row[D_RD],
                            )
                            self._charge_issue(issued + 1, now, bucket)
                            self._stall_start = now + 1
                            return None
                    elif row[D_NAME] == "READ":
                        # Memory ops, like scheduler and DMA ops, issue
                        # only in the engine's cycle.  A READ blocks the
                        # pipeline until its datum returns over the bus
                        # (SPE.deliver -> unblock).
                        ar = row[D_AREG]
                        addr = (
                            regs[ar] if ar is not None else row[D_AVAL]
                        ) + row[D_IMM]
                        pc += 1
                        self.pc = pc
                        self._state = _State.EXTERNAL
                        self._stall_bucket = (
                            Bucket.PREFETCH if open_pf and pc < pf_end
                            else Bucket.MEM_STALL
                        )
                        self._ext_kind = "value"
                        self._ext_rd = row[D_RD]
                        if self._cache is not None:
                            # The cache answers hits after its own latency
                            # and fills whole lines on misses; either way
                            # it unblocks us.
                            self._cache.read(addr, on_value=self.unblock)
                        else:
                            self._bus.send(
                                self._memory,
                                ReadRequest(addr=addr, reply_key=0,
                                            requester_spe=self.spe_id),
                            )
                        by_opcode["READ"] += 1
                        self._charge_issue(issued + 1, now, bucket)
                        self._stall_start = now + 1
                        return None
                    elif row[D_NAME] == "WRITE":
                        # A posted WRITE takes a store-queue credit; with
                        # none free it waits for a WriteAck.
                        if self._outstanding_writes >= self.config.store_queue_size:
                            if issued:
                                break  # retry next cycle
                            self.pc = pc
                            self._block_external(
                                "write_credit", self._bucket(Bucket.MEM_STALL)
                            )
                            return None
                        ar = row[D_AREG]
                        addr = (
                            regs[ar] if ar is not None else row[D_AVAL]
                        ) + row[D_IMM]
                        br = row[D_BREG]
                        value = regs[br] if br is not None else row[D_BVAL]
                        thread.side_effects = True
                        self._outstanding_writes += 1
                        if self._cache is not None:
                            self._cache.write(addr, value)  # write-through
                        self._bus.send(
                            self._memory,
                            WriteRequest(addr=addr, value=value,
                                         requester_spe=self.spe_id),
                        )
                        pc += 1
                        mem_used = True
                    elif row[D_NAME] == "DMAWAIT":
                        # DMA ops, like memory and scheduler ops, issue only
                        # in the engine's cycle.  A DMAWAIT blocks while its
                        # tag group is in flight (until dma_waiter_resume).
                        pc += 1
                        if lse.tag_outstanding(thread.tid, row[D_TAG]):
                            lse.register_dma_waiter(
                                thread.tid, row[D_TAG], self.dma_waiter_resume
                            )
                            self.pc = pc
                            self._block_external(
                                "dmawait", self._bucket(Bucket.MEM_STALL)
                            )
                            by_opcode["DMAWAIT"] += 1
                            self._charge_issue(issued + 1, now, bucket)
                            self._stall_start = now + 1
                            return None
                        mem_used = True
                    else:
                        # DMAGET, DMAGETS, DMAPUT: the pipeline pays the
                        # MFC's command latency (Prefetching time in any
                        # block), then tick programs the MFC.
                        name = row[D_NAME]
                        if name == "DMAPUT" or pc >= pf_end:
                            # PUTs mutate main memory; EX-block GETs may
                            # observe it mid-run.  Either way the thread is
                            # no longer replayable for data-fault recovery.
                            thread.side_effects = True
                        ar, br, stride = row[D_AREG], row[D_BREG], row[D_STRIDE]
                        pc += 1
                        self.pc = pc
                        self._block_timed(
                            now + self.machine_config.mfc.command_latency,
                            Bucket.PREFETCH,
                            (DmaKind.PUT if name == "DMAPUT" else DmaKind.GET,
                             regs[ar] if ar is not None else row[D_AVAL],
                             regs[br] if br is not None else row[D_BVAL],
                             # A gather's imm counts words; None: contiguous.
                             4 * row[D_IMM] if stride else row[D_IMM],
                             row[D_TAG], thread.tid, stride or 4),
                        )
                        by_opcode[name] += 1
                        self._charge_issue(issued + 1, now, bucket)
                        self._stall_start = now + 1
                        return self._timed_until
                    by_opcode[row[D_NAME]] += 1
                    issued += 1
                    if issued == 2 or (pc == pf_end and open_pf):
                        break
                    # The next row issues in this cycle too if its slot is
                    # free and no register it names has a pending write.
                    row = rows[pc]
                    if mem_used if row[D_MEM] else alu_used:
                        break
                    for r in row[D_HAZ]:
                        e = sb.get(r)
                        if e is not None and e[0] > now:
                            break
                    else:
                        kind = row[D_KIND]
                        continue
                    break
            # The cycle issued: credit it, then go on to the next.
            issue_cycles += 1
            if issued > 1:
                dual_cycles += 1
            if penalty:
                wait_cycles += penalty
                if observed:
                    # The hub sees the penalty at its branch's cycle.
                    if now >= edge:
                        edge, h_issue, h_wait, h_ls_wait = self._hub_span(
                            span_start, now + 1, now, edge, bucket,
                            h_issue, h_wait, h_ls_wait,
                        )
                    else:
                        h_issue += now + 1 - span_start
                    h_wait += penalty
                    span_start = now + 1 + penalty
                now += 1 + penalty
            else:
                now += 1
            if now >= stop or (open_pf and pc <= pf_end):
                break
        # Every tick that gets here issued or stalled.
        self.pc = pc
        stats = self.stats
        stats.issue_cycles += issue_cycles
        stats.dual_issue_cycles += dual_cycles
        cycles = issue_cycles + wait_cycles
        breakdown = stats.breakdown.__dict__
        breakdown[bucket] += cycles
        if ls_wait_cycles:
            breakdown[Bucket.LS_STALL] += ls_wait_cycles
            cycles += ls_wait_cycles
        stats.template_cycles[thread.program.name] += cycles
        if observed:
            if now > edge:
                edge, h_issue, h_wait, h_ls_wait = self._hub_span(
                    span_start, now, now - 1, edge, bucket,
                    h_issue, h_wait, h_ls_wait,
                )
            else:
                h_issue += now - span_start
            self._hub_add(edge - 1, bucket, h_issue, h_wait, h_ls_wait)
            # Counter.add, inline: this runs once per tick.
            self._m_issue_cycles.value += issue_cycles
            self._m_dual_issue.value += dual_cycles
        return now

    def _next_thread(self, issued: int, now: int, bucket: str) -> int | None:
        """The thread left the pipeline (STOP, or a squash): charge the
        issue cycle and dispatch the next ready thread."""
        self._detach()
        self._charge_issue(issued, now, bucket)
        if not self._try_dispatch(now):
            return None
        if self._state is _State.TIMED:
            # The issue cycle is already charged; the dispatch stall
            # starts next cycle.
            self._stall_start = now + 1
            return self._timed_until
        return now + 1

    def _charge_issue(self, issued: int, now: int, bucket: str) -> None:
        """Charge cycle ``now`` of a tick that ends inside it (a blocking
        op, STOP or a squash; no branch can be taken before those)."""
        if issued:
            self.stats.issue_cycles += 1
            if issued >= 2:
                self.stats.dual_issue_cycles += 1
            if self._m_issue is not None:
                self._m_issue.add(now, 1)
                self._m_issue_cycles.add()
                if issued >= 2:
                    self._m_dual_issue.add()
            self._account(bucket, 1, now)

    def _hub_span(
        self, start: int, end: int, reach: int, edge: int, bucket: str,
        issue: int, wait: int, ls_wait: int,
    ) -> tuple[int, int, int, int]:
        """Add an issue tick's hub sums (see :meth:`_hub_add`) of the hub
        bucket ending at ``edge`` and start those of the later bucket that
        holds cycle ``reach``, with the issue cycles ``[start, end)`` (not
        before ``edge``'s bucket, not after ``reach``): those before
        ``reach``'s bucket go in as spans.  Returns the new ``(edge,
        issue, wait, ls_wait)``."""
        self._hub_add(edge - 1, bucket, issue, wait, ls_wait)
        width = self._m_issue.bucket_cycles
        edge = (reach // width + 1) * width
        cut = min(end, edge - width)
        if start < cut:
            self._m_issue.add_span(start, cut)
            self._m_buckets[bucket].add_span(start, cut)
            start = cut
        return edge, end - start, 0, 0

    def _hub_add(
        self, cycle: int, bucket: str, issue: int, wait: int, ls_wait: int
    ) -> None:
        """Add an issue tick's hub sums at ``cycle``: ``issue`` cycles,
        which ``bucket`` gets too, ``wait`` more cycles of ``bucket`` and
        ``ls_wait`` cycles of Local Store stall."""
        if issue:
            self._m_issue.add(cycle, issue)
        if issue or wait:
            self._m_buckets[bucket].add(cycle, issue + wait)
        if ls_wait:
            self._m_buckets[Bucket.LS_STALL].add(cycle, ls_wait)

    # -- diagnostics -----------------------------------------------------------------------------

    def describe_state(self) -> str:
        t = self.thread.describe() if self.thread else "no thread"
        return (
            f"state={self._state.value} pc={self.pc} "
            f"outstanding_writes={self._outstanding_writes} [{t}]"
        )

