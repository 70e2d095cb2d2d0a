"""Local Scheduler Element.

One LSE sits in every SPE (paper Sec. 2): it manages the local frame
table, tracks each local thread's Synchronization Counter, keeps the ready
queue, forwards resource requests to the node's DSE, and — new in this
paper — tracks outstanding DMA tag groups so a thread in the
*Wait-for-DMA* state is re-readied by the standard SC mechanism when its
prefetch completes.

The LSE processes one request per ``request_latency`` cycles from a FIFO
that merges pipeline-side requests (STORE, FALLOC, LSALLOC, STOP, FFREE)
with network messages (remote stores, AllocFrame from the DSE, FALLOC
responses, remote FFREEs).  Each entry holds the handler that serves it
and the handler's arguments: the SPU queues a request through
:meth:`LSE.request`, naming a request handler (:meth:`LSE.store`,
:meth:`LSE.falloc`, ...), and :meth:`LSE.deliver` maps a message to its
handler by the message's exact type.  The pipeline-side queue is
bounded: a full queue back-pressures the SPU, which is where bitcnt's
"LSE stalls" come from ("this benchmark is forking a vast amount of
threads in a small amount of time and the LSE can't keep up").

Two optional features model the paper's discussion:

* ``virtual_frame_pointers`` (ablation A3) — FALLOC succeeds even when no
  physical frame is free; the returned handle names a *virtual* frame
  whose stores are buffered until a physical frame binds.
* ``dual_pipelines`` (ablation A2) — the LSE's XP pipeline executes PF
  code blocks itself, so DMA programming overlaps thread execution and
  the SPU never pays the prefetch overhead.
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import asdict, dataclass

from repro.cell.local_store import AllocationError, LocalStore, LSAllocator
from repro.cell.mfc import DmaKind
from repro.core.frame import HANDLE_ADDR_BITS, Frame, pack_handle, unpack_handle
from repro.faults.integrity import (
    WORD_BITS,
    DataCorruptionError,
    store_corrected,
    store_syndrome,
)
from repro.core.messages import (
    AllocFrame,
    FallocRequest,
    FallocResponse,
    FFreeMsg,
    FrameFreed,
    Message,
    StoreMsg,
)
from repro.core.thread import ThreadInstance, ThreadState
from repro.isa.opcodes import Op
from repro.isa.program import BlockKind
from repro.isa.semantics import alu_result
from repro.sim.component import Component
from repro.sim.config import LSEConfig, MachineConfig
from repro.sim.engine import Callback, register_callback
from repro.sim.stats import SchedulerStats

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.machine import Machine

__all__ = ["LSE", "SchedulerError"]

#: Virtual frame handles use LS addresses above this base (beyond any
#: physical LS) so they can never collide with physical frame addresses.
VIRTUAL_BASE = 1 << 19


class SchedulerError(RuntimeError):
    """A protocol violation inside the distributed scheduler."""


@dataclass(slots=True)
class _PendingAlloc:
    """An AllocFrame that found no free frame (non-virtual mode)."""

    msg: AllocFrame
    arrived: int


class LSE(Component):
    """The per-SPE scheduler element."""

    priority = 40

    #: Pipeline-side request queue bound (requests from this SPE's SPU).
    SPU_QUEUE_CAPACITY = 16

    def __init__(
        self,
        name: str,
        spe_id: int,
        config: LSEConfig,
        machine_config: MachineConfig,
        local_store: LocalStore,
        stats: SchedulerStats | None = None,
    ) -> None:
        super().__init__(name)
        self.spe_id = spe_id
        self.config = config
        self.machine_config = machine_config
        self.ls = local_store
        self.stats = stats if stats is not None else SchedulerStats()
        # Frame table occupies the front of the LS frame region.
        self.frames = [
            Frame(addr=i * config.frame_size_bytes, size_words=config.frame_size_words)
            for i in range(config.num_frames)
        ]
        self._free_frames: deque[Frame] = deque(self.frames)
        self._frame_by_addr = {f.addr: f for f in self.frames}
        self.allocator = LSAllocator(
            base=machine_config.local_store.frame_region,
            size=machine_config.local_store.prefetch_region,
        )
        # Thread bookkeeping.
        self.threads: dict[int, ThreadInstance] = {}  # tid -> instance
        self._thread_by_frame: dict[int, ThreadInstance] = {}  # frame addr -> thr
        self._virtual: dict[int, ThreadInstance] = {}  # virtual addr -> thread
        self._virtual_stores: dict[int, dict[int, int]] = {}  # vaddr -> pending
        self._virtual_redirect: dict[int, int] = {}  # bound vaddr -> frame
        self._next_virtual = VIRTUAL_BASE
        self._ready: deque[ThreadInstance] = deque()
        self._pending_allocs: deque[_PendingAlloc] = deque()
        # DMA tag tracking: (tid, tag) -> outstanding command count.
        self._dma_outstanding: dict[tuple[int, int], int] = {}
        self._dma_waiters: dict[tuple[int, int], object] = {}  # DMAWAIT resumes
        # Request pipeline: (handler, args, from_spu) entries.
        self._queue: deque[tuple] = deque()
        self._spu_queue_len = 0
        #: True once a request found the SPU-side queue full, until the
        #: next SPU-side request is served and tells the SPU.
        self._spu_waits = False
        # LSALLOC requests that could not be satisfied yet.
        self._waiting_lsallocs: deque[tuple[ThreadInstance, int]] = deque()
        # Wiring (set by the SPE / machine).
        self._bus = None
        self._dse = None
        self._spu = None
        self._mfc = None
        self._endpoint = None
        self._machine: "Machine | None" = None
        self._falloc_seq = 0
        self._sanitizer = None  # optional Sanitizer
        self._injector = None  # optional FaultInjector
        # Data-fault recovery state: LS word address -> ECC-corrected
        # value for frame words a corrupted StoreMsg committed (scrubbed
        # at first read), plus the same for stores buffered in virtual
        # frames (keyed (vaddr, slot); remapped when the frame binds).
        self._poison: dict[int, int] = {}
        self._virtual_poison: dict[tuple[int, int], int] = {}
        #: Threads whose squash must wait for their in-flight DMA to drain.
        self._squash_pending: set[int] = set()
        # Hub instruments (bound in _bind_metrics; None = observability off).
        #: By ``ThreadState._value_``: Enum hash and ``value`` are Python code.
        self._m_transitions: dict[str, object] | None = None
        self._m_fallocs = None
        self._m_falloc_waits = None
        self._m_reexecs = None

    def _bind_metrics(self, hub) -> None:
        self._m_transitions = {
            state._value_: hub.counter(f"threads.to_{state.value}")
            for state in ThreadState
        }
        self._m_fallocs = hub.counter(f"lse{self.spe_id}.fallocs")
        self._m_falloc_waits = hub.counter(f"lse{self.spe_id}.falloc_waits")
        self._m_reexecs = hub.counter(f"lse{self.spe_id}.reexecs")

    def _observe_transition(self, thread, old, new) -> None:
        self._m_transitions[new._value_].add()

    def wire(self, bus, dse, spu, mfc, endpoint, machine,
             sanitizer=None, injector=None) -> None:
        self._bus = bus
        self._dse = dse
        self._spu = spu
        self._mfc = mfc
        self._endpoint = endpoint
        self._machine = machine
        self._sanitizer = sanitizer
        self._injector = injector

    # -- request queue ------------------------------------------------------

    def request(self, handler, args: tuple) -> bool:
        """Queue a request from this SPE's SPU.

        ``handler`` is one of the request handlers (:meth:`store`,
        :meth:`falloc`, :meth:`lsalloc`, :meth:`stop`, :meth:`ffree`);
        :meth:`tick` serves it as ``handler(self, now, *args)``.  Returns
        False, and queues nothing, while the SPU-side queue is full; the
        SPU then learns of free space through
        :meth:`SPU.lse_queue_drained`.
        """
        if self._spu_queue_len >= self.SPU_QUEUE_CAPACITY:
            self._spu_waits = True
            return False
        self._spu_queue_len += 1
        self._queue.append((handler, args, True))
        self._engine.schedule(self)
        return True

    def deliver(self, msg: Message) -> None:
        """Network entry point (via the SPE bus endpoint)."""
        handler = _MESSAGE_HANDLERS.get(type(msg))
        if handler is None:
            raise SchedulerError(
                f"{self.name}: unexpected message {type(msg).__name__}"
            )
        self._queue.append((handler, (msg,), False))
        # Engine.schedule would return at once for a tick due by next cycle.
        engine = self._engine
        at = self._scheduled_at
        if at is None or at > engine._now + 1:
            engine.schedule(self)

    # MFC notifications (same SPE; no bus hop).

    def dma_command_issued(self, tid: int, tag: int) -> None:
        key = (tid, tag)
        self._dma_outstanding[key] = self._dma_outstanding.get(key, 0) + 1
        thread = self.threads.get(tid)
        if thread is None:
            raise SchedulerError(f"{self.name}: DMA issued for unknown thread {tid}")
        thread.pending_tags.add(tag)

    def dma_command_done(self, tid: int, tag: int) -> None:
        key = (tid, tag)
        left = self._dma_outstanding.get(key, 0) - 1
        if left < 0:
            raise SchedulerError(
                f"{self.name}: DMA completion underflow for thread {tid} tag {tag}"
            )
        if left:
            self._dma_outstanding[key] = left
            return
        self._dma_outstanding.pop(key, None)
        self._trace("dma-tag-done", tid=tid, tag=tag)
        thread = self.threads.get(tid)
        if thread is None:
            return  # thread already finished (PUT write-back after STOP)
        thread.pending_tags.discard(tag)
        waiter = self._dma_waiters.pop(key, None)
        if waiter is not None:
            waiter()  # resume a DMAWAIT-blocked SPU
        if (self._squash_pending and tid in self._squash_pending
                and thread.state is ThreadState.WAIT_DMA
                and not thread.pending_tags
                and not any(k[0] == tid for k in self._dma_outstanding)):
            # A corrupt transfer earlier in this thread's tag groups
            # deferred its squash until the rest of its DMA drained.
            self._squash_pending.discard(tid)
            self._squash_thread(thread, cause="dma-transfer", restart_pf=True)
            return
        if thread.state is ThreadState.WAIT_DMA and not thread.pending_tags:
            thread.transition(ThreadState.READY)
            self._make_ready(thread, resumed=True)

    def tag_outstanding(self, tid: int, tag: int) -> bool:
        return self._dma_outstanding.get((tid, tag), 0) > 0

    def register_dma_waiter(self, tid: int, tag: int, resume) -> None:
        key = (tid, tag)
        if key in self._dma_waiters:
            raise SchedulerError(f"{self.name}: duplicate DMAWAIT on {key}")
        self._dma_waiters[key] = resume

    # -- data-fault recovery ----------------------------------------------------

    def _corruption_error(self, kind: str, tid, detail: str,
                          tag=None, command_id=None) -> DataCorruptionError:
        stats = None
        if self._injector is not None:
            stats = asdict(self._injector.stats)
        return DataCorruptionError(
            kind=kind, site=self.name, spe_id=self.spe_id, tid=tid,
            tag=tag, command_id=command_id, detail=detail, fault_stats=stats,
        )

    def transfer_corrupt(self, cmd) -> None:
        """A GET transfer failed verification and its re-fetch budget is gone.

        The MFC has cancelled the command; retire its tag-group slot
        without resuming any waiter, then squash the owning thread for
        re-execution — or raise :class:`DataCorruptionError` when the
        thread can no longer be replayed safely.
        """
        tid, tag = cmd.tid, cmd.tag
        key = (tid, tag)
        left = self._dma_outstanding.get(key, 0) - 1
        if left < 0:
            raise SchedulerError(
                f"{self.name}: corrupt-transfer underflow for thread {tid} "
                f"tag {tag}"
            )
        if left:
            self._dma_outstanding[key] = left
        else:
            self._dma_outstanding.pop(key, None)
        thread = self.threads.get(tid)
        if thread is None:
            raise self._corruption_error(
                "dma-transfer", tid, "owning thread has already finished",
                tag=tag, command_id=cmd.command_id,
            )
        if not left:
            thread.pending_tags.discard(tag)
        if key in self._dma_waiters:
            raise self._corruption_error(
                "dma-transfer", tid,
                "a DMAWAIT is already blocked on the corrupt tag group",
                tag=tag, command_id=cmd.command_id,
            )
        if thread.side_effects:
            raise self._corruption_error(
                "dma-transfer", tid,
                "thread has committed side effects and cannot be replayed",
                tag=tag, command_id=cmd.command_id,
            )
        if thread.state is ThreadState.PROGRAM_DMA:
            # The thread may still be live on the SPU mid-PF; squashing
            # now would double-dispatch it.  thread_wait_dma (or the
            # last dma_command_done) completes the squash.
            self._squash_pending.add(tid)
            return
        if thread.state is not ThreadState.WAIT_DMA:
            raise self._corruption_error(
                "dma-transfer", tid,
                f"thread in unreplayable state {thread.state.value}",
                tag=tag, command_id=cmd.command_id,
            )
        if thread.pending_tags or any(
            k[0] == tid for k in self._dma_outstanding
        ):
            self._squash_pending.add(tid)  # drain the rest first
            return
        self._squash_thread(thread, cause="dma-transfer", restart_pf=True)

    def _squash_thread(self, thread: ThreadInstance, cause: str,
                       restart_pf: bool) -> None:
        """Re-enqueue a thread for re-execution, frame and SC intact.

        ``restart_pf`` additionally frees the thread's prefetch buffers
        and clears ``prefetch_done`` so the PF block (and its DMA) runs
        again from scratch.
        """
        inj = self._injector
        assert inj is not None
        if thread.reexecs >= inj.plan.data_max_reexecs:
            raise self._corruption_error(
                cause, thread.tid,
                f"re-execution budget exhausted after {thread.reexecs} "
                f"attempt(s)",
            )
        thread.reexecs += 1
        inj.stats.thread_reexecs += 1
        if self._m_reexecs is not None:
            self._m_reexecs.add()
        if restart_pf:
            for addr, size in thread.ls_buffers:
                self.allocator.free(addr, size)
            thread.ls_buffers.clear()
            self._retry_lsallocs()
            thread.prefetch_done = False
        self._trace("thread-reexec", tid=thread.tid,
                    attempt=thread.reexecs, cause=cause)
        thread.transition(ThreadState.READY)
        self._make_ready(thread, resumed=True)

    def check_poisoned_load(self, thread: ThreadInstance, addr: int) -> bool:
        """A LOAD is about to read LS word ``addr``.

        Returns True when the SPU must abort the instruction because the
        issuing thread was squashed for re-execution.  In every case the
        poisoned word (and, on a squash, every other poisoned word of
        the thread's frame) is scrubbed with its ECC-corrected value
        first, so corrupted data is never consumed.
        """
        corrected = self._poison.pop(addr, None)
        if corrected is None:
            return False
        inj = self._injector
        assert inj is not None
        self.ls.write_word(addr, corrected)
        inj.stats.frame_scrubs += 1
        self._trace("frame-scrub", tid=thread.tid, addr=addr)
        if thread.side_effects or thread.pending_tags:
            # The correction is trusted; with committed side effects (or
            # DMA in flight) re-execution is the riskier path, so the
            # thread continues on the scrubbed word.
            return False
        # Scrub the rest of the frame too: one squash per thread, even
        # when several producer stores were corrupted.
        if thread.frame_addr is not None:
            base = thread.frame_addr
            limit = base + 4 * self.config.frame_size_words
            for a in [a for a in self._poison if base <= a < limit]:
                self.ls.write_word(a, self._poison.pop(a))
                inj.stats.frame_scrubs += 1
        self._squash_thread(
            thread, cause="frame-store",
            restart_pf=not thread.prefetch_done,
        )
        return True

    # -- SPU dispatch interface -------------------------------------------------

    def pop_ready(self) -> ThreadInstance | None:
        """Hand the next ready thread to the SPU (None when idle)."""
        while self._ready:
            thread = self._ready.popleft()
            if thread.state is ThreadState.READY:
                return thread
        return None

    def thread_wait_dma(self, thread: ThreadInstance) -> bool:
        """Called by the SPU at the end of a PF block.

        Returns True when the thread must yield the pipeline (outstanding
        DMA tags remain); the thread will be re-readied by
        :meth:`dma_command_done`.
        """
        thread.prefetch_done = True
        if (self._squash_pending and thread.tid in self._squash_pending
                and not thread.pending_tags
                and not any(
                    k[0] == thread.tid for k in self._dma_outstanding
                )):
            # A corrupt transfer arrived mid-PF and every other command
            # has already drained: complete the deferred squash now that
            # the pipeline is handing the thread back.
            self._squash_pending.discard(thread.tid)
            self._squash_thread(thread, cause="dma-transfer", restart_pf=True)
            return True
        if thread.pending_tags:
            thread.transition(ThreadState.WAIT_DMA)
            return True
        return False

    def _make_ready(self, thread: ThreadInstance, resumed: bool = False) -> None:
        """Queue a READY thread per the configured dispatch discipline.

        Resumed (post-DMA) threads always go to the front: their data is
        hot in the LS and holding their buffers longer only adds
        pressure.  New threads go to the front under the default "lifo"
        (depth-first) policy — which bounds the live frames of fork trees
        the way depth-first schedulers bound space — or to the back under
        "fifo".
        """
        now = thread.ready_at = self._engine._now
        if self._tracer is not None:
            self._tracer.emit(now, self.name, "thread-ready",
                              tid=thread.tid, resumed=resumed)
        if resumed or self.config.ready_policy == "lifo":
            self._ready.appendleft(thread)
        else:
            self._ready.append(thread)
        self._notify_spu()

    def _notify_spu(self) -> None:
        if self._spu is not None:
            self._spu.notify_ready()

    # -- XP-pipeline prefetch offload (ablation A2) ---------------------------

    def offload_prefetch(self, thread: ThreadInstance) -> bool:
        """Run ``thread``'s PF block on the LSE's XP pipeline if enabled.

        Returns True when the LSE took ownership of the PF phase: the
        thread transitions to PROGRAM_DMA immediately and will re-enter
        the ready queue (prefetch done) without ever occupying the SPU —
        the overlap the paper attributes to the original DTA LSE's SP/XP
        dual pipelines ("it can overlap this with the execution of other
        threads, but in the CellDTA this is not yet available").
        """
        if not self.config.dual_pipelines:
            return False
        if thread.prefetch_done or not thread.program.has_prefetch:
            return False
        thread.transition(ThreadState.PROGRAM_DMA)
        if self._sanitizer is not None:
            self._sanitizer.thread_started(self.name, thread.tid)
        pf = thread.program.block(BlockKind.PF)
        # XP pipeline occupancy: one PF instruction per request_latency.
        delay = max(1, len(pf) * self.config.request_latency)
        self.engine.call_at(
            self.now + delay, Callback("lse.xp_run", self, (thread,))
        )
        return True

    def _xp_run(self, thread: ThreadInstance) -> None:
        """Functionally execute the PF block on the XP pipeline."""
        pf = thread.program.block(BlockKind.PF)
        regs: dict[int, int] = {}

        def val(operand) -> int:
            from repro.isa.instructions import Imm, Reg

            if isinstance(operand, Imm):
                return operand.value
            if isinstance(operand, Reg):
                return regs.get(operand.index, 0)
            raise SchedulerError(f"{self.name}: bad XP operand {operand!r}")

        # First pass: check resources so the whole block applies atomically.
        total_alloc = sum(i.imm for i in pf if i.op is Op.LSALLOC)
        dma_count = sum(1 for i in pf if i.op in (Op.DMAGET, Op.DMAPUT))
        if total_alloc and not self.allocator.can_alloc(total_alloc):
            self.engine.call_at(
                self.now + 16, Callback("lse.xp_run", self, (thread,))
            )
            return
        if dma_count and len(pf) and not self._mfc.queue_free:
            self.engine.call_at(
                self.now + 8, Callback("lse.xp_run", self, (thread,))
            )
            return
        assert thread.frame_addr is not None
        for instr in pf:
            if instr.op is Op.LOAD:
                la = thread.frame_addr + 4 * instr.imm
                if self._poison and la in self._poison:
                    # XP applies the PF block atomically with nothing
                    # committed yet, so a poisoned word is simply
                    # scrubbed in place before the read.
                    self.ls.write_word(la, self._poison.pop(la))
                    self._injector.stats.frame_scrubs += 1
                    self._trace("frame-scrub", tid=thread.tid, addr=la)
                regs[instr.rd] = self.ls.read_word(la)
            elif instr.op is Op.STOREF:
                self.ls.write_word(
                    thread.frame_addr + 4 * instr.imm, val(instr.ra)
                )
            elif instr.op is Op.LSALLOC:
                addr = self.allocator.alloc(instr.imm)
                thread.ls_buffers.append((addr, instr.imm))
                regs[instr.rd] = addr
            elif instr.op is Op.DMAGET:
                ok = self._mfc.enqueue(
                    DmaKind.GET, val(instr.ra), val(instr.rb), instr.imm,
                    instr.tag, thread.tid,
                )
                if not ok:  # pragma: no cover - pre-checked above
                    raise SchedulerError(f"{self.name}: XP hit a full MFC queue")
            elif instr.spec.is_branch:
                raise SchedulerError(
                    f"{self.name}: XP pipeline cannot execute branches in PF"
                )
            elif instr.op is Op.NOP:
                pass
            else:
                a = val(instr.ra) if instr.ra is not None else 0
                b = val(instr.rb) if instr.rb is not None else (
                    instr.imm if instr.imm is not None else 0
                )
                regs[instr.rd] = alu_result(instr.op, a, b)
        thread.prefetch_done = True
        if thread.pending_tags:
            thread.transition(ThreadState.WAIT_DMA)
        else:
            thread.transition(ThreadState.READY)
            self._make_ready(thread, resumed=True)

    # -- component ---------------------------------------------------------------

    def tick(self, now: int) -> int | None:
        queue = self._queue
        if not queue:
            return None
        handler, args, from_spu = queue.popleft()
        if from_spu:
            self._spu_queue_len -= 1
            if self._spu_waits:
                self._spu_waits = False
                self._spu.lse_queue_drained()
        else:
            self.stats.messages += 1
        handler(self, now, *args)
        return now + self.config.request_latency if queue else None

    # -- request and message handlers -------------------------------------------
    # Each runs as ``handler(self, now, *args)`` when tick serves its entry.

    # FALLOC (requesting side): forward to the DSE.

    def falloc(self, now: int, template_id: int, sc: int) -> None:
        self.stats.fallocs += 1
        if self._m_fallocs is not None:
            self._m_fallocs.add()
        self._falloc_seq += 1
        self._bus.send(
            self._endpoint,
            self._dse,
            FallocRequest(
                request_id=(self.spe_id << 24) | self._falloc_seq,
                requester_spe=self.spe_id,
                template_id=template_id,
                sc=sc,
            ),
        )

    # AllocFrame (target side): create the thread here.

    def _alloc_frame(self, now: int, msg: AllocFrame) -> None:
        if self._free_frames:
            frame = self._free_frames.popleft()
            thread = self._create_thread(msg, frame, now)
            self._respond_falloc(msg, thread)
        elif self.config.virtual_frame_pointers:
            if len(self._virtual) >= self.config.virtual_frame_depth:
                self.stats.falloc_waits += 1
                if self._m_falloc_waits is not None:
                    self._m_falloc_waits.add()
                self._pending_allocs.append(_PendingAlloc(msg=msg, arrived=now))
                return
            vaddr = self._next_virtual
            self._next_virtual += 4
            thread = self._create_thread(msg, None, now, vaddr=vaddr)
            self._virtual[vaddr] = thread
            self._virtual_stores[vaddr] = {}
            self._respond_falloc(msg, thread)
        else:
            self.stats.falloc_waits += 1
            if self._m_falloc_waits is not None:
                self._m_falloc_waits.add()
            self._pending_allocs.append(_PendingAlloc(msg=msg, arrived=now))

    def _create_thread(
        self, msg: AllocFrame, frame: Frame | None, now: int, vaddr: int | None = None
    ) -> ThreadInstance:
        assert self._machine is not None
        tid = self._machine.next_tid()
        program = self._machine.program_of(msg.template_id)
        if program.frame_words > self.config.frame_size_words:
            raise SchedulerError(
                f"{self.name}: template {program.name!r} needs "
                f"{program.frame_words} frame words > "
                f"{self.config.frame_size_words}"
            )
        addr = frame.addr if frame is not None else vaddr
        assert addr is not None
        thread = ThreadInstance(
            tid=tid,
            template_id=msg.template_id,
            program=program,
            spe_id=self.spe_id,
            frame_addr=frame.addr if frame is not None else None,
            handle=pack_handle(self.spe_id, addr),
            sc=msg.sc,
            state=ThreadState.WAIT_FRAME if frame is None else ThreadState.WAIT_STORES,
            created_at=now,
        )
        if frame is not None:
            if self._sanitizer is not None:
                self._sanitizer.frame_assigned(self.name, frame.addr)
            frame.assign(tid)
            self._thread_by_frame[frame.addr] = thread
        if self._m_transitions is not None:
            thread.on_transition = self._observe_transition
            self._m_transitions[thread.state._value_].add()  # the birth state
        self.threads[tid] = thread
        self._machine.thread_created()
        if self._tracer is not None:
            self._tracer.emit(now, self.name, "thread-created", tid=tid,
                              template=program.name, sc=msg.sc,
                              virtual=frame is None)
        if msg.sc == 0 and frame is not None:
            thread.transition(ThreadState.READY)
            self._make_ready(thread)
        return thread

    def _respond_falloc(self, msg: AllocFrame, thread: ThreadInstance) -> None:
        response = FallocResponse(
            request_id=msg.request_id, handle=thread.handle, tid=thread.tid
        )
        requester = self._machine.directory[msg.requester_spe]
        self._bus.send(self._endpoint, requester, response)

    def _falloc_response(self, now: int, msg: FallocResponse) -> None:
        # The handle for a FALLOC this SPE's SPU is blocked on.
        self._spu.unblock(msg.handle)

    # Stores.

    def store(self, now: int, handle: int, slot: int, value: int) -> None:
        pe, addr = unpack_handle(handle)
        if pe == self.spe_id:
            self._apply_local_store(addr, slot, value, now)
        else:
            self.stats.remote_stores += 1
            self._bus.send(
                self._endpoint, self._machine.directory[pe],
                StoreMsg(handle=handle, slot=slot, value=value),
            )

    def _store_msg(self, now: int, msg: StoreMsg) -> None:
        # Verify the integrity code stamped when the store entered the
        # bus.  A single-bit error is correctable: the raw value commits
        # (modeling read-time-checked ECC memory) and the corrected word
        # is recorded for scrubbing at first read.
        corrected = None
        inj = self._injector
        if inj is not None and inj.plan.data_active:
            syndrome = store_syndrome(msg.value, msg.check)
            if syndrome:
                if not 1 <= syndrome <= WORD_BITS:
                    raise self._corruption_error(
                        "frame-store", None,
                        f"uncorrectable store syndrome {syndrome:#x} "
                        f"(handle {msg.handle:#x}, slot {msg.slot})",
                    )
                corrected = store_corrected(msg.value, syndrome)
        # The sender checked the handle; unpack it without a call.
        pe, addr = divmod(msg.handle, 1 << HANDLE_ADDR_BITS)
        if pe != self.spe_id:
            raise SchedulerError(
                f"{self.name}: store for PE {pe} delivered to PE {self.spe_id}"
            )
        self._apply_local_store(addr, msg.slot, msg.value, now, corrected)

    def _apply_local_store(self, addr: int, slot: int, value: int, now: int,
                           corrected: int | None = None) -> None:
        if addr >= VIRTUAL_BASE:
            if addr in self._virtual_redirect:
                # The virtual frame was bound meanwhile; route to the
                # physical frame it became.
                addr = self._virtual_redirect[addr]
            else:
                thread = self._virtual.get(addr)
                if thread is None:
                    raise SchedulerError(
                        f"{self.name}: store to stale virtual frame"
                    )
                self._virtual_stores[addr][slot] = value
                if corrected is not None:
                    self._virtual_poison[(addr, slot)] = corrected
                    self._injector.stats.frame_poisons += 1
                    self._trace("data-fault", what="frame-poison",
                                tid=thread.tid, slot=slot)
                if self._sanitizer is not None:
                    self._sanitizer.frame_store(self.name, thread.tid)
                    self._sanitizer.sc_decrement(self.name, thread.tid, thread.sc)
                thread.count_store()
                return
        frame = self._frame_by_addr.get(addr)
        if frame is None or frame.owner_tid is None:
            raise SchedulerError(
                f"{self.name}: store to unallocated frame @{addr:#x}"
            )
        thread = self._thread_by_frame[addr]
        if slot >= self.config.frame_size_words:
            raise SchedulerError(
                f"{self.name}: store to slot {slot} beyond frame size"
            )
        self.ls.write_word(addr + 4 * slot, value)
        if corrected is not None:
            self._poison[addr + 4 * slot] = corrected
            self._injector.stats.frame_poisons += 1
            self._trace("data-fault", what="frame-poison",
                        tid=thread.tid, slot=slot)
        self.ls.reserve_port(now)
        frame.writes += 1
        if self._sanitizer is not None:
            self._sanitizer.frame_store(self.name, thread.tid)
            self._sanitizer.sc_decrement(self.name, thread.tid, thread.sc)
        if thread.count_store():
            thread.transition(ThreadState.READY)
            self._make_ready(thread)

    # LSALLOC.

    def lsalloc(self, now: int, thread: ThreadInstance, size: int) -> None:
        try:
            addr = self.allocator.alloc(size)
        except AllocationError:
            self._waiting_lsallocs.append((thread, size))
            return
        thread.ls_buffers.append((addr, size))
        self._spu.unblock(addr)

    def _retry_lsallocs(self) -> None:
        # Serve as many queued LSALLOCs as now fit, in order.
        while self._waiting_lsallocs:
            thread, size = self._waiting_lsallocs[0]
            if not self.allocator.can_alloc(size):
                return
            self._waiting_lsallocs.popleft()
            addr = self.allocator.alloc(size)
            thread.ls_buffers.append((addr, size))
            self._spu.unblock(addr)

    # STOP / frame release.

    def stop(self, now: int, thread: ThreadInstance) -> None:
        thread.transition(ThreadState.DONE)
        thread.finished_at = now
        for addr, size in thread.ls_buffers:
            self.allocator.free(addr, size)
        thread.ls_buffers.clear()
        self._retry_lsallocs()
        if thread.frame_addr is not None and not thread.frame_freed:
            self._release_frame(thread)
        if self._sanitizer is not None:
            self._sanitizer.thread_done(thread.tid)
        del self.threads[thread.tid]
        self._machine.thread_completed()
        if self._tracer is not None:
            self._tracer.emit(now, self.name, "thread-done", tid=thread.tid,
                              template=thread.program.name)

    def _release_frame(self, thread: ThreadInstance) -> None:
        assert thread.frame_addr is not None
        frame = self._frame_by_addr[thread.frame_addr]
        if self._poison:
            # Unread poison dies with the frame; it must not scrub a
            # later tenant of the same LS region.
            limit = frame.addr + 4 * self.config.frame_size_words
            for a in [a for a in self._poison if frame.addr <= a < limit]:
                del self._poison[a]
        if self._sanitizer is not None:
            self._sanitizer.frame_released(self.name, frame.addr)
        frame.release()
        del self._thread_by_frame[thread.frame_addr]
        thread.frame_addr = None
        thread.frame_freed = True
        self.stats.ffrees += 1
        self._bus.send(self._endpoint, self._dse, FrameFreed(spe_id=self.spe_id))
        self._serve_pending_alloc(frame)

    def _serve_pending_alloc(self, frame: Frame) -> None:
        """A frame just freed: bind a waiting alloc or virtual thread."""
        # Virtual threads first (they were promised frames earlier).
        # Prefer one whose inputs are already fully buffered (SC == 0): it
        # becomes runnable the moment it binds, so the frame turns over
        # quickly — binding a thread whose producers are themselves
        # unbound could park the frame indefinitely.
        if self._virtual:
            pick = None
            for vaddr, thread in self._virtual.items():
                if thread.sc == 0:
                    pick = (vaddr, thread)
                    break
                if pick is None:
                    pick = (vaddr, thread)
            assert pick is not None
            self._bind_virtual(pick[0], pick[1], frame)
            return
        if self._pending_allocs:
            pending = self._pending_allocs.popleft()
            self._free_frames.append(frame)
            # Re-run the allocation path with the frame we just returned.
            self._alloc_frame(self.now, pending.msg)
            return
        self._free_frames.append(frame)

    def _bind_virtual(self, vaddr: int, thread: ThreadInstance, frame: Frame) -> None:
        del self._virtual[vaddr]
        pending = self._virtual_stores.pop(vaddr)
        if self._sanitizer is not None:
            self._sanitizer.frame_assigned(self.name, frame.addr)
        frame.assign(thread.tid)
        thread.frame_addr = frame.addr
        self._thread_by_frame[frame.addr] = thread
        thread.transition(ThreadState.WAIT_STORES)
        # Re-point the handle: stores already in flight carry the virtual
        # address, so keep routing it.
        self._virtual_redirect[vaddr] = frame.addr
        for slot, value in pending.items():
            self.ls.write_word(frame.addr + 4 * slot, value)
            if (vaddr, slot) in self._virtual_poison:
                # The buffered store was corrupt: poison follows the
                # word into the physical frame.
                self._poison[frame.addr + 4 * slot] = (
                    self._virtual_poison.pop((vaddr, slot))
                )
        if thread.sc == 0:
            thread.transition(ThreadState.READY)
            self._make_ready(thread)

    def ffree(self, now: int, handle: int) -> None:
        pe, addr = unpack_handle(handle)
        if pe == self.spe_id:
            self._free_frame(addr)
        else:
            self._bus.send(
                self._endpoint, self._machine.directory[pe],
                FFreeMsg(handle=handle),
            )

    def _ffree_msg(self, now: int, msg: FFreeMsg) -> None:
        self._free_frame(unpack_handle(msg.handle)[1])

    def _free_frame(self, addr: int) -> None:
        thread = self._thread_by_frame.get(addr)
        if thread is None:
            raise SchedulerError(
                f"{self.name}: FFREE of unallocated frame @{addr:#x}"
            )
        self._release_frame(thread)

    # -- diagnostics ------------------------------------------------------------------

    @property
    def live_threads(self) -> int:
        return len(self.threads)

    @property
    def free_frame_count(self) -> int:
        return len(self._free_frames)

    @property
    def ready_depth(self) -> int:
        return len(self._ready)

    def describe_state(self) -> str:
        return (
            f"{len(self._queue)} queued reqs, {len(self._ready)} ready, "
            f"{self.live_threads} live threads, "
            f"{self.free_frame_count}/{self.config.num_frames} frames free, "
            f"{len(self._pending_allocs)} pending allocs, "
            f"{len(self._waiting_lsallocs)} waiting LSALLOCs, "
            f"{sum(self._dma_outstanding.values())} DMA cmds outstanding"
        )


#: Network message handlers, by exact message type.
_MESSAGE_HANDLERS = {
    StoreMsg: LSE._store_msg,
    AllocFrame: LSE._alloc_frame,
    FallocResponse: LSE._falloc_response,
    FFreeMsg: LSE._ffree_msg,
}

register_callback("lse.xp_run", LSE._xp_run)
