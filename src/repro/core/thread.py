"""Thread instances and the DTA thread lifecycle.

The paper's Figure 4 lifecycle (prefetching enabled):

1.  *Wait for a Frame* — a frame must be assigned before data can arrive.
    (With virtual frame pointers a thread can exist in this state while
    the physical frame is still pending; without them, frame assignment
    and thread creation coincide.)
2.  *Wait for stores* — the Synchronization Counter (SC) counts down as
    producers STORE into the frame.
3.  *Ready* — all inputs present; waiting for the pipeline.
4.  2a. *Program DMA* — the PF code block runs on the pipeline and
    programs the MFC (prefetch overhead).
    2b. *Wait for DMA* — the thread releases the pipeline until the MFC
    signals completion of its tag group (this is the paper's key
    non-blocking step).
5.  *Execution* — PL, EX, PS code blocks run to STOP.

:class:`ThreadInstance` is pure bookkeeping — all timing lives in the SPU,
LSE and MFC components — which keeps the lifecycle unit-testable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.program import ThreadProgram

__all__ = ["ThreadState", "ThreadInstance", "LifecycleError"]


class LifecycleError(RuntimeError):
    """An illegal thread state transition was attempted."""


class ThreadState(enum.Enum):
    WAIT_FRAME = "wait-frame"
    WAIT_STORES = "wait-stores"
    READY = "ready"
    PROGRAM_DMA = "program-dma"
    WAIT_DMA = "wait-dma"
    EXECUTING = "executing"
    DONE = "done"


#: Legal state transitions (Figure 4, plus the no-PF shortcuts), keyed by
#: ``ThreadState._value_`` (hashing an Enum member runs Python code).
_TRANSITIONS: dict[str, frozenset[str]] = {
    old._value_: frozenset(new._value_ for new in news)
    for old, news in {
        ThreadState.WAIT_FRAME: {ThreadState.WAIT_STORES},
        ThreadState.WAIT_STORES: {ThreadState.READY},
        ThreadState.READY: {ThreadState.PROGRAM_DMA, ThreadState.EXECUTING},
        ThreadState.PROGRAM_DMA: {
            ThreadState.WAIT_DMA, ThreadState.EXECUTING, ThreadState.READY
        },
        ThreadState.WAIT_DMA: {ThreadState.READY},
        # EXECUTING -> READY is the data-fault recovery squash: a thread that
        # read a poisoned frame word is pulled off the pipeline pre-commit
        # and re-enqueued for re-execution (frame intact, SC preserved).
        ThreadState.EXECUTING: {ThreadState.DONE, ThreadState.READY},
        ThreadState.DONE: set(),
    }.items()
}


@dataclass(slots=True)
class ThreadInstance:
    """One dynamic thread: a template bound to a frame and an SC.

    Thousands are allocated per benchmark run, hence ``slots=True``.
    """

    tid: int
    template_id: int
    program: ThreadProgram
    spe_id: int
    #: Frame byte address in the owning SPE's Local Store (None while a
    #: virtual-frame thread waits for a physical frame).
    frame_addr: int | None
    handle: int
    sc: int
    state: ThreadState = ThreadState.WAIT_STORES
    #: Outstanding DMA tag ids programmed by the PF block.
    pending_tags: set[int] = field(default_factory=set)
    #: LS prefetch buffers owned by this thread (freed at STOP).
    ls_buffers: list[tuple[int, int]] = field(default_factory=list)
    #: True once the PF block has run (a resumed thread skips PF).
    prefetch_done: bool = False
    #: True once the LSE released this thread's frame (STOP or FFREE).
    frame_freed: bool = False
    #: True once the thread has committed work visible outside its own
    #: registers/LS buffers (PS stores, WRITEs, spawns, non-PF DMA) — a
    #: thread with side effects can no longer be squashed for recovery.
    side_effects: bool = False
    #: Recovery re-executions performed on this thread (bounded by the
    #: fault plan's ``data_max_reexecs``).
    reexecs: int = 0
    #: Cycle bookkeeping (diagnostics only).
    created_at: int = 0
    ready_at: int | None = None
    finished_at: int | None = None
    #: Lifecycle observer, called as ``on_transition(thread, old, new)``
    #: after every successful transition (observability hook; never
    #: affects the lifecycle itself).
    on_transition: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.sc < 0:
            raise ValueError(f"thread {self.tid}: negative SC {self.sc}")

    # -- SC handling ---------------------------------------------------------

    def count_store(self) -> bool:
        """Record one synchronizing store; returns True when SC hits zero.

        Only legal while waiting for stores — a store arriving for a
        ready/running thread indicates a producer SC mismatch, which DTA
        hardware would treat as a protocol violation.
        """
        if self.state not in (ThreadState.WAIT_STORES, ThreadState.WAIT_FRAME):
            raise LifecycleError(
                f"thread {self.tid}: store arrived in state {self.state.value}"
            )
        if self.sc <= 0:
            raise LifecycleError(
                f"thread {self.tid}: more stores than its SC allowed"
            )
        self.sc -= 1
        return self.sc == 0 and self.state is ThreadState.WAIT_STORES

    # -- transitions ------------------------------------------------------------

    def transition(self, new: ThreadState) -> None:
        if new._value_ not in _TRANSITIONS[self.state._value_]:
            raise LifecycleError(
                f"thread {self.tid}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        old, self.state = self.state, new
        observer = self.on_transition
        if observer is not None:
            observer(self, old, new)

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.READY

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    def describe(self) -> str:
        return (
            f"tid={self.tid} tmpl={self.program.name} spe={self.spe_id} "
            f"state={self.state.value} sc={self.sc} "
            f"tags={sorted(self.pending_tags)}"
        )
