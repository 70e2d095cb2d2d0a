"""The assembled CellDTA machine.

``Machine`` builds the full system of the paper's Sec. 4.1, one DTA
node: N SPEs (SPU + LS + MFC + LSE each), the DSE, the PPE, the element
interconnect bus and main memory, wired together and clocked by one event-skipping
engine.  ``Machine.run`` executes one loaded TLP activity to completion
and returns a :class:`RunResult` with the cycle count, the Figure 5 / 9
statistics and the Table 5 instruction mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cell.bus import Bus
from repro.cell.main_memory import MainMemory
from repro.cell.ppe import PPE, PPE_ID
from repro.cell.spe import SPE
from repro.core.activity import TLPActivity
from repro.core.dse import DSE
from repro.faults.injector import FaultInjector
from repro.isa.program import ThreadProgram
from repro.sim.config import MachineConfig
from repro.sim.engine import Engine
from repro.sim.sanitize import Sanitizer
from repro.sim.stats import (
    BusStats,
    FaultStats,
    MachineStats,
    MemoryStats,
    MFCStats,
    SchedulerStats,
)
from repro.sim.watchdog import ProgressWatchdog

__all__ = ["Machine", "RunResult", "run_activity"]


@dataclass
class RunResult:
    """Everything one simulated run produces."""

    activity: str
    config: MachineConfig
    cycles: int
    stats: MachineStats
    #: True when the activity used prefetching (any template had a PF block).
    prefetch: bool


class Machine:
    """A complete CellDTA chip plus main memory."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.engine = Engine()
        self.bus_stats = BusStats()
        self.memory_stats = MemoryStats()
        self.fault_stats = FaultStats()
        #: Fault injector (None when the plan is inert, so the fault-free
        #: hot path stays exactly the pre-fault-injection code).
        self.injector = (
            FaultInjector(config.faults, self.fault_stats)
            if config.faults.active
            else None
        )
        #: Opt-in invariant cross-checker shared by all components.
        self.sanitizer = Sanitizer() if config.sanitize else None
        self.bus = Bus("bus", config.bus, self.bus_stats)
        self.memory = MainMemory("memory", config.main_memory, self.memory_stats)
        self.engine.register(self.bus)
        self.engine.register(self.memory)
        self.memory.attach_bus(self.bus)
        self.bus.attach_faults(self.injector, self.sanitizer)
        self.memory.attach_faults(self.injector)

        # The one DSE; hub counters and trace events name it dse0.
        self.dse_stats = SchedulerStats()
        self.dse = DSE(
            "dse0", list(range(config.num_spes)), config.dse, self.dse_stats
        )
        self.engine.register(self.dse)
        self.dse.wire(bus=self.bus, machine=self)

        # SPEs.
        self.spes: list[SPE] = [SPE(i, config) for i in range(config.num_spes)]
        for spe in self.spes:
            spe.register(self.engine)
            spe.wire(
                bus=self.bus,
                memory=self.memory,
                dse=self.dse,
                machine=self,
                injector=self.injector,
                sanitizer=self.sanitizer,
            )

        # PPE.
        self.ppe = PPE()
        self.engine.register(self.ppe)
        self.ppe.wire(bus=self.bus, dse=self.dse)
        self.ppe.attach_machine(self)

        # Response directory for the bus.
        #: The bus endpoint of each SPE id and of the PPE.
        self.directory: dict[int, object] = {PPE_ID: self.ppe}
        for spe in self.spes:
            self.directory[spe.spe_id] = spe
        self.memory.directory = self.directory

        #: Optional tracer attached to every component.
        self.tracer = None
        #: Optional metrics hub (see :mod:`repro.obs.hub`) + its sampler.
        self.hub = None
        self.sampler = None

        # Run bookkeeping.
        self._activity: TLPActivity | None = None
        self._programs: tuple[ThreadProgram, ...] = ()
        self._next_tid = 0
        self.threads_created = 0
        self.threads_completed = 0

        # Checkpoint bookkeeping (harness-side; a checkpoint saves it
        # fresh, see __getstate__).
        #: True when this machine was loaded from a checkpoint: run()
        #: must not re-start the watchdog/sampler (their next wakes are
        #: already in the restored heap).
        self._resumed = False
        #: (cycle, path) of the most recent checkpoint written.
        self._last_checkpoint: "tuple[int, str] | None" = None
        self._ckpt_dir: str | None = None
        self._ckpt_name: str | None = None

        # Progress watchdog (registered last so livelock reports list the
        # real components first).  Observation-only: it never wakes or
        # messages another component, so cycle counts are unaffected.
        self.watchdog = None
        if config.watchdog.enabled:
            self.watchdog = ProgressWatchdog(
                "watchdog",
                interval=config.watchdog.interval,
                stall_cycles=config.watchdog.stall_cycles,
                progress=self._progress_snapshot,
                done=self._done,
                detail=self._watchdog_detail,
                checkpoint=self._livelock_checkpoint,
                last_checkpoint=self._last_checkpoint_info,
            )
            self.engine.register(self.watchdog)

    def attach_tracer(self, tracer) -> None:
        """Record trace events (see :mod:`repro.obs.trace`) on all units."""
        self.tracer = tracer
        for component in self.engine.components:
            component._tracer = tracer

    def attach_hub(self, hub) -> None:
        """Bind a :class:`~repro.obs.hub.MetricsHub` to every component.

        A ``None`` or disabled hub is a strict no-op: nothing binds, no
        sampler is registered, and the run is indistinguishable from an
        unobserved one.  An enabled hub is observation-only — it never
        wakes or messages a functional component, so cycle counts are
        identical with or without it.
        """
        if hub is None or not hub.enabled:
            return
        from repro.obs.hub import MetricsSampler

        self.hub = hub
        for component in self.engine.components:
            component.bind_hub(hub)
        self.sampler = MetricsSampler(
            "metrics-sampler", hub=hub, machine=self, done=self._done
        )
        self.engine.register(self.sampler)

    # -- services used by components --------------------------------------------

    def program_of(self, template_id: int) -> ThreadProgram:
        return self._programs[template_id]

    def next_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def thread_created(self) -> None:
        self.threads_created += 1

    def thread_completed(self) -> None:
        self.threads_completed += 1
        self.check_done()

    def check_done(self) -> None:
        """End the run after the current cycle if the activity is done.

        :meth:`_done` is the run's stop condition, and this is the only
        place it stops a run: it is called whenever an input that can
        turn it true changes — a thread completes, the PPE makes
        progress — and once when :meth:`run` starts.  Creating a thread
        cannot turn it true, and cannot follow it being true: every
        thread is created for an outstanding FALLOC, whose requester (a
        running thread, or the PPE) is not done yet.
        """
        if self._done():
            self.engine.stop()

    # -- loading & running ----------------------------------------------------------

    def load(self, activity: TLPActivity) -> None:
        """Place globals in main memory and queue the root spawns."""
        if self._activity is not None:
            raise RuntimeError("machine already has an activity loaded")
        activity.validate()
        self._activity = activity
        self._programs = activity.templates
        for obj in activity.globals:
            assert obj.addr is not None
            self.memory.load_block(obj.addr, obj.data)
        self.ppe.load(activity)

    def _done(self) -> bool:
        # Cheap int comparisons first, the multi-attribute ppe.done
        # property last.
        return (
            self.threads_created > 0
            and self.threads_completed == self.threads_created
            and self.ppe.done
        )

    def _progress_snapshot(self) -> tuple[int, int, int]:
        """Forward-progress fingerprint sampled by the watchdog.

        Any of these moving counts as progress: threads retired, threads
        created, instructions committed machine-wide.
        """
        committed = sum(spe.spu_stats.mix.total for spe in self.spes)
        return (self.threads_completed, self.threads_created, committed)

    def _watchdog_detail(self) -> str:
        dma = sum(spe.mfc.outstanding_commands for spe in self.spes)
        ready = sum(spe.lse.ready_depth for spe in self.spes)
        return (
            f"threads: {self.threads_completed}/{self.threads_created} "
            f"completed; in-flight DMA commands: {dma}; "
            f"ready-queue depth: {ready}; bus transfers pending: "
            f"{self.bus.pending}"
        )

    def run(
        self,
        max_cycles: int | None = None,
        *,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_at: "list[int] | tuple[int, ...] | None" = None,
        checkpoint_path: str | None = None,
    ) -> RunResult:
        """Run the loaded activity to completion.

        ``checkpoint_every=N`` writes a checkpoint to
        ``<checkpoint_dir>/<activity>.ckpt`` (atomically replaced — the
        file always holds the latest) at the first visited cycle past
        each N-cycle boundary; ``checkpoint_path`` overrides that default
        name with an exact file path (harness-facing: per-task paths that
        cannot collide when activities share a name).
        ``checkpoint_at=[c1, c2, ...]`` instead writes
        ``<activity>.c<ci>.ckpt`` at each requested cycle (test-facing:
        lets one reference run produce both the final result and
        mid-flight snapshots).  Neither knob costs anything when off.
        """
        if self._activity is None:
            raise RuntimeError("no activity loaded")
        on_checkpoint = None
        every = checkpoint_every
        if checkpoint_every is not None or checkpoint_at is not None:
            if checkpoint_every is not None and checkpoint_at is not None:
                raise ValueError(
                    "checkpoint_every and checkpoint_at are exclusive"
                )
            self._ckpt_dir = checkpoint_dir if checkpoint_dir else "."
            self._ckpt_name = self._activity.name
            if checkpoint_every is not None:
                path = (
                    checkpoint_path if checkpoint_path
                    else f"{self._ckpt_dir}/{self._ckpt_name}.ckpt"
                )

                def on_checkpoint(cycle: int, path=path) -> None:
                    self.save_checkpoint(path)
            else:
                targets = sorted(checkpoint_at)

                def on_checkpoint(cycle: int, targets=targets) -> None:
                    while targets and cycle >= targets[0]:
                        target = targets.pop(0)
                        self.save_checkpoint(
                            f"{self._ckpt_dir}/{self._ckpt_name}"
                            f".c{target}.ckpt"
                        )
                every = 1  # visit the hook every cycle; it filters itself
        if not self._resumed:
            # A restored machine's watchdog/sampler wakes are already in
            # the heap; re-starting them would add an extra sample tick
            # and break bit-identity of gauges and profiles.
            if self.watchdog is not None:
                self.watchdog.start()
            if self.sampler is not None:
                self.sampler.start()
        # A machine restored after its last thread completed is already
        # done: the run then visits no cycle.
        self.check_done()
        self.engine.run(
            max_cycles=max_cycles,
            checkpoint_every=every,
            on_checkpoint=on_checkpoint,
            until_stopped=True,
        )
        finish = self.engine.now
        # Drain in-flight posted writes / acks so results are observable.
        self.engine.drain(max_cycles=max_cycles)
        return RunResult(
            activity=self._activity.name,
            config=self.config,
            cycles=finish,
            stats=self.collect_stats(finish),
            prefetch=self._activity.has_prefetch,
        )

    # -- checkpoint/restore ----------------------------------------------------------

    def save_checkpoint(self, path: str) -> str:
        """Snapshot the whole machine to ``path`` (see repro.sim.snapshot)."""
        from repro.sim.snapshot import save_checkpoint

        save_checkpoint(self, path)
        self._last_checkpoint = (self.engine.now, path)
        return path

    @staticmethod
    def load_checkpoint(path: str) -> "Machine":
        """Load a checkpointed machine, ready to continue via run()."""
        from repro.sim.snapshot import load_checkpoint

        return load_checkpoint(path)

    def __getstate__(self) -> dict:
        # A checkpoint is the one pickle of a machine: it loads marked as
        # resumed, and the harness bookkeeping starts fresh.
        state = dict(self.__dict__)
        state.update(_resumed=True, _last_checkpoint=None, _ckpt_dir=None,
                     _ckpt_name=None)
        return state

    def _livelock_checkpoint(self) -> "str | None":
        """Watchdog hook: preserve the diagnosed state, best-effort."""
        if self._ckpt_dir is None or self._ckpt_name is None:
            return None
        from repro.sim.snapshot import CheckpointError

        path = f"{self._ckpt_dir}/{self._ckpt_name}.livelock.ckpt"
        try:
            return self.save_checkpoint(path)
        except CheckpointError:
            return None  # diagnosis must not be masked by a save failure

    def _last_checkpoint_info(self) -> "tuple[int, str] | None":
        return self._last_checkpoint

    # -- statistics -----------------------------------------------------------------

    def collect_stats(self, total_cycles: int) -> MachineStats:
        """Aggregate per-component stats; idle time is the unaccounted rest."""
        spus = []
        for spe in self.spes:
            s = spe.spu_stats
            accounted = s.breakdown.total - s.breakdown.idle
            idle = total_cycles - accounted
            # Allow tiny boundary overshoot (final unblock charges through
            # the cycle after completion) but fail loudly on real leaks.
            if idle < -8:
                raise AssertionError(
                    f"SPU {spe.spe_id} accounted {accounted} cycles of "
                    f"{total_cycles}: bucket accounting leak"
                )
            s.breakdown.idle = max(0, idle)
            s.observed_cycles = total_cycles
            spus.append(s)
        mfc = MFCStats()
        for spe in self.spes:
            mfc.commands += spe.mfc_stats.commands
            mfc.bytes_transferred += spe.mfc_stats.bytes_transferred
            mfc.queue_full_rejections += spe.mfc_stats.queue_full_rejections
        sched = SchedulerStats()
        for spe in self.spes:
            st = spe.lse_stats
            sched.fallocs += st.fallocs
            sched.ffrees += st.ffrees
            sched.remote_stores += st.remote_stores
            sched.messages += st.messages
            sched.falloc_waits += st.falloc_waits
        sched.messages += self.dse_stats.messages
        return MachineStats(
            cycles=total_cycles,
            spus=spus,
            bus=self.bus_stats,
            memory=self.memory_stats,
            mfc=mfc,
            scheduler=sched,
            faults=self.fault_stats,
        )

    # -- result extraction ----------------------------------------------------------------

    def read_global(self, name: str) -> list[int]:
        """The current main-memory contents of a global object."""
        if self._activity is None:
            raise RuntimeError("no activity loaded")
        obj = self._activity.global_obj(name)
        assert obj.addr is not None
        return self.memory.read_block(obj.addr, len(obj.data))


def run_activity(
    activity: TLPActivity,
    config: MachineConfig | None = None,
    max_cycles: int | None = None,
) -> RunResult:
    """Convenience: build a machine, load ``activity``, run it."""
    machine = Machine(config if config is not None else MachineConfig())
    machine.load(activity)
    return machine.run(max_cycles=max_cycles)
