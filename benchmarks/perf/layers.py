"""Outside-in layer timing for the performance benchmark.

:class:`LayerTracer` is a context manager that wraps, at class or module
level, the public entry points through which the engine and the harness
enter each layer, and restores every one of them on exit (also when the
body raises).  Nothing under ``src/`` is edited: the wrappers only sit
between a caller and a callee that already exist.

Two kinds of record come out of a traced run:

* **Aggregates.**  Every wrapped call adds its *self* time (its duration
  minus the wrapped calls nested inside it) and one call to its layer.
  Component ticks and engine callbacks are the hot entry points, so they
  are only aggregated, never recorded one by one.  A layer's self time
  is therefore the time spent in its engine entry points: work an SPU
  tick does inside the LSE (``pop_ready``) counts as SPU time.
* **Spans.**  Coarse boundaries — each ``run_workload`` /
  ``profile_workload`` call, the prefetch transform, cache get/put,
  journal appends, ``reproduce_all`` and ``run_many_detailed`` — also
  record a span with a name, start, end, parent span and job id (the
  served job a gateway worker thread is executing).  Spans are kept in
  :attr:`LayerTracer.spans` until the caller writes them out.
* **Simulated counts.**  ``Machine.collect_stats`` ends every run; its
  result and the engine's public dispatch counters are summed into
  :attr:`LayerTracer.sim` (instructions, events, DMA, bus, memory).

Each thread keeps its own call stack and accumulators (the serving
gateway simulates on two worker threads), so the hot path takes no lock;
:meth:`LayerTracer.totals` merges them.  Times are wall-clock
``perf_counter_ns``: on threads that contend for the interpreter lock a
layer's time includes waiting for the lock.

A wrapper's own work before and after its timed window would land in
the caller's self time, inflating the engine (which makes ~10^6 wrapped
calls per second).  As profilers do, the tracer measures that cost per
call on entry (:attr:`LayerTracer.bias_ns`) and charges it to no layer;
:meth:`LayerTracer.overhead_s` is the total.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict

__all__ = ["LayerTracer", "TICK_LAYERS", "CALL_LAYERS", "SPAN_LAYERS"]

#: Component class -> layer, for the ``tick`` entry point the engine calls.
TICK_LAYERS = {
    ("repro.cell.spu", "SPU"): "spu",
    ("repro.core.lse", "LSE"): "lse",
    ("repro.core.dse", "DSE"): "dse",
    ("repro.cell.mfc", "MFC"): "mfc",
    ("repro.cell.bus", "Bus"): "bus",
    ("repro.cell.main_memory", "MainMemory"): "memory",
    ("repro.cell.ppe", "PPE"): "ppe",
    ("repro.sim.watchdog", "ProgressWatchdog"): "watchdog",
    ("repro.obs.hub", "MetricsSampler"): "obs.sampler",
}

#: Engine callback-kind prefix -> layer (``bus.deliver`` -> ``bus``).
CALLBACK_LAYERS = {
    "bus": "bus",
    "mfc": "mfc",
    "memory": "memory",
    "lse": "lse",
    "cache": "dcache",
}

#: Aggregated non-tick entry points: (module, attribute path, layer).
CALL_LAYERS = [
    ("repro.sim.engine", "Engine.run", "engine"),
    ("repro.cell.machine", "Machine.__init__", "machine.setup"),
    ("repro.cell.machine", "Machine.load", "machine.setup"),
    ("repro.isa.decoded", "decode_program", "decode"),
    ("repro.workloads.common", "check_outputs", "workloads.verify"),
    ("repro.bench.runner", "check_outputs", "workloads.verify"),
    ("repro.workloads.matmul", "build", "workloads.build"),
    ("repro.workloads.zoom", "build", "workloads.build"),
    ("repro.workloads.bitcount", "build", "workloads.build"),
    ("repro.obs.trace", "Tracer.emit", "obs.tracer"),
    ("repro.obs.profile", "build_profile", "obs.profile_build"),
]

#: Entry points that also record a span: (module, attribute path, layer).
SPAN_LAYERS = [
    ("repro.bench.runner", "run_workload", "run"),
    ("repro.bench.parallel", "run_workload", "run"),
    ("repro.obs.profile", "profile_workload", "run"),
    ("repro.compiler.passes", "prefetch_transform", "compiler.prefetch"),
    ("repro.bench.runner", "prefetch_transform", "compiler.prefetch"),
    ("repro.bench.cache", "ResultCache.get", "cache.get"),
    ("repro.bench.cache", "ResultCache.put", "cache.put"),
    ("repro.bench.journal", "SweepJournal.record_done", "journal"),
    ("repro.bench.journal", "SweepJournal.record_failed", "journal"),
    ("repro.bench.parallel", "run_many_detailed", "parallel"),
    ("repro.bench.export", "reproduce_all", "export"),
]

#: Modules that register engine callbacks at import.  They are imported
#: before the registry is patched, so no registration meets a wrapper.
_CALLBACK_MODULES = (
    "repro.cell.bus",
    "repro.cell.cache",
    "repro.cell.main_memory",
    "repro.cell.mfc",
    "repro.core.lse",
)


class _ThreadState:
    __slots__ = ("stack", "acc", "spans", "job")

    def __init__(self) -> None:
        #: Child time (ns) accumulated by each open wrapped call.
        self.stack: list[int] = []
        #: layer -> [self_ns, calls]
        self.acc: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: Ids of the open spans, innermost last.
        self.spans: list[int] = []
        #: Served job this thread is executing, if any.
        self.job: "str | None" = None


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + ``A.b`` path."""
    import importlib

    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Patch the layer entry points for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (owner, name, original, owned) — ``owned`` is False when the
        #: attribute was inherited and must be deleted, not restored.
        self._patches: list[tuple[object, str, object, bool]] = []
        self._registry_patches: list[tuple[str, object]] = []
        self._span_ids = itertools.count(1)
        self.spans: list[dict] = []
        #: perf_counter_ns at __enter__, the zero of span timestamps, and
        #: the time.time() of the same instant.
        self.t0_ns = 0
        self.t0_wall = 0.0
        #: Simulated counts summed over every finished run.
        self.sim: Counter = Counter()
        self._sim_lock = threading.Lock()
        #: Wrapper cost per call outside its timed window (ns).
        self.bias_ns = 0

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
            return st

    # -- wrappers ------------------------------------------------------------

    def _aggregate(self, layer: str, fn):
        perf = time.perf_counter_ns
        local = self._local
        new_state = self._state
        bias = self.bias_ns

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            stack.append(0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed + bias
                acc = st.acc[layer]
                acc[0] += elapsed - child
                acc[1] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanning(self, layer: str, fn):
        """:meth:`_aggregate`, plus a span around each call."""
        perf = time.perf_counter_ns
        state = self._state
        timed = self._aggregate(layer, fn)

        def wrapper(*args, **kwargs):
            st = state()
            span_id = next(self._span_ids)
            parent = st.spans[-1] if st.spans else None
            st.spans.append(span_id)
            t0 = perf()
            try:
                return timed(*args, **kwargs)
            finally:
                t1 = perf()
                st.spans.pop()
                self.spans.append({
                    "id": span_id, "name": layer, "parent": parent,
                    "job": st.job, "thread": threading.get_ident(),
                    "start_ns": t0 - self.t0_ns, "end_ns": t1 - self.t0_ns,
                })

        wrapper.__wrapped__ = fn
        return wrapper

    def _stats_observer(self, fn):
        """Sum each finished run's stats and engine counters."""
        sim, lock = self.sim, self._sim_lock

        def wrapper(machine, *args, **kwargs):
            stats = fn(machine, *args, **kwargs)
            engine = machine.engine
            with lock:
                sim["runs"] += 1
                sim["instructions"] += stats.mix.total
                sim["engine_ticks"] += engine.ticks_dispatched
                sim["engine_callbacks"] += engine.callbacks_dispatched
                sim["engine_stale"] += engine.stale_skipped
                sim["mfc_commands"] += stats.mfc.commands
                sim["mfc_bytes"] += stats.mfc.bytes_transferred
                sim["bus_transfers"] += stats.bus.transfers
                sim["bus_queue_wait_cycles"] += stats.bus.queue_wait_cycles
                sim["memory_port_wait_cycles"] += (
                    stats.memory.port_wait_cycles
                )
            return stats

        wrapper.__wrapped__ = fn
        return wrapper

    def _job_scope(self, fn):
        """Tag spans made while a served job executes with its id."""
        state = self._state

        def wrapper(scheduler, record, *args, **kwargs):
            st = state()
            outer, st.job = st.job, record.id
            try:
                return fn(scheduler, record, *args, **kwargs)
            finally:
                st.job = outer

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` (a module or class attribute) by
        ``make(original)``; :meth:`_restore` undoes it."""
        owned = not isinstance(owner, type) or name in vars(owner)
        original = vars(owner)[name] if owned else getattr(owner, name)
        # Record before setattr: a failure part-way still restores it.
        self._patches.append((owner, name, original, owned))
        setattr(owner, name, make(original))

    def _calibrate(self, rounds: int = 5, calls: int = 20_000) -> int:
        """Per-call wrapper cost outside the timed window, in ns: the
        wrapped minus the plain cost of a no-op call, less the time the
        wrapper measured inside its window (the lowest of ``rounds``)."""
        perf = time.perf_counter_ns

        def noop():
            return None

        acc = self._state().acc
        best = None
        for _ in range(rounds):
            wrapped = self._aggregate("calibration", noop)
            t0 = perf()
            for _ in range(calls):
                noop()
            plain = perf() - t0
            inside = acc["calibration"][0]
            t0 = perf()
            for _ in range(calls):
                wrapped()
            total = perf() - t0
            inside = acc["calibration"][0] - inside
            cost = (total - plain - inside) / calls
            best = cost if best is None else min(best, cost)
        del acc["calibration"]
        return max(0, round(best))

    def overhead_s(self) -> float:
        """Wrapper time charged to no layer: calls x :attr:`bias_ns`."""
        return sum(calls for _, calls in self.totals().values()) * (
            self.bias_ns / 1e9
        )

    def __enter__(self) -> "LayerTracer":
        import importlib

        from repro.sim import engine

        self.bias_ns = self._calibrate()
        try:
            for module in _CALLBACK_MODULES:
                importlib.import_module(module)
            for (module, cls_name), layer in TICK_LAYERS.items():
                cls = getattr(importlib.import_module(module), cls_name)
                self._patch(cls, "tick",
                            lambda fn, layer=layer: self._aggregate(layer, fn))
            for kind, fn in list(engine._CALLBACK_KINDS.items()):
                layer = CALLBACK_LAYERS.get(kind.split(".")[0], "engine")
                self._registry_patches.append((kind, fn))
                engine._CALLBACK_KINDS[kind] = self._aggregate(layer, fn)
            for module, path, layer in CALL_LAYERS:
                owner, name = _resolve(module, path)
                self._patch(owner, name,
                            lambda fn, layer=layer: self._aggregate(layer, fn))
            from repro.cell.machine import Machine
            from repro.serve.scheduler import JobScheduler

            self._patch(
                Machine, "collect_stats",
                lambda fn: self._stats_observer(
                    self._aggregate("machine.stats", fn)),
            )
            self._patch(
                JobScheduler, "_execute",
                lambda fn: self._job_scope(
                    self._aggregate("serve.execute", fn)),
            )
            for module, path, layer in SPAN_LAYERS:
                owner, name = _resolve(module, path)
                self._patch(owner, name,
                            lambda fn, layer=layer: self._spanning(layer, fn))
        except BaseException:
            self._restore()
            raise
        self.t0_ns, self.t0_wall = time.perf_counter_ns(), time.time()
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        from repro.sim import engine

        while self._patches:
            owner, name, original, owned = self._patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        while self._registry_patches:
            kind, fn = self._registry_patches.pop()
            engine._CALLBACK_KINDS[kind] = fn

    # -- results -------------------------------------------------------------

    def totals(self) -> "dict[str, tuple[float, int]]":
        """layer -> (self seconds, calls), merged over threads."""
        merged: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for layer, (ns, calls) in list(st.acc.items()):
                merged[layer][0] += ns
                merged[layer][1] += calls
        return {
            layer: (ns / 1e9, calls) for layer, (ns, calls) in merged.items()
        }

    def add_span(self, name: str, start: float, end: float, job: str) -> None:
        """Record a span timed elsewhere, from ``time.time()`` stamps
        (a served job, from the gateway's own timestamps)."""
        self.spans.append({
            "id": next(self._span_ids), "name": name, "parent": None,
            "job": job, "thread": None,
            "start_ns": round((start - self.t0_wall) * 1e9),
            "end_ns": round((end - self.t0_wall) * 1e9),
        })
