"""Job scheduler: worker-pool dispatch + request coalescing.

The scheduler owns the job lifecycle::

    submitted -> queued -> running -> (retrying ->)* done | failed
                   \\-> cancelled

``workers`` asyncio worker tasks pull from the :class:`JobQueue` and
execute each job's simulation batch in a thread
(:func:`asyncio.to_thread`) through the existing resilient
:func:`repro.bench.parallel.run_many_detailed` machinery — process
pools, per-task timeouts, bounded retries, checkpoint-resume and the
journal all come for free, and every retry surfaces to streaming
clients as a ``retrying`` event (via the ``on_retry`` hook).

Request coalescing
------------------
Identical jobs dedupe at two layers:

* **in flight** — a submit whose :func:`~repro.serve.protocol.job_key`
  matches a queued/running job *attaches* to that job's record instead
  of enqueueing new work: N clients asking for the same sweep cost one
  simulation and all stream the same events;
* **persistent** — the underlying tasks are keyed by the
  :class:`~repro.bench.cache.ResultCache` content hash, so a job whose
  results are already cached (from the CLI, a previous job, or a
  previous server life) performs zero simulations.

Every payload embeds :data:`~repro.serve.protocol.SCHEMA_VERSION`.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Callable

from repro.serve import protocol
from repro.serve.protocol import SCHEMA_VERSION, JobRequest, JobSpec
from repro.serve.queue import JobQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.cache import ResultCache
    from repro.obs.hub import MetricsHub

__all__ = [
    "JobRecord",
    "JobScheduler",
    "JobFailed",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class JobFailed(RuntimeError):
    """A job's batch permanently failed; carries the failure taxonomy."""

    def __init__(self, message: str, failures: "dict | None" = None) -> None:
        super().__init__(message)
        self.failures = failures or {}


class JobRecord:
    """One accepted job: state, event log, streaming waiters, payload."""

    def __init__(self, job_id: str, request: JobRequest, key: str) -> None:
        self.id = job_id
        self.request = request
        self.key = key
        self.state = QUEUED
        self.created = time.time()
        self.started: "float | None" = None
        self.finished: "float | None" = None
        #: Transient-retry notifications observed (timeouts, crashes).
        self.retries = 0
        #: Followers attached by in-flight coalescing (0 = unique).
        self.coalesced = 0
        #: True when the batch performed zero new simulations (every
        #: task served by the persistent result cache).
        self.cached = False
        self.result: "dict | None" = None
        self.error: "dict | None" = None
        self.events: "list[dict]" = []
        self._waiters: "list[asyncio.Future]" = []
        self._done_event: "asyncio.Event" = asyncio.Event()

    # -- event log -----------------------------------------------------------

    def post(self, event: str, **fields: object) -> None:
        """Append an event (event-loop thread only) and wake streamers."""
        entry = {"event": event, "job": self.id, "seq": len(self.events)}
        entry.update(fields)
        self.events.append(entry)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)
        if self.state in TERMINAL_STATES:
            self._done_event.set()

    async def stream(self, start: int = 0):
        """Yield events from index ``start``; ends after a terminal event."""
        i = start
        while True:
            while i < len(self.events):
                yield self.events[i]
                i += 1
            if self.state in TERMINAL_STATES:
                return
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter

    async def wait(self, timeout: "float | None" = None) -> dict:
        """Block until terminal; returns the final status dict."""
        await asyncio.wait_for(self._done_event.wait(), timeout)
        return self.status_dict()

    # -- views ---------------------------------------------------------------

    def status_dict(self) -> dict:
        spec = self.request.spec
        out = {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "state": self.state,
            "kind": spec.kind,
            "label": spec.label,
            "client": self.request.client,
            "priority": self.request.priority,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "retries": self.retries,
            "coalesced": self.coalesced,
            "cached": self.cached,
            "events": len(self.events),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class JobScheduler:
    """Dispatches accepted jobs over ``workers`` concurrent executors."""

    def __init__(
        self,
        cache: "ResultCache | None" = None,
        hub: "MetricsHub | None" = None,
        queue: "JobQueue | None" = None,
        workers: int = 2,
        sim_jobs: int = 1,
        timeout: "float | None" = None,
        retries: "int | None" = None,
        backoff: float = 0.5,
        checkpoint_every: "int | None" = None,
        max_depth: int = 64,
        build_tasks: "Callable[[JobSpec], list] | None" = None,
        history_limit: int = 512,
    ) -> None:
        self.cache = cache
        self.hub = hub
        self.workers = max(1, workers)
        #: Worker processes each batch may fan out to (run_many jobs=).
        self.sim_jobs = max(1, sim_jobs)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint_every = checkpoint_every
        self.queue = queue if queue is not None else JobQueue(
            max_depth=max_depth, workers=self.workers, hub=hub,
        )
        #: Task-list factory; tests substitute stub tasks through this.
        self.build_tasks = build_tasks or protocol.build_tasks
        self.history_limit = history_limit
        self.records: "dict[str, JobRecord]" = {}
        #: Non-terminal records by coalescing key.
        self.inflight: "dict[str, JobRecord]" = {}
        self.draining = False
        self._counter = 0
        self._active = 0
        self._cond: "asyncio.Condition | None" = None
        self._worker_tasks: "list[asyncio.Task]" = []
        self._journal = None
        if cache is not None:
            from repro.bench.journal import SweepJournal

            self._journal = SweepJournal.for_cache(cache)
        if hub is not None:
            self._c_submitted = hub.counter("serve.jobs_submitted")
            self._c_done = hub.counter("serve.jobs_done")
            self._c_failed = hub.counter("serve.jobs_failed")
            self._c_coalesced = hub.counter("serve.jobs_coalesced")
            self._g_active = hub.gauge("serve.jobs_active")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks (call once, on the serving loop)."""
        self._cond = asyncio.Condition()
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def drain(self) -> None:
        """Stop dispatching *new* submissions, finish every accepted job.

        Queued jobs still execute (an accepted job is a promise); only
        after the queue is empty and every worker is idle do the worker
        tasks exit.  The journal needs no explicit flush — every settled
        task was fsync'd the moment it finished.
        """
        self.draining = True
        if self._cond is not None:
            async with self._cond:
                self._cond.notify_all()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []

    @property
    def active(self) -> int:
        """Jobs currently executing on a worker."""
        return self._active

    @property
    def settled(self) -> bool:
        return not self.queue and self._active == 0

    # -- submission ----------------------------------------------------------

    def _next_id(self) -> str:
        self._counter += 1
        return f"j-{self._counter:06d}"

    def _prune_history(self) -> None:
        if len(self.records) <= self.history_limit:
            return
        terminal = [
            jid for jid, rec in self.records.items()
            if rec.state in TERMINAL_STATES
        ]
        # Oldest first (insertion order == submission order).
        for jid in terminal[: len(self.records) - self.history_limit]:
            del self.records[jid]

    async def submit(self, request: JobRequest) -> "tuple[JobRecord, bool]":
        """Accept a job; returns ``(record, coalesced)``.

        Raises :class:`~repro.serve.queue.QueueFull` at capacity and
        :class:`RuntimeError` while draining (the HTTP layer maps both
        to 503).  A request whose coalescing key matches an in-flight
        job attaches to it — no new queue slot, no new simulation.
        """
        tasks = self.build_tasks(request.spec)
        key = protocol.job_key(request.spec, tasks)
        existing = self.inflight.get(key)
        if existing is not None and existing.state not in TERMINAL_STATES:
            existing.coalesced += 1
            if self.hub is not None:
                self._c_coalesced.add()
            existing.post("coalesced", client=request.client,
                          followers=existing.coalesced)
            return existing, True
        if self.draining:
            raise RuntimeError("server is draining; not accepting jobs")
        record = JobRecord(self._next_id(), request, key)
        record._tasks = tasks  # computed once; the executor reuses it
        self.queue.push(record)  # may raise QueueFull — nothing registered yet
        self.records[record.id] = record
        self.inflight[key] = record
        self._prune_history()
        if self.hub is not None:
            self._c_submitted.add()
        record.post("queued", label=request.spec.label,
                    position=len(self.queue))
        if self._cond is not None:
            async with self._cond:
                self._cond.notify()
        return record, False

    def cancel(self, job_id: str) -> "tuple[bool, str]":
        """Cancel a *queued* job; running jobs are not interruptible.

        Returns ``(ok, reason)``; ``reason`` explains a refusal.
        """
        record = self.records.get(job_id)
        if record is None:
            return False, "unknown job"
        if record.state in TERMINAL_STATES:
            return False, f"job already {record.state}"
        if record.state == RUNNING:
            return False, "job is running (results will land in the cache)"
        if not self.queue.remove(job_id):
            return False, "job is no longer queued"
        record.state = CANCELLED
        record.finished = time.time()
        self.inflight.pop(record.key, None)
        record.post("cancelled")
        return True, "cancelled"

    # -- execution -----------------------------------------------------------

    async def _pop(self) -> "JobRecord | None":
        assert self._cond is not None, "scheduler not started"
        async with self._cond:
            while True:
                record = self.queue.pop()
                if record is not None:
                    return record
                if self.draining:
                    return None
                await self._cond.wait()

    async def _worker(self) -> None:
        while True:
            record = await self._pop()
            if record is None:
                return
            await self._run_record(record)

    async def _run_record(self, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        record.state = RUNNING
        record.started = time.time()
        self._active += 1
        if self.hub is not None:
            self._g_active.observe(int(time.time()), self._active)
        record.post("running")

        def progress(msg: str) -> None:
            def _post() -> None:
                record.post("log", message=msg)
            loop.call_soon_threadsafe(_post)

        def on_retry(index: int, kind: str, attempt: int) -> None:
            def _post() -> None:
                record.retries += 1
                record.post(
                    "retrying", task=index, kind=kind, attempt=attempt,
                )
            loop.call_soon_threadsafe(_post)

        try:
            payload = await asyncio.to_thread(
                self._execute, record, progress, on_retry
            )
        except JobFailed as exc:
            record.state = FAILED
            record.error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "failures": exc.failures,
            }
            if self.hub is not None:
                self._c_failed.add()
        except Exception as exc:  # defense: a bug must not kill the worker
            record.state = FAILED
            record.error = {"type": type(exc).__name__, "message": str(exc)}
            if self.hub is not None:
                self._c_failed.add()
        else:
            record.state = DONE
            record.result = payload
            if self.hub is not None:
                self._c_done.add()
        finally:
            record.finished = time.time()
            self._active -= 1
            if self.hub is not None:
                self._g_active.observe(int(time.time()), self._active)
            self.queue.note_duration(record.finished - record.started)
            self.inflight.pop(record.key, None)
        if record.state == DONE:
            record.post("done", cached=record.cached,
                        duration=round(record.finished - record.started, 6))
        else:
            record.post("failed", error=record.error)

    def _execute(self, record: JobRecord, progress, on_retry) -> dict:
        """Run one job's batch (worker thread); returns the payload."""
        spec = record.request.spec
        if spec.kind == "profile":
            return self._execute_profile(spec)
        from repro.bench.parallel import run_many_detailed

        tasks = record._tasks
        batch = run_many_detailed(
            tasks,
            jobs=self.sim_jobs,
            cache=self.cache,
            progress=progress,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            journal=self._journal,
            checkpoint_every=self.checkpoint_every,
            on_retry=on_retry,
        )
        if batch.failures:
            first = batch.failures[min(batch.failures)]
            raise JobFailed(
                f"{len(batch.failures)} of {len(tasks)} run(s) failed: "
                f"{first.describe()}",
                failures={
                    tasks[i].label: {
                        "kind": info.kind,
                        "attempts": info.attempts,
                        "error": f"{type(info.error).__name__}: {info.error}",
                        "faults": info.faults,
                    }
                    for i, info in sorted(batch.failures.items())
                },
            )
        record.cached = sum(batch.attempts) == 0
        return self._payload(spec, tasks, batch.results)

    def _execute_profile(self, spec: JobSpec) -> dict:
        """Profile jobs run under the observability hub (not cached —
        profiles carry bounded timeseries, not just a RunResult)."""
        from repro.bench.export import run_to_dict
        from repro.bench.job import profile_job

        result, profile = profile_job(spec)
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "profile",
            "run": run_to_dict(result, profile=profile),
            "profile": profile.to_dict(),
        }

    def _payload(self, spec: JobSpec, tasks, results) -> dict:
        from repro.bench.export import run_to_dict, scaling_to_dict
        from repro.bench.runner import ScalingResult, pair_results

        if spec.kind == "run":
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "run",
                "run": run_to_dict(results[0]),
            }
        scaling = ScalingResult(
            workload=tasks[0].workload.name,
            pairs=dict(zip(spec.spes, pair_results(tasks, results))),
        )
        out = scaling_to_dict(scaling)
        out["schema_version"] = SCHEMA_VERSION
        out["kind"] = "sweep"
        return out
