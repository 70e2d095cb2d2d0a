"""Machine-checkpoint integration of the run_many harness.

Harness-level resume (journal + cache) settles *finished* tasks; the
machine-checkpoint layer tested here resumes *interrupted* tasks from
their latest mid-flight snapshot — after a timeout kill, a worker crash,
or a whole batch killed and re-run — without re-simulating from cycle 0
and without perturbing results (bit-identity is the contract).

Stub tasks follow the :class:`~repro.bench.parallel.RunTask` protocol
(``label``, ``key()``, ``run()``) *plus* the checkpoint fields the
harness rewrites via ``dataclasses.replace``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.bench.cache import ResultCache
from repro.bench.journal import SweepJournal
from repro.bench.parallel import (
    TIMEOUT,
    pair_tasks,
    run_many,
    run_many_detailed,
)
from repro.bench.runner import run_workload
from repro.cell.machine import Machine
from repro.testing import small_config
from repro.workloads import matmul


def _workload():
    return matmul.build(n=4, threads=2)


def _tasks():
    return list(pair_tasks(_workload(), small_config(1)))


@dataclass(frozen=True)
class StubResult:
    cycles: int = 1


@dataclass(frozen=True)
class CheckpointStubTask:
    """RunTask-shaped stub exposing the checkpoint fields."""

    name: str
    checkpoint_every: "int | None" = None
    checkpoint_path: "str | None" = None
    restore_from: "str | None" = None

    @property
    def label(self) -> str:
        return self.name

    def key(self) -> str:
        return f"stub-{self.name}"

    def run(self) -> StubResult:
        return StubResult()


def _write_stub_checkpoint(path: str) -> None:
    # Real checkpoints makedirs their directory (snapshot.save_checkpoint);
    # the stubs mirror that.
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("mid-flight state")


@dataclass(frozen=True)
class FailAfterCheckpointTask(CheckpointStubTask):
    """Writes its machine checkpoint, then fails deterministically."""

    def run(self) -> StubResult:
        _write_stub_checkpoint(self.checkpoint_path)
        raise ValueError("boom after checkpointing")


@dataclass(frozen=True)
class HangUnlessRestoredTask(CheckpointStubTask):
    """First attempt checkpoints and hangs; a resumed attempt finishes.

    Models a run whose first attempt times out after snapshotting: the
    retry must arrive with ``restore_from`` pointing at that snapshot.
    """

    def run(self) -> StubResult:
        if self.restore_from and os.path.exists(self.restore_from):
            return StubResult(cycles=2)
        if self.checkpoint_path:  # layer on: snapshot before hanging
            _write_stub_checkpoint(self.checkpoint_path)
        time.sleep(60)
        return StubResult()  # pragma: no cover - killed before reaching


class TestCheckpointedBatch:
    def test_bit_identical_and_files_cleaned_on_success(self, tmp_path):
        ref = run_many(_tasks(), journal=None)
        ckdir = tmp_path / "ck"
        batch = run_many_detailed(
            _tasks(), journal=None,
            checkpoint_every=50, checkpoint_dir=str(ckdir),
        )
        assert batch.complete
        assert batch.results == ref
        # Settled tasks' checkpoints serve no purpose: deleted.
        assert list(ckdir.glob("*.ckpt")) == []

    def test_keep_checkpoints_defaults_dir_next_to_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks()
        batch = run_many_detailed(
            tasks, cache=cache, checkpoint_every=50, keep_checkpoints=True,
        )
        assert batch.complete
        ckdir = tmp_path / "cache" / "checkpoints"
        names = sorted(p.name for p in ckdir.glob("*.ckpt"))
        assert names == sorted(t.key() + ".ckpt" for t in tasks)
        # The journal records where each task's surviving snapshot lives.
        entries = SweepJournal.for_cache(cache).replay()
        for task in tasks:
            entry = entries[task.key()]
            assert entry.done
            assert entry.checkpoint == str(ckdir / (task.key() + ".ckpt"))

    def test_success_without_keep_records_no_checkpoint(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks()
        assert run_many_detailed(
            tasks, cache=cache, checkpoint_every=50,
        ).complete
        for entry in SweepJournal.for_cache(cache).replay().values():
            assert entry.checkpoint is None


class TestResumeFromLeftoverCheckpoint:
    def _plant_leftover(self, task, ckdir) -> str:
        """Forge what a killed attempt leaves behind: a real mid-flight
        machine checkpoint under the task's per-key file name."""
        machine = Machine(task.config)
        machine.load(task.workload.activity)  # base variant
        total = machine.run().cycles
        machine = Machine(task.config)
        machine.load(task.workload.activity)
        machine.run(checkpoint_at=[total // 2], checkpoint_dir=str(ckdir))
        (snapshot,) = ckdir.glob("*.ckpt")
        path = ckdir / (task.key() + ".ckpt")
        snapshot.rename(path)
        return str(path)

    def test_batch_resumes_bit_identically_then_cleans_up(self, tmp_path):
        base = _tasks()[0]
        (ref,) = run_many([base], journal=None)
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        path = self._plant_leftover(base, ckdir)
        batch = run_many_detailed(
            [base], journal=None,
            checkpoint_every=50, checkpoint_dir=str(ckdir),
        )
        assert batch.complete
        assert batch.results == [ref]
        assert not os.path.exists(path)

    def test_corrupt_leftover_falls_back_to_fresh_run(self, tmp_path):
        base = _tasks()[0]
        (ref,) = run_many([base], journal=None)
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        path = self._plant_leftover(base, ckdir)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # torn write
        result = run_workload(
            base.workload, base.config, prefetch=False, restore_from=path,
        )
        assert result == ref


class TestRestoreOfAnotherVariant:
    def test_prefetched_run_starts_fresh_from_unprefetched_checkpoint(
        self, tmp_path,
    ):
        # The prefetch transform keeps the activity's name, so only the
        # templates tell the two variants' checkpoints apart.
        workload, config = _workload(), small_config(1)
        path = str(tmp_path / "base.ckpt")
        run_workload(workload, config, prefetch=False, checkpoint_every=50,
                     checkpoint_path=path)
        assert os.path.exists(path)
        fresh = run_workload(workload, config, prefetch=True)
        resumed = run_workload(workload, config, prefetch=True,
                               restore_from=path)
        assert resumed.prefetch
        assert resumed == fresh


class TestFailureKeepsCheckpoint:
    def test_failed_task_checkpoint_kept_and_journaled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = FailAfterCheckpointTask("doomed")
        batch = run_many_detailed(
            [task], cache=cache, checkpoint_every=10,
        )
        assert not batch.complete
        path = str(tmp_path / "cache" / "checkpoints" / "stub-doomed.ckpt")
        # The snapshot is the next attempt's resume point: kept.
        assert os.path.exists(path)
        entry = SweepJournal.for_cache(cache).replay()["stub-doomed"]
        assert entry.failed
        assert entry.checkpoint == path


class TestTimeoutResumesFromCheckpoint:
    def test_retry_after_timeout_kill_restores(self, tmp_path):
        task = HangUnlessRestoredTask("hang-once")
        batch = run_many_detailed(
            [task], journal=None,
            timeout=1.5, retries=2, backoff=0.1,
            checkpoint_every=10, checkpoint_dir=str(tmp_path),
        )
        assert batch.complete
        assert batch.results[0].cycles == 2  # the restored-path result
        assert batch.attempts[0] == 2

    def test_timeout_without_checkpoint_still_fails_cleanly(self, tmp_path):
        task = HangUnlessRestoredTask("hang-forever")
        batch = run_many_detailed(
            [task], journal=None,
            timeout=1.0, retries=0, backoff=0.1,
            checkpoint_every=None,  # layer off: no snapshot, plain timeout
        )
        assert not batch.complete
        assert batch.failures[0].kind == TIMEOUT


class TestResumePrunesOrphans:
    def _settled_batch_with_checkpoints(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks()
        assert run_many_detailed(
            tasks, cache=cache, checkpoint_every=50, keep_checkpoints=True,
        ).complete
        ckdir = tmp_path / "cache" / "checkpoints"
        assert len(list(ckdir.glob("*.ckpt"))) == len(tasks)
        return cache, tasks, ckdir

    def test_resume_deletes_done_entries_checkpoints(self, tmp_path):
        cache, tasks, ckdir = self._settled_batch_with_checkpoints(tmp_path)
        batch = run_many_detailed(tasks, cache=cache, resume=True)
        assert batch.complete
        assert batch.resumed == len(tasks)  # served from journal + cache
        assert list(ckdir.glob("*.ckpt")) == []

    def test_keep_checkpoints_escape_hatch(self, tmp_path):
        cache, tasks, ckdir = self._settled_batch_with_checkpoints(tmp_path)
        batch = run_many_detailed(
            tasks, cache=cache, resume=True, keep_checkpoints=True,
        )
        assert batch.complete
        assert len(list(ckdir.glob("*.ckpt"))) == len(tasks)
