"""Checkpoint building blocks: callback descriptors, live-entry filtering
and the checkpoint file format's rejection paths."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cell.machine import Machine
from repro.sim.component import Component
from repro.sim.engine import Callback, Engine, register_callback
from repro.sim.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    read_header,
    save_checkpoint,
)
from repro.sim.watchdog import ProgressWatchdog, SimulationLivelock
from repro.testing import small_config
from repro.workloads import matmul


class Recorder(Component):
    """Component that records the payloads its callbacks deliver."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.seen: list[tuple] = []

    def _on_event(self, *payload) -> None:
        self.seen.append(payload)

    def tick(self, now: int) -> int | None:
        return None


register_callback("test.record", Recorder._on_event)


def _checkpointed_machine(tmp_path):
    """A finished reference run that left one mid-flight checkpoint."""
    wl = matmul.build(n=4, threads=2)
    machine = Machine(small_config(1))
    machine.load(wl.activity)
    result = machine.run(checkpoint_at=[100], checkpoint_dir=str(tmp_path))
    paths = sorted(tmp_path.glob("*.ckpt"))
    assert len(paths) == 1
    return wl, result, paths[0]


class TestCallbackDescriptors:
    def test_unregistered_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unregistered callback kind"):
            Callback("no.such.kind", object())

    def test_reregistering_same_function_is_idempotent(self):
        register_callback("test.record", Recorder._on_event)

    def test_reregistering_conflicting_function_is_an_error(self):
        with pytest.raises(ValueError, match="already registered"):
            register_callback("test.record", lambda owner: None)

    def test_descriptor_dispatches_like_the_closure_it_replaces(self):
        eng = Engine()
        r = eng.register(Recorder("r"))
        eng.call_at(5, Callback("test.record", r, (1, "x")))
        eng.drain()
        assert r.seen == [(1, "x")]
        assert eng.callbacks_dispatched == 1

    def test_descriptor_pickles_and_rearms(self):
        r = Recorder("r")
        cb = Callback("test.record", r, (7,))
        clone = pickle.loads(pickle.dumps(cb))
        assert (clone.kind, clone.payload) == ("test.record", (7,))
        clone.owner.seen.clear()
        clone()
        assert clone.owner.seen == [(7,)]

    def test_unpickled_descriptor_runs_its_kinds_function(self):
        # The pickled form is plain data; the executor is looked up by
        # kind again when the descriptor is unpickled.
        r = Recorder("r")
        cb = Callback("test.record", r, ("again",))
        assert cb.__getstate__() == ("test.record", r, ("again",))
        owner, clone = pickle.loads(pickle.dumps((r, cb)))
        assert clone.owner is owner
        eng = Engine()
        eng.register(owner)
        eng.call_at(3, clone)
        eng.drain()
        assert owner.seen == [("again",)]
        assert r.seen == []

    def test_describe_names_kind_and_owner(self):
        cb = Callback("test.record", Recorder("mfc0"))
        assert cb.describe() == "test.record(mfc0)"


class TestPeekEventsFiltersStale:
    def test_superseded_tick_never_named_in_reports(self):
        eng = Engine()
        r = eng.register(Recorder("victim"))
        eng.schedule(r, 50)
        eng.schedule(r, 10)  # supersedes; cycle-50 entry goes stale
        lines = eng.peek_events(8)
        assert lines == ["cycle 10: tick victim"]

    def test_peek_respects_dispatch_order_and_limit(self):
        eng = Engine()
        comps = [eng.register(Recorder(f"c{i}")) for i in range(4)]
        for i, c in enumerate(comps):
            eng.schedule(c, 10 + i)
        assert eng.peek_events(2) == [
            "cycle 10: tick c0", "cycle 11: tick c1",
        ]


class TestCheckpointFileFormat:
    def test_header_roundtrip(self, tmp_path):
        _wl, _result, path = _checkpointed_machine(tmp_path)
        header = read_header(str(path))
        assert header["magic"] == MAGIC
        assert header["version"] == FORMAT_VERSION
        assert header["cycle"] >= 100
        assert header["payload_bytes"] > 0

    def test_truncated_payload_rejected(self, tmp_path):
        _wl, _result, path = _checkpointed_machine(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-30])
        with pytest.raises(CheckpointError, match="truncated"):
            Machine.load_checkpoint(str(path))

    def test_corrupt_payload_rejected_by_digest(self, tmp_path):
        _wl, _result, path = _checkpointed_machine(tmp_path)
        data = bytearray(path.read_bytes())
        data[-100] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            Machine.load_checkpoint(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.ckpt"
        path.write_bytes(b'{"magic": "something-else"}\n')
        with pytest.raises(CheckpointError, match="bad magic"):
            read_header(str(path))

    def test_unparseable_header_rejected(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"\x00\x01\x02 this is not json\n")
        with pytest.raises(CheckpointError, match="unparseable header"):
            read_header(str(path))

    def test_future_format_version_rejected(self, tmp_path):
        _wl, _result, path = _checkpointed_machine(tmp_path)
        data = path.read_bytes()
        head, _, payload = data.partition(b"\n")
        header = json.loads(head)
        header["version"] = FORMAT_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="version"):
            Machine.load_checkpoint(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("version", 1, "version 1"),
        ("version", 2, "version 2"),
        ("code", "0123456789abcdef", "other code"),
    ], ids=["version-1", "version-2", "code"])
    def test_old_or_foreign_file_runs_fresh(self, tmp_path, field, value,
                                            message):
        # Files of older formats, and files written by other code, are
        # rejected, and run_workload treats them as unusable.
        from repro.bench.runner import run_workload

        wl, result, path = _checkpointed_machine(tmp_path)
        data = path.read_bytes()
        head, _, payload = data.partition(b"\n")
        header = json.loads(head)
        header[field] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match=message):
            Machine.load_checkpoint(str(path))
        fresh = run_workload(wl, small_config(1), prefetch=False,
                             restore_from=str(path))
        assert fresh.cycles == result.cycles
        assert fresh.stats == result.stats

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_header(str(tmp_path / "absent.ckpt"))

    def test_no_tmp_file_left_behind(self, tmp_path):
        _checkpointed_machine(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []


class TestSaveRejectsUncheckpointableState:
    def test_machine_without_activity_rejected(self):
        machine = Machine(small_config(1))
        with pytest.raises(CheckpointError, match="no activity"):
            save_checkpoint(machine, "/dev/null")

    def test_bare_callable_in_heap_rejected(self, tmp_path):
        wl = matmul.build(n=4, threads=2)
        machine = Machine(small_config(1))
        machine.load(wl.activity)
        machine.engine.call_at(50, lambda: None)  # ad-hoc closure
        with pytest.raises(CheckpointError, match="bare callable"):
            save_checkpoint(machine, str(tmp_path / "x.ckpt"))


class _Busy(Component):
    """Keeps the event queue non-empty so the watchdog sees a livelock."""

    def tick(self, now: int) -> int | None:
        return now + 1


class TestWatchdogReport:
    def _livelock(self, checkpoint=None, last_checkpoint=None):
        eng = Engine()
        eng.register(_Busy("busy"))
        dog = eng.register(
            ProgressWatchdog(
                "dog", interval=10, stall_cycles=30,
                progress=lambda: 0,  # frozen forever
                checkpoint=checkpoint, last_checkpoint=last_checkpoint,
            )
        )
        eng.schedule(eng.components[0], 1)
        dog.start()
        with pytest.raises(SimulationLivelock) as exc:
            eng.run(until=lambda: False, max_cycles=10_000)
        return str(exc.value)

    def test_report_includes_engine_counters(self):
        report = self._livelock()
        assert "live events pending" in report
        assert "stale" in report
        assert "ticks" in report and "callbacks dispatched" in report
        assert "heap compactions" in report
        assert "last checkpoint: none taken" in report

    def test_report_names_last_checkpoint(self):
        report = self._livelock(
            last_checkpoint=lambda: (1234, "/ckpt/run.ckpt"),
        )
        assert "last checkpoint: cycle 1234 -> /ckpt/run.ckpt" in report

    def test_livelock_auto_checkpoints_before_raising(self):
        saved: list[str] = []

        def checkpoint() -> str:
            saved.append("taken")
            return "/ckpt/livelock.ckpt"

        report = self._livelock(checkpoint=checkpoint)
        assert saved == ["taken"]
        assert "state checkpointed to: /ckpt/livelock.ckpt" in report
