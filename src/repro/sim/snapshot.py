"""Deterministic whole-machine checkpoint/restore.

A checkpoint captures *everything mutable* about a running
:class:`~repro.cell.machine.Machine` mid-flight — SPU pipelines (also
ahead of the engine), LSE/DSE queues, MFC in-flight transfers, bus
arbitration, main-memory contents and queues, frames/threads, statistics,
fault-injector RNG streams, sanitizer bookkeeping and attached hub/tracer
state — such that a fresh process can rebuild the machine and continue
**bit-identically**: run-to-completion equals run-to-checkpoint +
restore + continue, for stats, workload outputs and profiles alike.

Approach
--------
Structure that is *derivable from the config* (the component graph, the
wiring, registration order) is not serialized: restore rebuilds it by
constructing ``Machine(config)`` and re-loading the activity, then lays
the saved mutable state over it.  Long-lived structural objects — the
machine, the engine, every registered component, the SPE shells, the
activity and its thread programs, the config — cross the pickle boundary
as *persistent references* resolved against the freshly built machine.
Everything else (stats, local stores, frames, thread instances, DMA
commands, in-flight messages, metric instruments, RNG streams) is pickled
by value in **one** pickle, whose memo preserves every shared-object
identity: the ``DmaCommand`` inside ``mfc._inflight`` and the one inside
a pending ``mfc.retry`` heap callback deserialize to the same object,
exactly as they were.

The event heap serializes because :meth:`Engine.call_at` sites schedule
:class:`~repro.sim.engine.Callback` descriptors (a registered *kind*
plus plain payload) instead of closures; a heap holding a bare callable
cannot be checkpointed and is rejected loudly.

File format
-----------
Line 1 is a JSON header::

    {"magic": "repro-checkpoint", "version": 2, "cycle": N,
     "payload_bytes": M, "digest": "<sha256 of the payload>"}

followed by exactly ``payload_bytes`` of payload: two concatenated
pickles — part A (config + activity + metadata, loadable without an
existing machine) and part B (the persistent-reference state).  The
digest covers the whole payload, so torn writes, truncation and bit rot
are detected and rejected (:class:`CheckpointError`), never silently
loaded.  Writes go through a temp file + ``os.replace`` so a crash
mid-save can never produce a half-written file under the final name.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import typing

from repro.sim.component import Component
from repro.sim.engine import Callback

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cell.machine import Machine

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint",
           "read_header", "FORMAT_VERSION", "MAGIC"]

MAGIC = "repro-checkpoint"
FORMAT_VERSION = 2

#: Machine attributes that belong to the *run harness*, not the machine
#: state: re-initialized fresh on restore, never serialized.
_MACHINE_EXCLUDE = frozenset({
    "_resumed", "_last_checkpoint", "_ckpt_dir", "_ckpt_name",
})


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, or is unusable and was rejected."""


# -- persistent-reference pickling -------------------------------------------


class _Pickler(pickle.Pickler):
    """Maps structural objects to persistent IDs; all else by value."""

    def __init__(self, file, machine: "Machine") -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._machine = machine
        self._engine = machine.engine
        # id()-keyed maps: every key is kept alive by the machine for the
        # duration of the dump, so ids are stable and collision-free.
        # (Keying by the objects themselves would invoke user __eq__/
        # __hash__, which ThreadProgram and friends do not guarantee.)
        self._components = {
            id(c): c._order for c in machine.engine.components
        }
        self._spes = {id(s): i for i, s in enumerate(machine.spes)}
        self._programs = {id(p): i for i, p in enumerate(machine._programs)}

    def persistent_id(self, obj):
        if obj is self._machine:
            return ("machine",)
        if obj is self._engine:
            return ("engine",)
        if obj is self._machine.config:
            return ("config",)
        if obj is self._machine._activity:
            return ("activity",)
        oid = id(obj)
        order = self._components.get(oid)
        if order is not None:
            return ("component", order)
        spe = self._spes.get(oid)
        if spe is not None:
            return ("spe", spe)
        prog = self._programs.get(oid)
        if prog is not None:
            return ("program", prog)
        return None


class _Unpickler(pickle.Unpickler):
    """Resolves persistent IDs against a freshly constructed machine."""

    def __init__(self, file, machine: "Machine") -> None:
        super().__init__(file)
        self._machine = machine

    def persistent_load(self, pid):
        kind = pid[0]
        m = self._machine
        if kind == "machine":
            return m
        if kind == "engine":
            return m.engine
        if kind == "config":
            return m.config
        if kind == "activity":
            return m._activity
        if kind == "component":
            return m.engine.components[pid[1]]
        if kind == "spe":
            return m.spes[pid[1]]
        if kind == "program":
            return m._programs[pid[1]]
        raise CheckpointError(f"unknown persistent reference {pid!r}")


# -- save ---------------------------------------------------------------------


def _check_heap_serializable(machine: "Machine") -> None:
    for entry in machine.engine._heap:
        target = entry[4]
        if not isinstance(target, (Component, Callback)):
            raise CheckpointError(
                f"cannot checkpoint: pending event at cycle {entry[0]} is a "
                f"bare callable ({target!r}); production call_at sites must "
                f"schedule Callback descriptors"
            )


def _capture(machine: "Machine") -> dict:
    """The persistent-reference state dict (part B)."""
    engine = machine.engine
    return {
        "engine": {
            "now": engine._now,
            "heap": list(engine._heap),
            "seq": engine._seq,
            "live": engine._live,
            "callbacks": engine._callbacks,
            "ticks_dispatched": engine.ticks_dispatched,
            "callbacks_dispatched": engine.callbacks_dispatched,
            "stale_skipped": engine.stale_skipped,
            "compactions": engine.compactions,
        },
        "components": [c.snapshot_state() for c in engine.components],
        "spes": [dict(spe.__dict__) for spe in machine.spes],
        "machine": {
            k: v for k, v in machine.__dict__.items()
            if k not in _MACHINE_EXCLUDE
        },
    }


def save_checkpoint(machine: "Machine", path: str) -> str:
    """Write a checkpoint of ``machine`` to ``path`` atomically.

    Returns ``path``.  The machine must have an activity loaded; the
    pending event heap must hold only serializable descriptors.
    """
    if machine._activity is None:
        raise CheckpointError("cannot checkpoint a machine with no activity")
    _check_heap_serializable(machine)
    meta = {
        "cycle": machine.engine.now,
        "activity": machine._activity.name,
        "num_components": len(machine.engine.components),
        "hub_attached": machine.hub is not None,
        "tracer_attached": machine.tracer is not None,
    }
    buf = io.BytesIO()
    try:
        # Part A: loadable with no machine (plain pickle, no persistent
        # refs) — what restore needs to *construct* one.
        pickle.dump(
            {"config": machine.config, "activity": machine._activity,
             "meta": meta},
            buf, protocol=pickle.HIGHEST_PROTOCOL,
        )
        # Part B: the full mutable state, one pickle, shared memo.
        _Pickler(buf, machine).dump(_capture(machine))
    except (TypeError, AttributeError, pickle.PicklingError) as exc:
        raise CheckpointError(
            f"machine state is not serializable: {exc} (file-backed trace "
            f"sinks and ad-hoc closures cannot be checkpointed)"
        ) from exc
    payload = buf.getvalue()
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "cycle": meta["cycle"],
        "payload_bytes": len(payload),
        "digest": hashlib.sha256(payload).hexdigest(),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


# -- load ---------------------------------------------------------------------


def read_header(path: str) -> dict:
    """Validate and return the header of the checkpoint at ``path``."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(line)
    except ValueError:
        raise CheckpointError(
            f"{path}: not a checkpoint (unparseable header)"
        ) from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {header.get('version')} is "
            f"not supported (this build reads version {FORMAT_VERSION})"
        )
    return header


def _read_payload(path: str) -> tuple[dict, bytes]:
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.readline()
        payload = fh.read()
    expected = header.get("payload_bytes")
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: truncated checkpoint ({len(payload)} of {expected} "
            f"payload bytes present)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("digest"):
        raise CheckpointError(
            f"{path}: checkpoint payload digest mismatch (file is corrupt)"
        )
    return header, payload


def load_checkpoint(path: str) -> "Machine":
    """Rebuild the machine checkpointed at ``path``, mid-flight.

    The returned machine is ready for ``run()``: calling it continues the
    simulation from the checkpointed cycle and produces results
    bit-identical to the uninterrupted run.
    """
    from repro.cell.machine import Machine

    _header, payload = _read_payload(path)
    buf = io.BytesIO(payload)
    try:
        part_a = pickle.load(buf)
    except Exception as exc:
        raise CheckpointError(
            f"{path}: checkpoint metadata is unreadable: {exc}"
        ) from exc
    meta = part_a["meta"]
    machine = Machine(part_a["config"])
    if meta["hub_attached"]:
        # Attach a placeholder hub *before* restoring, so the sampler
        # component exists at the same registration order as when the
        # checkpoint was taken; its state (and the machine's hub) are
        # then overwritten wholesale by the restore below.
        from repro.obs.hub import MetricsHub

        machine.attach_hub(MetricsHub())
    machine.load(part_a["activity"])
    if len(machine.engine.components) != meta["num_components"]:
        raise CheckpointError(
            f"{path}: rebuilt machine has "
            f"{len(machine.engine.components)} components, checkpoint "
            f"recorded {meta['num_components']} — config drift?"
        )
    try:
        state = _Unpickler(buf, machine).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"{path}: checkpoint state is unreadable: {exc}"
        ) from exc

    engine = machine.engine
    es = state["engine"]
    engine._now = es["now"]
    engine._heap[:] = es["heap"]
    engine._seq = es["seq"]
    engine._live = es["live"]
    engine._callbacks = es["callbacks"]
    engine.ticks_dispatched = es["ticks_dispatched"]
    engine.callbacks_dispatched = es["callbacks_dispatched"]
    engine.stale_skipped = es["stale_skipped"]
    engine.compactions = es["compactions"]
    for component, cstate in zip(engine.components, state["components"]):
        component.restore_state(cstate)
    for spe, sstate in zip(machine.spes, state["spes"]):
        spe.__dict__.update(sstate)
    machine.__dict__.update(state["machine"])
    machine._resumed = True
    return machine
