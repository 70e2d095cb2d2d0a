"""Deterministic whole-machine checkpoint/restore.

A checkpoint captures *everything* about a running
:class:`~repro.cell.machine.Machine` mid-flight — SPU pipelines (also
ahead of the engine), LSE/DSE queues, MFC in-flight transfers, bus
arbitration, main-memory contents and queues, frames/threads, statistics,
fault-injector RNG streams, sanitizer bookkeeping and attached hub/tracer
state — such that a fresh process can load it and continue
**bit-identically**: run-to-completion equals run-to-checkpoint +
restore + continue, for stats, workload outputs and profiles alike.

Approach
--------
The machine is pickled whole, in **one** pickle, whose memo preserves
every shared-object identity: the ``DmaCommand`` inside ``mfc._inflight``
and the one inside a pending ``mfc.retry`` heap callback deserialize to
the same object, exactly as they were.  Two hooks shape the pickle:
``Machine.__getstate__`` saves the machine marked as resumed, with fresh
run-harness bookkeeping, and ``DecodedProgram.__reduce__`` saves a decoded
table as its program, decoded again on load (its rows hold per-opcode
closures).

The event heap serializes because :meth:`Engine.call_at` sites schedule
:class:`~repro.sim.engine.Callback` descriptors (a registered *kind*
plus plain payload) instead of closures; a heap holding a bare callable
cannot be checkpointed and is rejected loudly.

File format
-----------
Line 1 is a JSON header::

    {"magic": "repro-checkpoint", "version": 3, "code": "<code stamp>",
     "cycle": N, "payload_bytes": M, "digest": "<sha256 of the payload>"}

followed by exactly ``payload_bytes`` of payload: the pickled machine.
A pickle holds every attribute of every object, so only the code that
wrote a file can read it: ``code`` is the source stamp the result cache
keys on (:func:`repro.bench.cache.code_stamp`), and a file written by
other code is rejected.  The digest covers the whole payload, so torn
writes, truncation and bit rot are detected and rejected
(:class:`CheckpointError`), never silently loaded.  Writes go through a
temp file + ``os.replace`` so a crash mid-save can never produce a
half-written file under the final name.
"""

from __future__ import annotations

import hashlib
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
FORMAT_VERSION = 3


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, or is unusable and was rejected."""


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


def save_checkpoint(machine: "Machine", path: str) -> str:
    """Write a checkpoint of ``machine`` to ``path`` atomically.

    Returns ``path``.  The machine must have an activity loaded; the
    pending event heap must hold only serializable descriptors.
    """
    from repro.bench.cache import code_stamp

    if machine._activity is None:
        raise CheckpointError("cannot checkpoint a machine with no activity")
    _check_heap_serializable(machine)
    try:
        payload = pickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)
    except (TypeError, AttributeError, pickle.PicklingError) as exc:
        raise CheckpointError(
            f"machine state is not serializable: {exc} (file-backed trace "
            f"sinks and ad-hoc closures cannot be checkpointed)"
        ) from exc
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "code": code_stamp(),
        "cycle": machine.engine.now,
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
    from repro.bench.cache import code_stamp

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
    if header.get("code") != code_stamp():
        raise CheckpointError(
            f"{path}: checkpoint was written by other code (code stamp "
            f"{header.get('code')}, this build is {code_stamp()})"
        )
    return header


def _read_payload(path: str) -> bytes:
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
    return payload


def load_checkpoint(path: str) -> "Machine":
    """Load the machine checkpointed at ``path``, mid-flight.

    The returned machine is ready for ``run()``: calling it continues the
    simulation from the checkpointed cycle and produces results
    bit-identical to the uninterrupted run.
    """
    payload = _read_payload(path)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{path}: checkpoint state is unreadable: {exc}"
        ) from exc
