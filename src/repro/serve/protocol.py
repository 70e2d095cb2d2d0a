"""Versioned request/response schemas of the serving gateway.

Every request body is a JSON object::

    {"v": 1, "kind": "sweep", "client": "alice", "priority": 5,
     "params": {"benchmark": "mmul", "spes": [1, 2, 4, 8]}}

Validation is **strict and eager**: unknown keys, wrong types,
out-of-range values and typo'd fault specs all raise
:class:`ProtocolError` *before* a job is admitted — a bad request must
be rejected at the front door, never discovered inside a worker process.
A valid request becomes a :class:`~repro.bench.job.JobSpec`, the job
description the CLI builds from its flags too; :func:`build_tasks` turns
either into the same run tasks.

Result payloads embed :data:`SCHEMA_VERSION` — the same constant
:func:`repro.bench.export.run_to_dict` stamps into every export — so a
client can pin the payload shape it understands.  The request envelope
is versioned separately by :data:`PROTOCOL_VERSION`; bump either on any
incompatible change (see docs/SERVING.md for the bump-on-change rule).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.bench.export import SCHEMA_VERSION
from repro.bench.job import JobSpec, build_tasks
from repro.bench.parallel import RunTask
from repro.bench.scale import SCALES, builders, current_scale
from repro.faults import FaultPlanError

__all__ = [
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "JOB_KINDS",
    "ProtocolError",
    "JobSpec",
    "JobRequest",
    "parse_request",
    "build_tasks",
    "job_key",
]

#: Version of the request envelope; requests carrying any other ``"v"``
#: are rejected.  Bump on any incompatible request-shape change.
PROTOCOL_VERSION = 1

#: The job kinds the gateway accepts.
JOB_KINDS = ("run", "sweep", "profile")

#: Priorities span 0 (most urgent) .. 9 (least); default 5.
MIN_PRIORITY, MAX_PRIORITY, DEFAULT_PRIORITY = 0, 9, 5

#: Hard bound on requested machine sizes (the paper sweeps 1..8; the
#: simulator happily goes wider, but a service must bound its work).
MAX_SPES = 32

#: Hard bound on the number of points one sweep job may request.
MAX_SWEEP_POINTS = 16

_TOP_KEYS = {"v", "kind", "params", "client", "priority"}
_BASE_PARAMS = {
    "benchmark", "scale", "latency", "faults", "sanitize", "threshold",
}
_PARAM_KEYS = {
    "run": _BASE_PARAMS | {"spes", "prefetch"},
    "sweep": _BASE_PARAMS | {"spes"},
    "profile": _BASE_PARAMS | {"spes", "prefetch", "bucket_cycles"},
}


class ProtocolError(ValueError):
    """A request violated the schema; maps to HTTP 400."""


@dataclass(frozen=True)
class JobRequest:
    """A validated request: the spec plus scheduling metadata."""

    spec: JobSpec
    client: str = "anonymous"
    priority: int = DEFAULT_PRIORITY

    def to_dict(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.spec.kind,
            "client": self.client,
            "priority": self.priority,
            "params": self.spec.to_dict(),
        }


def _fail(msg: str) -> "ProtocolError":
    return ProtocolError(msg)


def _require_int(
    params: dict, key: str, lo: int, hi: int, default: "int | None",
) -> "int | None":
    value = params.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"params.{key} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise _fail(f"params.{key} must be in [{lo}, {hi}], got {value}")
    return value


def _require_bool(params: dict, key: str, default: bool) -> bool:
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise _fail(f"params.{key} must be a boolean, got {value!r}")
    return value


def _parse_spes(params: dict, kind: str) -> "tuple[int, ...]":
    raw = params.get("spes", [1, 2, 4, 8] if kind == "sweep" else 8)
    if kind in ("run", "profile"):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise _fail(
                f"params.spes must be a single integer for kind={kind!r}, "
                f"got {raw!r}"
            )
        raw = [raw]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise _fail(f"params.spes must be a non-empty list, got {raw!r}")
    if len(raw) > MAX_SWEEP_POINTS:
        raise _fail(
            f"params.spes requests {len(raw)} points "
            f"(max {MAX_SWEEP_POINTS})"
        )
    spes = []
    for n in raw:
        if isinstance(n, bool) or not isinstance(n, int):
            raise _fail(f"params.spes entries must be integers, got {n!r}")
        if not 1 <= n <= MAX_SPES:
            raise _fail(f"params.spes entries must be in [1, {MAX_SPES}], "
                        f"got {n}")
        if n in spes:
            raise _fail(f"params.spes repeats {n}")
        spes.append(n)
    return tuple(spes)


def parse_request(payload: object) -> JobRequest:
    """Validate one decoded JSON request body into a :class:`JobRequest`.

    Raises :class:`ProtocolError` naming the offending field on any
    violation; never partially accepts a request.
    """
    if not isinstance(payload, dict):
        raise _fail(f"request body must be a JSON object, got "
                    f"{type(payload).__name__}")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise _fail(
            f"unknown request key(s): {sorted(unknown)}; "
            f"valid keys: {sorted(_TOP_KEYS)}"
        )
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise _fail(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v={PROTOCOL_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise _fail(f"kind must be one of {list(JOB_KINDS)}, got {kind!r}")

    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client or len(client) > 128:
        raise _fail(
            f"client must be a non-empty string (<= 128 chars), "
            f"got {client!r}"
        )
    priority = payload.get("priority", DEFAULT_PRIORITY)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise _fail(f"priority must be an integer, got {priority!r}")
    if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
        raise _fail(
            f"priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}], "
            f"got {priority}"
        )

    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise _fail(f"params must be a JSON object, got "
                    f"{type(params).__name__}")
    allowed = _PARAM_KEYS[kind]
    unknown = set(params) - allowed
    if unknown:
        raise _fail(
            f"unknown params key(s) for kind={kind!r}: {sorted(unknown)}; "
            f"valid keys: {sorted(allowed)}"
        )

    benchmark = params.get("benchmark")
    known = sorted(builders())
    if benchmark not in known:
        raise _fail(
            f"params.benchmark must be one of {known}, got {benchmark!r}"
        )
    scale = params.get("scale", None)
    if scale is None:
        scale = current_scale()
    if scale not in SCALES:
        raise _fail(
            f"params.scale must be one of {sorted(SCALES)}, got {scale!r}"
        )

    threshold = params.get("threshold", 0.5)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise _fail(f"params.threshold must be a number, got {threshold!r}")
    if not 0.0 <= threshold <= 1.0:
        raise _fail(f"params.threshold must be in [0, 1], got {threshold}")

    faults = params.get("faults")
    if faults is not None and not isinstance(faults, str):
        raise _fail(f"params.faults must be a string spec, got {faults!r}")

    try:
        spec = JobSpec(
            kind=kind,
            benchmark=benchmark,
            scale=scale,
            spes=_parse_spes(params, kind),
            prefetch=_require_bool(params, "prefetch", True),
            latency=_require_int(params, "latency", 1, 1_000_000, None),
            faults=faults,
            sanitize=_require_bool(params, "sanitize", False),
            threshold=float(threshold),
            bucket_cycles=_require_int(params, "bucket_cycles", 1, 2**31,
                                       None),
        )
    except FaultPlanError as exc:
        raise _fail(f"params.faults: {exc}")
    return JobRequest(spec=spec, client=client, priority=priority)


def job_key(spec: JobSpec, tasks: "list[RunTask]") -> str:
    """Coalescing key: jobs with equal keys cost one simulation.

    Derived from the underlying :meth:`RunTask.key` content hashes (which
    embed workload content, config, options and the code stamp), the job
    kind, and the kind-specific knobs that change the *payload* without
    changing the simulation (profile bucketing).  Client identity and
    priority are deliberately excluded — that is the whole point.
    """
    digest = hashlib.sha256()
    digest.update(f"{PROTOCOL_VERSION}:{spec.kind}".encode())
    if spec.kind == "profile":
        digest.update(f":bucket={spec.bucket_cycles}".encode())
    for key in sorted(task.key() for task in tasks):
        digest.update(b"\0")
        digest.update(key.encode())
    return digest.hexdigest()
