"""Chrome / Perfetto ``trace_event`` export.

Turns a :class:`~repro.obs.profile.Profile` into the JSON object format
both ``chrome://tracing`` and https://ui.perfetto.dev load directly:

* process 1, one thread row per SPU — the pipeline tracks (``B``/``E``
  duration events; ``run`` for EX/PL/PS execution, ``pf`` for PF blocks
  programming the MFC);
* process 2, one thread row per ``(SPE, DMA tag)`` — the tag-group
  tracks, emitted as async ``b``/``e`` events so transfers on the same
  row may overlap;
* process 3, one thread row per bus channel — occupancy windows.

Data-fault recovery markers (``thread-reexec`` / ``dma-reverify``)
appear as instant events on the owning SPE's pipeline row.

Timestamps are simulated cycles reported as microseconds (1 cycle =
1 us) — Perfetto needs *some* time unit and cycles are the honest one.
Open a prefetch-enabled trace and the paper's non-blocking execution is
literally visible: DMA tag-group bars of one thread spanning the run
bars of other threads.

:func:`validate_trace_events` is the schema check the test-suite (and
CI) runs over exported traces: event structure, ``B``/``E`` stack
pairing per track, async ``b``/``e`` pairing per (category, id), and
non-decreasing timestamps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.intervals import _source_index

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profile import Profile

__all__ = ["to_perfetto", "validate_trace_events"]

_PID_SPU = 1
_PID_DMA = 2
_PID_BUS = 3

#: Order of same-timestamp events: close before open so zero-gap
#: back-to-back intervals never momentarily nest in a viewer.
_PHASE_ORDER = {"M": 0, "e": 1, "E": 2, "b": 3, "B": 4}


def _meta(pid: int, tid: int | None, name: str, what: str) -> dict:
    event: dict = {
        "ph": "M",
        "name": what,
        "pid": pid,
        "ts": 0,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def to_perfetto(profile: "Profile") -> dict:
    """The complete ``trace_event`` JSON document for ``profile``."""
    events: list[dict] = [
        _meta(_PID_SPU, None, "SPU pipelines", "process_name"),
        _meta(_PID_DMA, None, "DMA tag groups", "process_name"),
        _meta(_PID_BUS, None, "bus channels", "process_name"),
    ]
    intervals = profile.intervals

    pipeline = intervals.get("pipeline", {})
    for src in sorted(pipeline):
        spu_tid = _source_index(src)
        events.append(_meta(_PID_SPU, spu_tid, src, "thread_name"))
        for iv in pipeline[src]:
            if iv["end"] <= iv["start"]:
                continue
            name = iv["label"] or f"tid {iv['tid']}"
            if iv["kind"] == "pf":
                name = f"PF {name}"
            common = {
                "name": name,
                "cat": "pipeline," + iv["kind"],
                "pid": _PID_SPU,
                "tid": spu_tid,
                "args": {"tid": iv["tid"], "kind": iv["kind"]},
            }
            events.append({"ph": "B", "ts": iv["start"], **common})
            events.append({"ph": "E", "ts": iv["end"], **common})

    dma_rows: dict[tuple[int, int], int] = {}
    for n, dma in enumerate(intervals.get("dma", [])):
        if dma["end"] <= dma["start"]:
            continue
        row = (dma["spe"], dma["tag"])
        if row not in dma_rows:
            # One Perfetto thread per (SPE, tag); tags are small ints so
            # the row id stays readable in the UI.
            dma_rows[row] = dma["spe"] * 100 + dma["tag"]
            events.append(
                _meta(
                    _PID_DMA, dma_rows[row],
                    f"spe{dma['spe']} tag {dma['tag']}", "thread_name",
                )
            )
        common = {
            "name": f"dma tag {dma['tag']} ({dma['size']} B)",
            "cat": "dma",
            "id": f"dma-{n}",
            "pid": _PID_DMA,
            "tid": dma_rows[row],
            "args": {"tid": dma["tid"], "bytes": dma["size"]},
        }
        events.append({"ph": "b", "ts": dma["start"], **common})
        events.append({"ph": "e", "ts": dma["end"], **common})

    for ch_key in sorted(intervals.get("bus", {}), key=int):
        ch = int(ch_key)
        events.append(_meta(_PID_BUS, ch, f"bus ch{ch}", "thread_name"))
        for iv in intervals["bus"][ch_key]:
            if iv["end"] <= iv["start"]:
                continue
            common = {
                "name": f"xfer {iv['size']} B",
                "cat": "bus",
                "pid": _PID_BUS,
                "tid": ch,
                "args": {"bytes": iv["size"]},
            }
            events.append({"ph": "B", "ts": iv["start"], **common})
            events.append({"ph": "E", "ts": iv["end"], **common})

    for mark in intervals.get("marks", []):
        # Recovery markers (thread re-executions, DMA re-fetches) as
        # instant events on the owning SPE's pipeline row, so they line
        # up with the run/PF bars they interrupted.
        tid = _source_index(mark.get("source", ""))
        if mark["kind"] == "thread-reexec":
            name = (f"re-exec tid {mark.get('tid')} "
                    f"(attempt {mark.get('attempt')})")
        else:
            name = (f"re-fetch cmd {mark.get('command')} "
                    f"tag {mark.get('tag')}")
        events.append({
            "ph": "i",
            "ts": mark["cycle"],
            "s": "t",
            "name": name,
            "cat": "recovery," + mark["kind"],
            "pid": _PID_SPU,
            "tid": tid,
            "args": {
                k: v for k, v in mark.items()
                if k not in ("cycle", "source", "kind")
            },
        })

    events.sort(key=lambda e: (e["ts"], _PHASE_ORDER.get(e["ph"], 9)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "activity": profile.activity,
            "prefetch": profile.prefetch,
            "spes": profile.spes,
            "cycles": profile.cycles,
            "ts_unit": "1 us == 1 simulated cycle",
        },
    }


def validate_trace_events(doc: dict) -> list[str]:
    """Schema-check a ``trace_event`` document; returns a list of errors.

    An empty list means the document is well-formed: every event has the
    required fields, timestamps are non-negative and non-decreasing in
    file order, ``B``/``E`` pairs nest properly per (pid, tid) track,
    and every async ``b`` has exactly one matching ``e`` per (cat, id).
    """
    errors: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    stacks: dict[tuple, list[str]] = {}
    async_open: dict[tuple, int] = {}
    last_ts = None
    for n, event in enumerate(events):
        where = f"event {n}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("B", "E", "b", "e", "M", "X", "i"):
            errors.append(f"{where}: unsupported phase {ph!r}")
            continue
        if "pid" not in event:
            errors.append(f"{where}: missing pid")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(
                f"{where}: ts {ts} decreases (previous {last_ts})"
            )
        last_ts = ts
        if ph == "M":
            continue
        if "tid" not in event:
            errors.append(f"{where}: missing tid")
            continue
        if ph in ("B", "E"):
            track = (event["pid"], event["tid"])
            stack = stacks.setdefault(track, [])
            if ph == "B":
                stack.append(event.get("name", ""))
            else:
                if not stack:
                    errors.append(f"{where}: E with empty stack on {track}")
                elif stack[-1] != event.get("name", ""):
                    errors.append(
                        f"{where}: E name {event.get('name')!r} does not "
                        f"match open B {stack[-1]!r} on {track}"
                    )
                    stack.pop()
                else:
                    stack.pop()
        elif ph in ("b", "e"):
            key = (event.get("cat"), event.get("id"))
            if event.get("id") is None:
                errors.append(f"{where}: async event without id")
                continue
            if ph == "b":
                async_open[key] = async_open.get(key, 0) + 1
            else:
                if async_open.get(key, 0) < 1:
                    errors.append(f"{where}: e without open b for {key}")
                else:
                    async_open[key] -= 1
    for track, stack in stacks.items():
        if stack:
            errors.append(
                f"track {track}: {len(stack)} unclosed B events ({stack[-1]!r})"
            )
    for key, open_count in async_open.items():
        if open_count:
            errors.append(f"async {key}: {open_count} unclosed b events")
    return errors
