"""Host-performance benchmark of the CellDTA simulator and its harness.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

Without ``--workload`` it runs every workload, one after another.  Each
workload runs in fresh child processes: a few that only set up (their
CPU time at the end of set-up gives ``setup_s``) and one that sets up
and then measures for about ``--seconds`` seconds.  ``--seconds`` and
the ``--trace 0|1`` form are part of the benchmark's standard command
line; the bounds of BENCHMARK.json hold at its ``run_seconds``, the
default.  The command prints
each metric by name and unit, every correctness check, and as its last
line one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

``metrics`` holds every end-to-end metric of BENCHMARK.json, or with
``--trace`` every per-layer metric (taken from one extra traced run).
With several workloads the metric names are prefixed ``<workload>/``.
The exit status is 1 when a check fails or a child process fails.

``--out FILE`` writes everything (metrics, checks, context, host
calibration) to FILE, and with ``--trace`` the spans to FILE.spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up-only child processes per workload; with the measuring child's
#: own set-up, ``setup_s`` is the median of SETUP_PROBES + 1 values.  A
#: single set-up varies too much to hold to a bound (README, "Spread").
SETUP_PROBES = 8

#: Relative change of the calibration loop that marks a noisy host.
NOISY_HOST = 0.10


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def host_calibration() -> float:
    """Median of five calibration loops (CPU s), to spot a noisy host."""
    return statistics.median(workloads.calibrate() for _ in range(5))


# -- child side ---------------------------------------------------------------


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    name = args.workload[0]
    # Set-up is everything up to the first measured call, interpreter
    # start included, less the calibration loops that bracket it.
    before = workloads.calibrate()
    state = workloads.setup(name, args.seed, None, args.work)
    setup_cpu = time.process_time() - before
    after = workloads.calibrate()
    setup_s = setup_cpu * workloads.CALIB_REF_S / ((before + after) / 2)
    if args.child == "setup":
        workloads.teardown(name, state)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if name in workloads.BATCH:
            result = workloads.batch(
                name, state, args.seed, args.seconds, trace=args.trace)
        elif name == "matrix":
            result = workloads.matrix(
                state, args.seed, args.seconds, trace=args.trace,
                root=args.work)
        else:
            result = workloads.serve(
                state, args.seed, args.seconds, trace=args.trace,
                root=args.work)
    finally:
        workloads.teardown(name, state)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------


def spawn(mode: str, name: str, args, work: str) -> dict:
    """Run one child process; its last stdout line is its JSON result."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--work", work,
    ] + (["--trace"] if args.trace else [])
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=180 + 4 * args.seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name}: {mode} child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_one(name: str, args, work: str) -> dict:
    setups = [spawn("setup", name, args, work)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = spawn("measure", name, args, work)
    setups.append(result.pop("setup_s"))
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["context"]["setup_s_samples"] = [round(s, 4) for s in setups]
    return result


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(name: str, result: dict, spec: dict, trace: bool) -> None:
    print(f"== {name} ==")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    shown = (
        [(m["name"], result["metrics"][m["name"]], m["unit"])
         for m in spec["end_to_end"]]
        + ([(m["name"], result["layers"][m["name"]], m["unit"])
            for m in declared] if trace else [])
    )
    for metric, value, unit in shown:
        print(f"  {metric:<28} {_fmt(value):>14} {unit}")
    for metric, value in sorted(result.get("detail", {}).items()):
        print(f"  {metric:<28} {_fmt(value):>14} (detail)")
    for key, value in result["context"].items():
        print(f"  {key:<28} {value}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for check, ok, detail in result["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {check} ({detail})")


def parent_main(args) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    calib_start = host_calibration()
    work = tempfile.mkdtemp(prefix=".perf-", dir=ROOT)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args, work)
            report(name, results[name], spec, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_end = host_calibration()
    drift = abs(calib_end - calib_start) / calib_start
    print(f"host.calib_s {calib_start:.4f} s at start, {calib_end:.4f} s "
          f"at end")
    if drift > NOISY_HOST:
        print(f"warning: noisy host — the calibration loop changed by "
              f"{100 * drift:.0f}% during the run", file=sys.stderr)
    if args.out:
        write_out(args, results, calib_start, calib_end)
    final = result_line(results, spec, args.trace)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def result_line(results: dict, spec: dict, trace: bool) -> dict:
    """The last output line: every declared metric of every workload."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = "layers" if trace else "metrics"
    single = len(results) == 1
    return {
        "correct": all(
            ok for r in results.values() for _, ok, _ in r["checks"]),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (m["name"] if single else f"{name}/{m['name']}"): {
                "value": r[source][m["name"]], "unit": m["unit"]}
            for name, r in results.items() for m in declared
        },
    }


def write_out(args, results: dict, calib_start: float, calib_end: float):
    spans = {name: r.pop("spans", []) for name, r in results.items()}
    payload = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host": {
            "calib_s": calib_start,
            "calib_end_s": calib_end,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "workloads": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.trace:
        with open(args.out + ".spans.json", "w") as fh:
            json.dump(spans, fh)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default, "
                             "and the length the bounds hold at: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add a traced run and report per-layer metrics")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
