"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``     run one benchmark (with/without prefetching) and print the
            cycle count, time breakdown and Table 5 instruction mix.
``sweep``   regenerate a Figures 6-8 style scaling table for a benchmark.
``tables``  regenerate Figure 5, Figure 9 and Table 5 at 8 SPEs.
``disasm``  disassemble a benchmark's thread templates (optionally after
            the prefetch pass).
``info``    print the simulated machine configuration (Tables 2-4).
``reproduce``  run the full experiment matrix and write results as JSON
            (and optionally CSV) for external plotting.
``timeline``  run one benchmark with tracing and print a per-SPU ASCII
            Gantt chart (watch threads yield for DMA and overlap).
``profile``  run one benchmark under the observability subsystem and
            export a profile JSON, a Perfetto/Chrome trace, a metrics
            CSV and/or the raw event stream as JSONL.
``diff``    compare two profile JSON files (perf-regression check);
            nonzero exit when a watched metric regressed.

Examples
--------
::

    python -m repro run mmul --spes 8
    python -m repro run zoom --no-prefetch --latency 1
    python -m repro sweep bitcnt --spes 1 2 4 8
    python -m repro disasm mmul --prefetch --template mmul_worker
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Sequence

from repro.bench.job import JobSpec, build_tasks, profile_job
from repro.bench.report import (
    breakdown_table,
    execution_table,
    format_table,
    pipeline_usage_table,
    scalability_table,
    table5,
)
from repro.bench.runner import run_pair, run_workload, sweep
from repro.bench.scale import SCALES, builders
from repro.compiler.passes import prefetch_transform
from repro.faults import FaultPlanError
from repro.sim.stats import Bucket

__all__ = ["main", "build_parser"]


def _spec(args: argparse.Namespace, kind: str = "run") -> JobSpec:
    """The job a subcommand's simulation flags describe.

    Every simulating subcommand takes its machine config, prefetch
    options, workload and run tasks from this spec, as the gateway does
    from a request.  Each flag's ``dest`` is the :class:`JobSpec` field
    it sets; a field without a flag keeps its default.  A ``--faults``
    typo exits here, before any workload is built.
    """
    given = {
        f.name: getattr(args, f.name) for f in fields(JobSpec)
        if f.name != "kind" and getattr(args, f.name, None) is not None
    }
    spes = given.get("spes", JobSpec.spes)
    given["spes"] = (spes,) if isinstance(spes, int) else tuple(spes)
    try:
        return JobSpec(kind=kind, **given)
    except FaultPlanError as exc:
        raise SystemExit(f"--faults: {exc}")


def _cache(args: argparse.Namespace):
    """The persistent result cache, or ``None`` under ``--no-cache``."""
    if not getattr(args, "cache", False):
        return None
    from repro.bench.cache import default_cache

    return default_cache()


def _progress(msg: str) -> None:
    print(f"# {msg}", file=sys.stderr)


def _resilience_opts(args: argparse.Namespace) -> dict:
    """The run_many resilience knobs selected on the command line."""
    if getattr(args, "resume", False) and not getattr(args, "cache", True):
        raise SystemExit(
            "--resume needs the result cache (the journal is validated "
            "against it); drop --no-cache"
        )
    return {
        "timeout": getattr(args, "task_timeout", None),
        "retries": getattr(args, "retries", None),
        "resume": getattr(args, "resume", False),
        "checkpoint_every": getattr(args, "checkpoint_every", None),
        "checkpoint_dir": getattr(args, "checkpoint_dir", None),
        "keep_checkpoints": getattr(args, "keep_checkpoints", False),
    }


def _cache_summary(cache) -> None:
    if cache is not None:
        _progress(f"cache: {cache.summary()}")


def _print_run(label: str, run) -> None:
    print(f"{label}: {run.cycles} cycles")
    frac = run.stats.bucket_fractions()
    rows = [[b, f"{100 * frac[b]:.1f}%"] for b in Bucket.ALL]
    print(format_table(["bucket", "share"], rows))
    mix = run.stats.mix.table5_row()
    print(
        format_table(
            ["total", "LOAD", "STORE", "READ", "WRITE"],
            [[mix["total"], mix["LOAD"], mix["STORE"], mix["READ"],
              mix["WRITE"]]],
        )
    )
    if run.config.faults.active:
        print(f"faults: {run.stats.faults.summary()}")


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec(args)
    workload = spec.workload()
    if args.compare:
        for flag, value in (("--restore", args.restore),
                            ("--checkpoint-every", args.checkpoint_every)):
            if value is not None:
                raise SystemExit(f"{flag} is incompatible with --compare")
        pair = run_pair(workload, spec.config(args.spes),
                        options=spec.options())
        _print_run("original DTA", pair.base)
        print()
        _print_run("with prefetching", pair.prefetch)
        print()
        print(f"speedup: {pair.speedup:.2f}x   "
              f"READs decoupled: {pair.decoupled_fraction:.0%}")
    elif args.restore:
        from repro.cell.machine import Machine
        from repro.sim.snapshot import CheckpointError
        from repro.workloads.common import check_outputs

        try:
            machine = Machine.load_checkpoint(args.restore)
        except CheckpointError as exc:
            raise SystemExit(f"--restore: {exc}")
        expected = workload.activity
        if spec.prefetch:
            expected = prefetch_transform(expected, spec.options())
        actual = machine._activity
        if actual.name != expected.name:
            raise SystemExit(
                f"--restore: checkpoint holds activity {actual.name!r}, but "
                f"benchmark {args.benchmark!r} expects {expected.name!r}"
            )
        config = spec.config(args.spes)
        differ = [f.name for f in fields(config)
                  if getattr(machine.config, f.name) != getattr(config, f.name)]
        if differ:
            raise SystemExit(
                f"--restore: the checkpoint's machine differs from the "
                f"flags in {', '.join(differ)}"
            )
        if actual.templates != expected.templates:
            variant = (f"prefetching at --threshold {spec.threshold}"
                       if spec.prefetch else "--no-prefetch")
            raise SystemExit(
                f"--restore: checkpoint holds another variant of "
                f"{expected.name!r} than the flags ask for ({variant})"
            )
        _progress(
            f"restored {args.restore} at cycle {machine.engine.now}; "
            f"continuing"
        )
        run = machine.run(
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )
        errors = check_outputs(workload, machine)
        if errors:
            raise SystemExit(
                f"{workload.name}: wrong output after restore:\n"
                + "\n".join(errors[:10])
            )
        _print_run(
            "with prefetching" if run.prefetch else "original DTA", run
        )
    else:
        run = run_workload(
            workload, spec.config(args.spes), prefetch=spec.prefetch,
            options=spec.options(),
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )
        _print_run(
            "with prefetching" if args.prefetch else "original DTA", run
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec(args, "sweep")
    cache = _cache(args)
    scaling = sweep(
        spec.workload, spes=spec.spes, config_for=spec.config,
        options=spec.options(), jobs=args.jobs, cache=cache,
        progress=_progress,
        keep_going=args.keep_going, **_resilience_opts(args),
    )
    _cache_summary(cache)
    if not scaling.pairs:
        print("no point of the sweep completed (see the failures above)",
              file=sys.stderr)
        return 1
    print(execution_table(scaling))
    print()
    print(scalability_table(scaling))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench.parallel import run_many
    from repro.bench.runner import pair_results

    spec = _spec(args, "sweep")
    names = list(builders(spec.scale))
    tasks = [
        task for name in names
        for task in build_tasks(replace(spec, benchmark=name))
    ]
    cache = _cache(args)
    results = run_many(
        tasks, jobs=args.jobs, cache=cache, progress=_progress,
        **_resilience_opts(args),
    )
    _cache_summary(cache)
    pairs = dict(zip(names, pair_results(tasks, results)))
    runs = {name: p.base for name, p in pairs.items()}
    print(table5(runs))
    print()
    print(breakdown_table(pairs, prefetch=False))
    print()
    print(breakdown_table(pairs, prefetch=True))
    print()
    print(pipeline_usage_table(pairs))
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    spec = _spec(args)
    activity = spec.workload().activity
    if spec.prefetch:
        activity = prefetch_transform(activity, spec.options())
    templates = activity.templates
    if args.template:
        templates = [activity.template(args.template)]
    for template in templates:
        print(template.disassemble())
        print()
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.bench.export import reproduce_all, scaling_to_csv, to_json

    spec = _spec(args, "sweep")
    cache = _cache(args)
    data = reproduce_all(
        scale=spec.scale, spes=spec.spes, progress=_progress,
        jobs=args.jobs, cache=cache, keep_going=args.keep_going,
        faults=spec.faults, **_resilience_opts(args),
    )
    text = to_json(data)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    if args.csv:
        with open(args.csv, "w") as fh:
            for scaling in data["experiments"]["scaling"].values():
                fh.write(scaling_to_csv(scaling))
        print(f"wrote {args.csv}", file=sys.stderr)
    _cache_summary(cache)
    if data.get("degraded"):
        _progress(
            f"DEGRADED: {len(data['degraded'])} task(s) failed; artifacts "
            f"are partial"
        )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.bench.timeline import render_timeline
    from repro.obs.trace import Tracer

    spec = _spec(args)
    workload = spec.workload()
    tracer = Tracer()
    result = run_workload(
        workload, spec.config(args.spes), prefetch=spec.prefetch,
        options=spec.options(),
        observe=lambda machine: machine.attach_tracer(tracer),
    )
    label = "with prefetching" if args.prefetch else "original DTA"
    print(f"{workload.name} ({label}): {result.cycles} cycles")
    print(render_timeline(tracer, result.cycles, width=args.width))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        dma_overlap_count,
        metrics_csv,
        to_perfetto,
        validate_trace_events,
    )

    result, profile = profile_job(
        _spec(args, "profile"), trace_jsonl=args.trace_jsonl,
    )
    label = "with prefetching" if args.prefetch else "original DTA"
    print(f"{result.activity} ({label}): {result.cycles} cycles, "
          f"pipeline usage {profile.average_pipeline_usage:.1%}, "
          f"{profile.totals['dma_commands']} DMA commands, "
          f"{dma_overlap_count(profile)} DMA intervals overlapped other "
          f"threads' execution")
    rows = [[b, f"{c:.0f}"] for b, c in profile.breakdown_cycles.items()]
    print(format_table(["bucket", "avg cycles/SPU"], rows))
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            fh.write(profile.to_json() + "\n")
        print(f"wrote {args.profile_out}", file=sys.stderr)
    if args.perfetto:
        doc = to_perfetto(profile)
        errors = validate_trace_events(doc)
        if errors:
            raise SystemExit(
                "perfetto export failed validation:\n" + "\n".join(errors[:10])
            )
        with open(args.perfetto, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        print(f"wrote {args.perfetto} "
              f"({len(doc['traceEvents'])} events; open in "
              f"https://ui.perfetto.dev)", file=sys.stderr)
    if args.metrics_csv:
        with open(args.metrics_csv, "w") as fh:
            fh.write(metrics_csv(profile))
        print(f"wrote {args.metrics_csv}", file=sys.stderr)
    if args.trace_jsonl:
        print(f"wrote {args.trace_jsonl}", file=sys.stderr)
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_profiles, load_profile, render_diff

    try:
        baseline = load_profile(args.baseline)
        candidate = load_profile(args.candidate)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"diff: {exc}")
    diff = diff_profiles(
        baseline, candidate,
        baseline_label=args.baseline, candidate_label=args.candidate,
    )
    print(render_diff(diff, max_delta_pct=args.max_delta))
    regressions = diff.regressions(args.max_delta)
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{args.max_delta}%", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.max_delta}%")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    spec = _spec(args)
    cfg = spec.config(args.spes)
    rows = [
        ["SPEs", cfg.num_spes],
        ["nodes", cfg.num_nodes],
        ["main memory", f"{cfg.main_memory.size // 2**20} MB, "
                        f"{cfg.main_memory.latency} cycles, "
                        f"{cfg.main_memory.ports} port(s)"],
        ["local store", f"{cfg.local_store.size // 1024} kB, "
                        f"{cfg.local_store.latency} cycles, "
                        f"{cfg.local_store.ports} ports"],
        ["bus", f"{cfg.bus.num_buses} x {cfg.bus.bytes_per_cycle} B/cycle"],
        ["MFC", f"queue {cfg.mfc.command_queue_size}, "
                f"command latency {cfg.mfc.command_latency} cycles"],
        ["LSE", f"{cfg.lse.num_frames} frames x "
                f"{cfg.lse.frame_size_words} words, "
                f"ready policy {cfg.lse.ready_policy}"],
        ["SPU", f"issue width {cfg.spu.issue_width}, "
                f"branch penalty {cfg.spu.branch_taken_penalty}"],
    ]
    if spec.faults:
        rows.append(["faults", cfg.faults.describe()])
    if cfg.sanitize:
        rows.append(["sanitizer", "on"])
    print(format_table(["unit", "configuration"], rows))
    print()
    print(f"benchmark scales: {sorted(SCALES)}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import ServeApp

    app = ServeApp(
        host=args.host,
        port=args.port,
        cache=_cache(args),
        workers=args.workers,
        sim_jobs=args.jobs or 1,
        max_depth=args.max_depth,
        timeout=getattr(args, "task_timeout", None),
        retries=getattr(args, "retries", None),
        log=_progress,
    )
    app.run()  # returns after a SIGTERM/SIGINT-triggered drain
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(
        host=args.host, port=args.port, client=args.client,
    )
    params: dict = {"benchmark": args.benchmark}
    if args.kind == "sweep":
        params["spes"] = list(args.spes)
    else:
        params["spes"] = args.spes[0]
        params["prefetch"] = args.prefetch
    if args.scale is not None:
        params["scale"] = args.scale
    if args.latency is not None:
        params["latency"] = args.latency
    if args.faults is not None:
        params["faults"] = args.faults
    if args.sanitize:
        params["sanitize"] = True
    if args.threshold != 0.5:
        params["threshold"] = args.threshold
    if args.kind == "profile" and args.bucket_cycles is not None:
        params["bucket_cycles"] = args.bucket_cycles
    try:
        job = client.submit_request({
            "v": 1,
            "kind": args.kind,
            "client": args.client,
            "priority": args.priority,
            "params": params,
        })
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.retry_after is not None:
            print(f"server is saturated; retry in ~{exc.retry_after}s",
                  file=sys.stderr)
        return 1
    except ConnectionRefusedError:
        print(f"error: no server on {args.host}:{args.port} "
              f"(start one with 'repro serve')", file=sys.stderr)
        return 1
    _progress(f"job {job['id']} {job['state']}"
              + (" (coalesced with an identical in-flight job)"
                 if job.get("coalesced_into") else ""))
    if args.no_wait:
        print(_json.dumps(job, indent=2, sort_keys=True))
        return 0
    for event in client.events(job["id"]):
        if event["event"] == "log":
            _progress(event["message"])
        elif event["event"] != "coalesced":
            _progress(f"job {job['id']}: {event['event']}")
    final = client.status(job["id"])
    if final["state"] != "done":
        print(f"error: job {job['id']} {final['state']}: "
              f"{final.get('error')}", file=sys.stderr)
        return 1
    payload = client.result(job["id"])
    text = _json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        _progress(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.bench.cache import default_cache, parse_bytes

    cache = default_cache()
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.root}")
        return 0
    if args.max_bytes is not None:
        budget = parse_bytes(args.max_bytes)
        evicted = cache.trim(budget)
        print(f"evicted {evicted} entr(y/ies) trimming to "
              f"{budget} bytes")
    entries, size = cache.disk_usage()
    print(f"cache root: {cache.root}")
    print(f"entries:    {entries}")
    print(f"disk bytes: {size}")
    if cache.max_bytes is not None:
        print(f"budget:     {cache.max_bytes} bytes "
              f"(REPRO_BENCH_CACHE_MAX_BYTES)")
    journal_path = cache.root / "journal.jsonl"
    if journal_path.is_file():
        print(f"journal:    {journal_path} "
              f"({journal_path.stat().st_size} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CellDTA simulator: DMA prefetching for non-blocking "
                    "execution in DTA (Giorgi et al., 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, benchmark=True, axis=False, flags=(
        "spes", "latency", "scale", "threshold", "faults", "sanitize",
    )):
        """Add the simulation ``flags`` a subcommand honors; ``axis``
        makes ``--spes`` a list of machine sizes."""
        if benchmark:
            p.add_argument("benchmark", choices=sorted(builders()),
                           help="workload to run")
        if "spes" in flags and axis:
            p.add_argument("--spes", type=int, nargs="+",
                           default=[1, 2, 4, 8],
                           help="numbers of SPEs (default 1 2 4 8)")
        elif "spes" in flags:
            p.add_argument("--spes", type=int, default=8,
                           help="number of SPEs (default 8)")
        if "latency" in flags:
            p.add_argument("--latency", type=int, default=None,
                           help="override main-memory latency in cycles")
        if "scale" in flags:
            p.add_argument("--scale", choices=sorted(SCALES), default=None,
                           help="workload scale (default: "
                                "REPRO_BENCH_SCALE or 'default')")
        if "threshold" in flags:
            p.add_argument("--threshold", type=float, default=0.5,
                           help="prefetch worthwhileness threshold")
        if "faults" in flags:
            p.add_argument("--faults", default=None, metavar="SPEC",
                           help="inject seeded faults, e.g. "
                                "seed=3,dma_drop=0.05,bus_dup=0.02 "
                                "(timing-only; results stay bit-identical) "
                                "or corrupting data faults, e.g. "
                                "seed=3,data_flip=0.1,data_truncate=0.05 "
                                "(detected, recovered by bounded re-fetch / "
                                "thread re-execution; outputs stay "
                                "bit-identical while budgets hold)")
        if "sanitize" in flags:
            p.add_argument("--sanitize", action="store_true",
                           help="enable the invariant sanitizer (SC "
                                "underflow, frame double-free, DMA overlap, "
                                "exactly-once delivery)")

    def parallel_opts(p, keep_going=False):
        p.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes for independent runs "
                            "(default: REPRO_BENCH_JOBS or 1 = serial)")
        p.add_argument("--no-cache", dest="cache", action="store_false",
                       default=True,
                       help="ignore the persistent result cache "
                            "(REPRO_BENCH_CACHE) for this invocation")
        p.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-task wall-clock timeout, enforced by the "
                            "parent over worker futures (default: "
                            "REPRO_BENCH_TASK_TIMEOUT or off)")
        p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry budget for transient failures (timeouts, "
                            "worker crashes) with exponential backoff "
                            "(default: REPRO_BENCH_RETRIES or 2); "
                            "deterministic errors are never retried")
        p.add_argument("--resume", action="store_true",
                       help="replay the sweep journal next to the result "
                            "cache and skip tasks an interrupted run "
                            "already settled (also prunes checkpoints of "
                            "completed tasks)")
        p.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="CYCLES",
                       help="snapshot each running machine every N cycles "
                            "so timed-out or killed tasks resume "
                            "mid-simulation instead of restarting")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="where machine checkpoints live (default: "
                            "checkpoints/ next to the result cache)")
        p.add_argument("--keep-checkpoints", action="store_true",
                       help="keep checkpoint files of completed tasks "
                            "instead of deleting them")
        if keep_going:
            p.add_argument("--keep-going", action="store_true",
                           help="do not abort on a permanently failing "
                                "task; emit partial artifacts plus a "
                                "'degraded' manifest naming each failure")

    p_run = sub.add_parser("run", help="run one benchmark")
    common(p_run)
    group = p_run.add_mutually_exclusive_group()
    group.add_argument("--prefetch", action="store_true", default=True,
                       help="apply the prefetch pass (default)")
    group.add_argument("--no-prefetch", dest="prefetch",
                       action="store_false", help="run the original DTA")
    group.add_argument("--compare", action="store_true",
                       help="run both variants and report the speedup")
    p_run.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="CYCLES",
                       help="snapshot the machine every N cycles to "
                            "<checkpoint-dir>/<activity>.ckpt (atomically "
                            "replaced; always the latest)")
    p_run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for --checkpoint-every snapshots "
                            "(default: current directory)")
    p_run.add_argument("--restore", default=None, metavar="CKPT",
                       help="resume a checkpointed run of this benchmark "
                            "and continue to completion (bit-identical to "
                            "an uninterrupted run)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="scaling sweep (Figures 6-8)")
    common(p_sweep, axis=True)
    parallel_opts(p_sweep, keep_going=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tables = sub.add_parser(
        "tables", help="Figure 5 / Figure 9 / Table 5 at one machine size"
    )
    common(p_tables, benchmark=False)
    parallel_opts(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_dis = sub.add_parser("disasm", help="disassemble thread templates")
    common(p_dis, flags=("scale", "threshold"))
    p_dis.add_argument("--prefetch", action="store_true",
                       help="disassemble the transformed templates")
    p_dis.add_argument("--template", default=None,
                       help="only this template")
    p_dis.set_defaults(func=cmd_disasm)

    p_info = sub.add_parser("info", help="print the machine configuration")
    common(p_info, benchmark=False,
           flags=("spes", "latency", "faults", "sanitize"))
    p_info.set_defaults(func=cmd_info)

    p_tl = sub.add_parser(
        "timeline", help="trace one run and print a per-SPU Gantt chart"
    )
    common(p_tl)
    group_tl = p_tl.add_mutually_exclusive_group()
    group_tl.add_argument("--prefetch", action="store_true", default=True)
    group_tl.add_argument("--no-prefetch", dest="prefetch",
                          action="store_false")
    p_tl.add_argument("--width", type=int, default=72)
    p_tl.set_defaults(func=cmd_timeline)

    p_prof = sub.add_parser(
        "profile",
        help="run one benchmark under the observability subsystem",
    )
    common(p_prof)
    group_prof = p_prof.add_mutually_exclusive_group()
    group_prof.add_argument("--prefetch", action="store_true", default=True,
                            help="apply the prefetch pass (default)")
    group_prof.add_argument("--no-prefetch", dest="prefetch",
                            action="store_false",
                            help="profile the original DTA")
    p_prof.add_argument("--profile", dest="profile_out", default=None,
                        metavar="FILE",
                        help="write the full profile as JSON (diffable "
                             "with 'repro diff')")
    p_prof.add_argument("--perfetto", default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace_event JSON "
                             "(pipeline, DMA tag-group and bus tracks)")
    p_prof.add_argument("--metrics-csv", default=None, metavar="FILE",
                        help="write every hub instrument as flat CSV")
    p_prof.add_argument("--trace-jsonl", default=None, metavar="FILE",
                        help="stream the raw profiling events as JSONL")
    p_prof.add_argument("--bucket-cycles", type=int, default=None,
                        help="timeseries bucket width in cycles "
                             "(default 1024)")
    p_prof.set_defaults(func=cmd_profile)

    p_diff = sub.add_parser(
        "diff", help="compare two profile JSONs (perf-regression check)"
    )
    p_diff.add_argument("baseline", help="baseline profile JSON")
    p_diff.add_argument("candidate", help="candidate profile JSON")
    p_diff.add_argument("--max-delta", type=float, default=2.0,
                        metavar="PCT",
                        help="regression threshold in percent (default 2)")
    p_diff.set_defaults(func=cmd_diff)

    p_rep = sub.add_parser(
        "reproduce", help="run the full experiment matrix, export JSON/CSV"
    )
    common(p_rep, benchmark=False, axis=True,
           flags=("spes", "scale", "faults"))
    p_rep.add_argument("--output", "-o", default=None,
                       help="write JSON here instead of stdout")
    p_rep.add_argument("--csv", default=None,
                       help="also write per-point CSV rows here")
    parallel_opts(p_rep, keep_going=True)
    p_rep.set_defaults(func=cmd_reproduce)

    p_serve = sub.add_parser(
        "serve",
        help="start the simulation-as-a-service HTTP gateway "
             "(see docs/SERVING.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8357,
                         help="listen port (0 = ephemeral; default 8357)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent job executors (default 2)")
    p_serve.add_argument("--max-depth", type=int, default=64,
                         help="queued-job bound before submissions get "
                              "503 + Retry-After (default 64)")
    p_serve.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes each job's batch may "
                              "fan out to (default 1)")
    p_serve.add_argument("--no-cache", dest="cache", action="store_false",
                         default=True,
                         help="serve without the persistent result cache "
                              "(disables cross-restart coalescing)")
    p_serve.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-task wall-clock timeout for job batches")
    p_serve.add_argument("--retries", type=int, default=None, metavar="N",
                         help="transient-failure retry budget per task")
    p_serve.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser(
        "submit",
        help="submit a job to a running 'repro serve' gateway and "
             "stream its progress",
    )
    p_sub.add_argument("kind", choices=["run", "sweep", "profile"])
    p_sub.add_argument("benchmark", choices=sorted(builders()))
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8357)
    p_sub.add_argument("--client", default="cli",
                       help="client identity for fair scheduling")
    p_sub.add_argument("--priority", type=int, default=5,
                       help="0 (urgent) .. 9 (batch); default 5")
    p_sub.add_argument("--spes", type=int, nargs="+", default=[8],
                       help="machine size(s); one value for run/profile, "
                            "an axis for sweep")
    p_sub.add_argument("--scale", choices=sorted(SCALES), default=None)
    p_sub.add_argument("--latency", type=int, default=None)
    p_sub.add_argument("--threshold", type=float, default=0.5)
    p_sub.add_argument("--faults", default=None, metavar="SPEC")
    p_sub.add_argument("--sanitize", action="store_true")
    group_sub = p_sub.add_mutually_exclusive_group()
    group_sub.add_argument("--prefetch", action="store_true", default=True)
    group_sub.add_argument("--no-prefetch", dest="prefetch",
                           action="store_false")
    p_sub.add_argument("--bucket-cycles", type=int, default=None,
                       help="profile jobs: timeseries bucket width")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="print the accepted job id and exit instead "
                            "of streaming events")
    p_sub.add_argument("--output", "-o", default=None,
                       help="write the result payload here instead of "
                            "stdout")
    p_sub.set_defaults(func=cmd_submit)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or manage the persistent result cache",
    )
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached result")
    p_cache.add_argument("--max-bytes", default=None, metavar="SIZE",
                         help="trim the cache to SIZE (suffixes k/m/g), "
                              "evicting least-recently-used entries")
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except BaseException as exc:
        from repro.bench.parallel import SweepTerminated

        if isinstance(exc, SweepTerminated):
            # SIGTERM mid-batch: finished work was harvested into the
            # cache/journal; exit with the conventional 128 + SIGTERM.
            print("# terminated: partial results cached; re-run with "
                  "--resume to continue", file=sys.stderr)
            return 143
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
