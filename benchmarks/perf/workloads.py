"""The five workloads of the performance benchmark.

Each workload has a *set-up* (imports, input builds, a served gateway)
and a *measured* phase of about ``seconds`` seconds.  Every workload
function returns a plain dict:

``metrics``
    end-to-end metric values (set-up time is filled in by the caller);
``attempted`` / ``failed``
    operations tried and operations that failed or were refused;
``checks``
    ``[name, ok, detail]`` correctness checks; any false one fails the run;
``context``
    values that describe the run but are not metrics (``stats_sha``,
    unnormalized timings, ...);
``layers`` / ``detail``
    with ``trace=True``: per-layer metrics, and per-call figures that
    only some workloads have;
``spans``
    with ``trace=True``: the spans of the traced run.

Why these workloads (see README.md): ``blocking`` and ``prefetch`` are
the paper's two variants and load different simulator layers (bus,
memory and engine vs the SPU pipeline loop); ``observed`` is ``prefetch``
under the metrics hub, which switches SPU fast-forward off; ``matrix``
is ``repro reproduce`` cold and warm, which loads the harness layers
(pool, cache, journal); ``serve`` is open-loop traffic on the gateway.

Host normalization
------------------
The hosts this runs on are shared, and their speed changes by up to
~1.5x within seconds.  While a workload is measured, :class:`HostClock`
times a slice of :func:`calibrate`, a fixed pure-Python loop, ten times
a second, and every timed sample is reported in *reference-host* time:
``t * CALIB_REF_S / c``, where ``c`` is the loop's mean CPU time around
the sample.  A sample taken while the host runs slow reads about the
same as one taken at full speed; unnormalized values are in ``context``.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import asdict

from layers import LayerTracer

__all__ = [
    "BATCH", "WORKLOADS", "calibrate", "setup", "teardown", "batch",
    "matrix", "serve",
]

#: The batch workloads: which inputs, and whether to prefetch / observe.
BATCH = {
    "blocking": dict(bitcnt=False, prefetch=False, observe=False),
    "prefetch": dict(bitcnt=True, prefetch=True, observe=False),
    "observed": dict(bitcnt=True, prefetch=True, observe=True),
}

#: Every workload, in the order the default run executes them.
WORKLOADS = ("blocking", "prefetch", "observed", "matrix", "serve")

#: SPEs of every batch run (the paper's largest machine).
SPES = 8

#: Iterations of the calibration loop, and its CPU time on the
#: reference host: the 2-vCPU host of BENCH_seed.json in its fast mode
#: (0.047-0.048 s; 0.057 s median when busy).
CALIB_LOOPS = 500_000
CALIB_REF_S = 0.048

#: Served-job latency limit for ``goodput_jps``.
LATENCY_LIMIT_S = 1.0

#: Share of served jobs that repeat an earlier job's spec.
REPEAT_SHARE = 0.3

#: A cached repeat repeats a job due at least this long before it, which
#: has finished, so its result comes from the cache.
CACHED_REPEAT_AGE_S = 3.0

#: Prefetch speedups at 8 SPEs reported by the paper (EXPERIMENTS.md).
PAPER_SPEEDUPS = {"bitcnt": 1.13, "mmul": 11.18, "zoom": 11.48}


# -- helpers ------------------------------------------------------------------


def calibrate(loops: int = CALIB_LOOPS) -> float:
    """Thread CPU seconds of a fixed pure-Python loop (host speed).

    Every iteration costs the same (operands stay below 2**30, where
    CPython's int arithmetic gets slower), so a slice of the loop times
    the host exactly like the whole loop, scaled.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(loops):
        j = i & 4095
        acc = (acc + j * j) % 1_000_003
    return time.thread_time() - t0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _canonical(obj):
    """JSON-ready copy with every dict key as a string (some are tuples)."""
    if isinstance(obj, dict):
        return {
            (k if isinstance(k, str) else repr(k)): _canonical(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def stats_digest(stats_list) -> str:
    """sha256 over ``asdict(MachineStats)`` of each run, in order."""
    digest = hashlib.sha256()
    for stats in stats_list:
        digest.update(
            json.dumps(_canonical(asdict(stats)), sort_keys=True).encode()
        )
    return digest.hexdigest()


def _percentile(values: list, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _keep_going(started: float, count: int, seconds: float) -> bool:
    """Another round fits: at least two rounds, and the next one is
    predicted to end within half a round of the ``seconds`` budget."""
    if count < 2:
        return True
    elapsed = time.perf_counter() - started
    per_round = elapsed / count
    return elapsed + per_round <= seconds + per_round / 2


class HostClock:
    """Samples the host's speed from a thread while a workload runs.

    Every ``INTERVAL_S`` the thread times ``1 / SLICE`` of
    :func:`calibrate` in its own CPU time, so waiting for the
    interpreter lock does not count; a slice costs ~1 ms, about 1% of
    the measured process's CPU, which :meth:`cpu_between` lets callers
    subtract.
    """

    INTERVAL_S = 0.1
    SLICE = 50
    #: Samples this close outside an interval still describe it.
    PAD_S = 0.25

    def __init__(self) -> None:
        #: (time.time() at the end of the slice, full-loop CPU seconds)
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-clock")

    def _sample(self) -> None:
        while True:
            cost = calibrate(CALIB_LOOPS // self.SLICE) * self.SLICE
            self.samples.append((time.time(), cost))
            if self._stop.wait(self.INTERVAL_S):
                return

    def __enter__(self) -> "HostClock":
        self._thread.start()
        while not self.samples:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _window(self, start: float, end: float) -> list:
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - self.PAD_S)
        hi = bisect.bisect_right(times, end + self.PAD_S)
        if lo == hi:  # nothing close: the nearest sample
            lo = min(max(0, lo - 1), len(times) - 1)
            hi = lo + 1
        return [c for _, c in self.samples[lo:hi]]

    def scale(self, start: float, end: float) -> float:
        """Reference-host seconds per measured second over the interval
        ``[start, end]`` (``time.time()`` values)."""
        return CALIB_REF_S / statistics.mean(self._window(start, end))

    def cpu_between(self, start: float, end: float) -> float:
        """CPU seconds the sampler itself used inside ``[start, end]``."""
        return sum(
            c / self.SLICE for t, c in self.samples if start <= t <= end
        )

    def ref_cpu(self, start: float, end: float, cpu: float) -> float:
        """``cpu`` process seconds measured over ``[start, end]``, less
        the sampler's own, in reference-host seconds."""
        return (cpu - self.cpu_between(start, end)) * self.scale(start, end)



@contextlib.contextmanager
def one_cpu():
    """Run every thread of this process on one CPU.

    Around single-threaded work measured with a :class:`HostClock`, this
    makes the sampler see the contention the measured code sees (the
    other vCPU can be busier or quieter).  Not around a process pool,
    whose workers would share that CPU, nor around the gateway: its
    threads trade the interpreter lock, and pinned they read noisier.
    """
    cpus = os.sched_getaffinity(0)

    def pin(mask) -> None:
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), mask)
            except ProcessLookupError:
                pass  # the thread ended meanwhile

    pin({min(cpus)})
    try:
        yield
    finally:
        pin(cpus)


def work_dir(root: str) -> str:
    """A fresh directory for caches and journals under ``root``."""
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="perf-", dir=root)


# -- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int, scale: "str | None", root: str) -> dict:
    """Everything that happens before the first measured call.

    Returns the state the workload function needs.  The caller reads
    ``time.process_time()`` right after: that is ``setup_s``.
    """
    if workload in BATCH:
        from repro.bench import runner  # noqa: F401 - part of set-up
        from repro.obs import profile  # noqa: F401

        c0 = time.process_time()
        inputs = build_inputs(workload, seed, scale or "paper")
        return {"inputs": inputs, "build_cpu": time.process_time() - c0}
    if workload == "matrix":
        from repro.bench import cache, export  # noqa: F401

        return {}
    if workload == "serve":
        return start_server(work_dir(root))
    raise ValueError(f"unknown workload {workload!r}")


def teardown(workload: str, state: dict) -> None:
    if workload == "serve":
        stop_server(state)


# -- batch workloads -----------------------------------------------------------


def build_inputs(workload: str, seed: int, scale: str) -> list:
    """The seeded workload inputs of a batch workload at ``scale``."""
    from repro.bench.scale import SCALES
    from repro.workloads import bitcount, matmul, zoom

    params = SCALES[scale]
    inputs = [
        matmul.build(**params["mmul"], seed=seed),
        zoom.build(**params["zoom"], seed=seed),
    ]
    if BATCH[workload]["bitcnt"]:
        inputs.append(bitcount.build(**params["bitcnt"]))
    return inputs


def _run_one(workload: str, wl):
    """One verified run of one input; raises on a wrong output."""
    from repro.bench import runner
    from repro.obs import profile
    from repro.sim.config import paper_config

    mode = BATCH[workload]
    config = paper_config(SPES)
    if mode["observe"]:
        result, _ = profile.profile_workload(
            wl, config, prefetch=mode["prefetch"], verify=True
        )
        return result
    return runner.run_workload(
        wl, config, prefetch=mode["prefetch"], verify=True
    )


def _run_pass(workload: str, inputs: list, clock: "HostClock | None" = None):
    """One pass over the inputs: per-run samples, digest and errors."""
    samples, stats, errors = [], [], []
    for wl in inputs:
        c0, w0, t0 = time.process_time(), time.perf_counter(), time.time()
        try:
            result = _run_one(workload, wl)
        except Exception as exc:  # a wrong output fails the run, not the bench
            errors.append(f"{wl.name}: {type(exc).__name__}: {exc}")
            result = None
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        t1 = time.time()
        if result is None:
            continue
        stats.append(result.stats)
        sampler = clock.cpu_between(t0, t1) if clock else 0.0
        samples.append({
            "input": wl.name, "wall": wall - sampler, "cpu": cpu - sampler,
            "scale": clock.scale(t0, t1) if clock else 1.0,
            "instructions": result.stats.mix.total,
        })
    return {"samples": samples, "sha": stats_digest(stats), "errors": errors}


def _pass_estimate(samples: list, key: str, normalized: bool = True) -> float:
    """A pass's ``key`` (cpu or wall): the sum over inputs of each
    input's median sample, in reference-host seconds if ``normalized``."""
    by_input: dict = {}
    for s in samples:
        value = s[key] * (s["scale"] if normalized else 1.0)
        by_input.setdefault(s["input"], []).append(value)
    return sum(statistics.median(v) for v in by_input.values())


def batch(
    workload: str,
    state: dict,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "paper",
) -> dict:
    """Passes over the inputs until ``seconds`` are used (at least two).

    Peak RSS is read after the second pass: it grows slowly with the
    pass count.
    """
    inputs = state["inputs"]
    passes = []
    started = time.perf_counter()
    with HostClock() as clock, one_cpu():
        while _keep_going(started, len(passes), seconds):
            passes.append(_run_pass(workload, inputs, clock))
            if len(passes) == 2:
                rss_mb = peak_rss_mb()
    samples = [s for p in passes for s in p["samples"]]
    instructions = sum(s["instructions"] for s in passes[0]["samples"])
    shas = {p["sha"] for p in passes}
    errors = [e for p in passes for e in p["errors"]]
    out = {
        "metrics": {
            "sim_ips": instructions / _pass_estimate(samples, "cpu"),
            "latency_ms": 1e3 * _pass_estimate(samples, "wall"),
            "peak_rss_mb": rss_mb,
        },
        "attempted": len(passes) * len(inputs),
        "failed": len(errors),
        "checks": [
            ["outputs verified by the oracle", not errors,
             "; ".join(errors[:3]) or f"{len(passes)} passes"],
            ["stats_sha equal across passes", len(shas) == 1,
             f"{len(shas)} distinct"],
        ],
        "context": {
            "passes": len(passes),
            "stats_sha": passes[0]["sha"],
            "raw_sim_ips": instructions / _pass_estimate(
                samples, "cpu", normalized=False),
            "host_scale_median": statistics.median(
                s["scale"] for s in samples),
        },
    }
    if trace:
        base_cpu = state["build_cpu"] + _pass_estimate(samples, "cpu")
        with HostClock() as clock, one_cpu(), LayerTracer() as tracer:
            c0, w0, t0 = time.process_time(), time.perf_counter(), time.time()
            traced = _run_pass(workload, build_inputs(workload, seed, scale))
            wall = time.perf_counter() - w0
            cpu = clock.ref_cpu(t0, time.time(), time.process_time() - c0)
        out["layers"], out["detail"] = layer_metrics(
            tracer, wall=wall, overhead=cpu / base_cpu, root="run",
        )
        explained = out["detail"]["trace.explained_pct"]
        out["checks"] += [
            ["stats_sha equal traced vs untraced",
             traced["sha"] == passes[0]["sha"] and not traced["errors"],
             traced["sha"][:16]],
            ["layers explain >= 90% of the traced pass", explained >= 90,
             f"{explained:.1f}%"],
        ]
        out["spans"] = tracer.spans
    return out


# -- matrix --------------------------------------------------------------------


def _matrix_runs(result: dict) -> list:
    """Every run dict of a ``reproduce_all`` result."""
    runs = []
    for scaling in result["experiments"]["scaling"].values():
        for point in scaling["points"].values():
            runs += [point["base"], point["prefetch"]]
    for pair in result["experiments"]["latency1"].values():
        runs += [pair["base"], pair["prefetch"]]
    return runs


def speedup_error_pct(result: dict) -> float:
    """Mean |simulated / paper - 1| of the 8-SPE prefetch speedups."""
    scaling = result["experiments"]["scaling"]
    errs = [
        abs(scaling[name]["points"]["8"]["speedup"] / paper - 1)
        for name, paper in sorted(PAPER_SPEEDUPS.items())
    ]
    return 100.0 * sum(errs) / len(errs)


def _reproduce(root: str, scale: str, jobs: int, cache=None):
    """One ``reproduce_all``; returns (cache, result, JSON, wall, CPU)."""
    from repro.bench import export
    from repro.bench.cache import ResultCache

    if cache is None:
        cache = ResultCache(work_dir(root))
    c0, k0, w0 = time.process_time(), children_cpu_s(), time.perf_counter()
    result = export.reproduce_all(
        scale=scale, jobs=jobs, cache=cache, keep_going=True
    )
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0 + children_cpu_s() - k0
    return cache, result, json.dumps(result, sort_keys=True), wall, cpu


def _pickle_cost(cache, scale: str) -> dict:
    """Bytes and time to pickle+unpickle the matrix's tasks and results,
    which is what the process pool ships between processes."""
    from repro.bench.parallel import pair_tasks
    from repro.bench.scale import builders, spe_counts
    from repro.sim.config import latency1_config, paper_config

    tasks = []
    workloads = [build() for build in builders(scale).values()]
    for wl in workloads:
        for n in spe_counts():
            tasks += pair_tasks(wl, paper_config(n))
    for wl in workloads:
        tasks += pair_tasks(wl, latency1_config(max(spe_counts())))
    results = [cache.get(task.key()) for task in tasks]
    nbytes, t0 = 0, time.perf_counter()
    for obj in tasks + results:
        blob = pickle.dumps(obj)
        nbytes += len(blob)
        pickle.loads(blob)
    return {
        "bytes": nbytes,
        "ms": 1e3 * (time.perf_counter() - t0),
        "all_cached": all(r is not None for r in results),
    }


def matrix(
    state: dict,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "default",
    root: str = ".",
    jobs: int = 2,
    warm_passes: int = 5,
) -> dict:
    """Cold ``reproduce_all`` passes on fresh caches, each followed by
    ``warm_passes`` warm ones, until ``seconds`` are used.

    ``sim_ips`` and ``latency_ms`` come from the cold passes: CPU of the
    process and its pool workers, and wall time.  A researcher who
    changed the code gets a cold pass, because the cache keys include a
    code stamp.  A warm pass takes ~25 ms and reads the host's speed far
    less steadily, so its time is context; the warm passes check that
    cached results equal fresh ones.  The matrix's inputs are the
    repository's fixed benchmark inputs, so ``seed`` does not change
    them.
    """
    del seed
    colds, warms, problems = [], [], []
    reference = None
    n_runs = 0
    started = time.perf_counter()
    with HostClock() as clock:
        while _keep_going(started, len(colds), seconds):
            t0 = time.time()
            cache, result, text, wall, cpu = _reproduce(root, scale, jobs)
            t1 = time.time()
            runs = _matrix_runs(result)
            n_runs = len(runs)
            colds.append({
                "wall": wall, "cpu": clock.ref_cpu(t0, t1, cpu),
                "ref_wall": wall * clock.scale(t0, t1),
                "instructions": sum(r["instructions"]["total"] for r in runs),
                "degraded": len(result.get("degraded", [])),
            })
            if reference is None:
                reference = (result, text)
            elif text != reference[1]:
                problems.append("cold JSON differs between passes")
            # Warm passes start no pool (every task is a cache hit).
            for _ in range(warm_passes):
                hits, t0 = cache.hits, time.time()
                _, _, warm_text, warm_wall, _ = _reproduce(
                    root, scale, jobs, cache)
                warms.append(warm_wall - clock.cpu_between(t0, time.time()))
                if warm_text != text:
                    problems.append("warm JSON differs from cold")
                if cache.hits - hits != n_runs:
                    problems.append(
                        f"warm pass served {cache.hits - hits}/{n_runs} "
                        f"from cache")
            shutil.rmtree(cache.root, ignore_errors=True)
            if len(colds) == 1:
                rss_mb = peak_rss_mb()
    degraded = sum(c["degraded"] for c in colds)
    out = {
        "metrics": {
            "sim_ips": statistics.median(
                c["instructions"] / c["cpu"] for c in colds),
            "latency_ms": 1e3 * statistics.median(
                c["ref_wall"] for c in colds),
            "peak_rss_mb": rss_mb,
        },
        "attempted": n_runs * (len(colds) + len(warms)),
        "failed": degraded,
        "checks": [
            ["every run verified, none degraded", degraded == 0,
             f"{degraded} degraded"],
            ["cold == every warm pass, byte for byte", not problems,
             "; ".join(sorted(set(problems))) or
             f"{len(colds)} cold x {warm_passes} warm"],
        ],
        "context": {
            "cold_passes": len(colds),
            "warm_passes": len(warms),
            "cold_s": statistics.median(c["wall"] for c in colds),
            "raw_warm_ms": 1e3 * statistics.median(warms),
            "stats_sha": hashlib.sha256(reference[1].encode()).hexdigest(),
            "speedup_err_pct": speedup_error_pct(reference[0]),
        },
    }
    if trace:
        # Tracing runs in-process, so compare serial (jobs=1) passes.
        with HostClock() as clock, one_cpu():
            t0 = time.time()
            plain = _reproduce(root, scale, 1)
            _, _, plain_warm_text, _, plain_warm_cpu = _reproduce(
                root, scale, 1, plain[0]
            )
            plain_cpu = clock.ref_cpu(t0, time.time(),
                                      plain[4] + plain_warm_cpu)
            shutil.rmtree(plain[0].root, ignore_errors=True)
            with LayerTracer() as tracer:
                w0, t0 = time.perf_counter(), time.time()
                traced = _reproduce(root, scale, 1)
                _, _, warm_text, _, warm_cpu = _reproduce(
                    root, scale, 1, traced[0])
                wall = time.perf_counter() - w0
                traced_cpu = clock.ref_cpu(t0, time.time(),
                                           traced[4] + warm_cpu)
        cache = traced[0]
        hits, misses = cache.hits, cache.misses
        pickled = _pickle_cost(cache, scale)
        cache.hits, cache.misses = hits, misses
        out["checks"] += [
            ["serial and traced cold == parallel cold, byte for byte",
             plain[2] == traced[2] == reference[1]
             and plain_warm_text == warm_text == reference[1], "jobs=1"],
            ["pickled tasks are the matrix's tasks", pickled["all_cached"],
             "every task key hits the cache"],
        ]
        out["layers"], out["detail"] = layer_metrics(
            tracer, wall=wall, overhead=traced_cpu / plain_cpu,
            root="export", cache=cache, pickle_bytes=pickled["bytes"],
        )
        shutil.rmtree(cache.root, ignore_errors=True)
        out["detail"]["parallel.pickle_ms"] = pickled["ms"]
        out["spans"] = tracer.spans
    return out


# -- serve ---------------------------------------------------------------------


def start_server(root: str, workers: int = 2) -> dict:
    """An in-process gateway on a fresh cache, ready to accept jobs."""
    from repro.bench.cache import ResultCache
    from repro.serve.app import ServeApp

    cache = ResultCache(root)
    app = ServeApp(host="127.0.0.1", port=0, cache=cache, workers=workers)
    thread = threading.Thread(target=app.run, name="serve-app")
    thread.start()
    if not app.ready.wait(timeout=30):
        app.request_drain()
        thread.join(timeout=30)
        raise RuntimeError("gateway did not become ready")
    return {"app": app, "thread": thread, "cache": cache}


def stop_server(state: dict) -> None:
    state["app"].request_drain()
    state["thread"].join(timeout=60)
    if state["thread"].is_alive():
        raise RuntimeError("gateway did not drain within 60 s")
    shutil.rmtree(state["cache"].root, ignore_errors=True)


def serve_schedule(seed: int, seconds: float, rate: float, scale: str) -> list:
    """``(offset_s, params)`` of ``rate * seconds`` jobs, in due order.

    Fresh jobs walk the benchmark x SPEs x prefetch grid in seeded
    shuffled rounds (so every seed gets the same mix) with a random
    memory latency.  About ``REPEAT_SHARE`` of the jobs repeat a fresh job's
    spec, half each way:

    * a *burst* is sent 5 ms after the job it repeats, as when two
      clients ask at once: the gateway coalesces it into the running job;
    * a *cached* repeat has a slot of its own and repeats a job due at
      least ``CACHED_REPEAT_AGE_S`` before it: a cache hit.

    Fresh and cached jobs take evenly spaced slots over ``seconds``,
    each moved by a seeded jitter of up to +-40% of the gap.
    """
    rng = random.Random(seed)
    count = max(2, round(rate * seconds))
    grid = [
        (bench, spes, prefetch)
        for bench in ("bitcnt", "mmul", "zoom")
        for spes in (1, 2, 4, 8)
        for prefetch in (False, True)
    ]
    fresh = count - round(REPEAT_SHARE * count)
    if fresh >= len(grid):
        fresh = len(grid) * round(fresh / len(grid))
    bursts = min(fresh, round(REPEAT_SHARE * count / 2))
    slots = count - bursts
    gap = seconds / slots
    cached = set(rng.sample(range(1, slots), slots - fresh))
    burst_after = set(rng.sample(range(fresh), bursts))
    order: list = []
    seen: set = set()
    fresh_jobs: list = []  # (offset, params) of fresh jobs so far
    schedule: list = []
    for slot in range(slots):
        offset = max(0.0, (slot + rng.uniform(-0.4, 0.4)) * gap)
        if slot in cached:
            old = [p for t, p in fresh_jobs
                   if t <= offset - CACHED_REPEAT_AGE_S]
            params = rng.choice(old) if old else fresh_jobs[0][1]
            schedule.append((offset, params))
            continue
        if not order:
            order = grid[:]
            rng.shuffle(order)
        bench, spes, prefetch = order.pop()
        latency = rng.randrange(50, 400)
        while (bench, spes, prefetch, latency) in seen:
            latency = rng.randrange(50, 400)
        seen.add((bench, spes, prefetch, latency))
        params = dict(benchmark=bench, scale=scale, spes=spes,
                      prefetch=prefetch, latency=latency)
        schedule.append((offset, params))
        if len(fresh_jobs) in burst_after:
            schedule.append((offset + 0.005, params))
        fresh_jobs.append((offset, params))
    return schedule


def _drive(port: int, schedule: list, client_name: str, deadline_s: float):
    """Send ``schedule`` open-loop from one thread; collect finished jobs
    from another.  Returns per-job records and collected payloads."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(port=port, client=client_name, timeout=60.0)
    jobs: list = [None] * len(schedule)
    payloads: dict = {}
    statuses: dict = {}
    result_ms: list = []
    submitted = threading.Event()
    base_perf = time.perf_counter()
    base_wall = time.time()

    def submitter() -> None:
        for i, (offset, params) in enumerate(schedule):
            delay = base_perf + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            record = {"due": base_wall + offset,
                      "late_ms": 1e3 * (sent - base_perf - offset)}
            try:
                status = client.submit("run", **params)
            except ServeError as exc:
                record["error"] = f"refused: {exc}"
            except OSError as exc:
                record["error"] = f"client error: {exc}"
            else:
                record["id"] = status["id"]
                record["coalesced"] = status.get("coalesced_into") is not None
            record["submit_ms"] = 1e3 * (time.perf_counter() - sent)
            jobs[i] = record
        submitted.set()

    def collector() -> None:
        limit = base_perf + deadline_s
        while time.perf_counter() < limit:
            done_sending = submitted.is_set()
            try:
                listing = client.jobs(client=client_name)
            except (ServeError, OSError):
                time.sleep(0.1)
                continue
            for status in listing:
                if status["state"] not in ("done", "failed", "cancelled"):
                    continue
                if status["id"] in statuses:
                    continue
                statuses[status["id"]] = status
                if status["state"] == "done":
                    t0 = time.perf_counter()
                    try:
                        payloads[status["id"]] = client.result(status["id"])
                    except (ServeError, OSError):
                        continue
                    result_ms.append(1e3 * (time.perf_counter() - t0))
            wanted = {j["id"] for j in jobs if j is not None and "id" in j}
            if done_sending and wanted <= set(statuses):
                return
            time.sleep(0.1)

    threads = [threading.Thread(target=submitter, name="bench-submit"),
               threading.Thread(target=collector, name="bench-collect")]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=deadline_s + 60)
    if any(th.is_alive() for th in threads):
        raise RuntimeError("load generator did not finish")
    return jobs, statuses, payloads, result_ms


def _load_phase(
    state: dict, schedule: list, seconds: float,
    clock: "HostClock | None" = None,
) -> dict:
    """Drive one schedule through a gateway; latencies and payloads."""
    app = state["app"]
    c0, w0, t0 = time.process_time(), time.perf_counter(), time.time()
    jobs, statuses, payloads, result_ms = _drive(
        app.bound_port, schedule, "bench", deadline_s=seconds + 60
    )
    wall, t1 = time.perf_counter() - w0, time.time()
    phase = {
        "jobs": jobs, "statuses": statuses, "payloads": payloads,
        "cpu": time.process_time() - c0
        - (clock.cpu_between(t0, t1) if clock else 0.0),
        "wall": wall, "rss_mb": peak_rss_mb(),
        "scale": clock.scale(t0, t1) if clock else 1.0,
        "failed": 0, "latency": [],
        "raw_latency": [], "fresh": [], "repeat": [], "queue": [],
        "run": [], "submit": [], "result_ms": result_ms,
    }
    for job in jobs:
        status = statuses.get(job.get("id"))
        if "error" in job or status is None or status["state"] != "done":
            phase["failed"] += 1
            continue
        lat = status["finished"] - job["due"]
        phase["raw_latency"].append(lat)
        if clock is not None:
            lat *= clock.scale(job["due"], status["finished"])
        phase["latency"].append(lat)
        repeated = job["coalesced"] or status["cached"]
        phase["repeat" if repeated else "fresh"].append(lat)
        phase["submit"].append(max(0.0, status["created"] - job["due"]))
        phase["queue"].append(status["started"] - status["created"])
        phase["run"].append(status["finished"] - status["started"])
    phase["simulated"] = sum(
        payloads[jid]["run"]["instructions"]["total"]
        for jid, st in statuses.items()
        if jid in payloads and not st["cached"]
    )
    return phase


def _direct_matches(schedule: list, phase: dict, count: int = 5) -> list:
    """Re-run the first ``count`` distinct specs directly; compare."""
    from repro.bench.export import run_to_dict
    from repro.serve import protocol

    problems, seen = [], []
    for (_, params), job in zip(schedule, phase["jobs"]):
        if params in seen or job.get("id") not in phase["payloads"]:
            continue
        seen.append(params)
        request = protocol.parse_request(
            {"v": protocol.PROTOCOL_VERSION, "kind": "run", "params": params}
        )
        direct = run_to_dict(protocol.build_tasks(request.spec)[0].run())
        served = phase["payloads"][job["id"]]["run"]
        if json.dumps(direct, sort_keys=True) != json.dumps(
            served, sort_keys=True
        ):
            problems.append(f"{params}")
        if len(seen) == count:
            break
    if len(seen) < count:
        problems.append(f"only {len(seen)} distinct specs were served")
    return problems


def serve(
    state: dict,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "test",
    rate: float = 5.0,
    root: str = ".",
) -> dict:
    """Open-loop traffic at ``rate`` jobs/s for ``seconds`` seconds."""
    schedule = serve_schedule(seed, seconds, rate, scale)
    with HostClock() as clock:
        phase = _load_phase(state, schedule, seconds, clock)
    problems = _direct_matches(schedule, phase)
    done = len(phase["latency"])
    within = sum(1 for lat in phase["raw_latency"] if lat <= LATENCY_LIMIT_S)
    # The highest percentile with at least ten samples beyond it.
    tail_q = max(0.5, 1.0 - 10.0 / max(1, done))
    out = {
        "metrics": {
            "sim_ips": phase["simulated"] / (phase["cpu"] * phase["scale"]),
            "latency_ms": 1e3 * statistics.median(phase["latency"] or [0]),
            "peak_rss_mb": phase["rss_mb"],
        },
        "attempted": len(schedule),
        "failed": phase["failed"],
        "checks": [
            ["every job accepted and done", phase["failed"] == 0,
             f"{phase['failed']} failed or refused"],
            ["first 5 distinct specs == direct runs", not problems,
             "; ".join(problems[:3]) or "5 equal"],
        ],
        "context": {
            "jobs": len(schedule),
            "rate_jps": rate,
            f"tail_p{round(100 * tail_q)}_ms": 1e3 * _percentile(
                phase["latency"] or [0], tail_q),
            "goodput_jps": within / (len(schedule) / rate),
            "raw_p50_ms": 1e3 * statistics.median(
                phase["raw_latency"] or [0]),
            "busy_frac": sum(phase["run"]) / phase["wall"],
            "stats_sha": hashlib.sha256(json.dumps(
                [phase["payloads"][j["id"]]["run"] for j in phase["jobs"]
                 if j.get("id") in phase["payloads"]], sort_keys=True,
            ).encode()).hexdigest(),
        },
    }
    if trace:
        fresh_state = start_server(work_dir(root))
        try:
            with HostClock() as clock, LayerTracer() as tracer:
                traced = _load_phase(fresh_state, schedule, seconds, clock)
            layers, detail = layer_metrics(
                tracer, wall=traced["wall"],
                overhead=(traced["cpu"] * traced["scale"])
                / (phase["cpu"] * phase["scale"]),
                root="serve.execute", cache=fresh_state["cache"],
            )
        finally:
            stop_server(fresh_state)
        same = [
            traced["payloads"].get(a.get("id")) == phase["payloads"].get(
                b.get("id"))
            for a, b in zip(traced["jobs"], phase["jobs"])
        ]
        out["checks"].append([
            "traced payloads == untraced payloads", all(same),
            f"{sum(same)}/{len(same)} equal",
        ])
        total = sum(phase["submit"]) + sum(phase["queue"]) + sum(phase["run"])
        layers.update({
            "serve.submit_pct": 100 * sum(phase["submit"]) / total,
            "serve.queue_pct": 100 * sum(phase["queue"]) / total,
            "serve.run_pct": 100 * sum(phase["run"]) / total,
            "serve.coalesced": sum(
                1 for j in phase["jobs"] if j.get("coalesced")),
            "serve.rejected": sum(
                1 for j in phase["jobs"]
                if j.get("error", "").startswith("refused")),
        })
        detail.update({
            "serve.submit_ms_p50": statistics.median(
                j["submit_ms"] for j in phase["jobs"]),
            "serve.result_ms_p50": statistics.median(
                phase["result_ms"] or [0]),
            "serve.queue_wait_ms_p50": 1e3 * statistics.median(
                phase["queue"] or [0]),
            "serve.run_ms_p50": 1e3 * statistics.median(phase["run"] or [0]),
            "serve.fresh_p50_ms": 1e3 * statistics.median(
                phase["fresh"] or [0]),
            "serve.cached_p50_ms": 1e3 * statistics.median(
                phase["repeat"] or [0]),
            "serve.gen_late_ms_p95": _percentile(
                [j["late_ms"] for j in phase["jobs"]], 0.95),
        })
        for jid, status in sorted(traced["statuses"].items()):
            tracer.add_span("serve.job", status["created"],
                            status["finished"], jid)
        out["layers"], out["detail"] = layers, detail
        out["spans"] = tracer.spans
    return out


# -- per-layer metrics ---------------------------------------------------------

#: Tracer layers reported as ``<layer>.self_pct``.
SHARE_LAYERS = (
    "engine", "spu", "lse", "dse", "mfc", "bus", "memory", "ppe",
    "watchdog", "machine.setup", "machine.stats", "compiler.prefetch",
    "decode", "workloads.build", "workloads.verify", "obs.sampler",
    "obs.tracer", "obs.profile_build", "parallel", "cache.get",
    "cache.put", "journal", "export",
)


def layer_metrics(
    tracer: LayerTracer,
    wall: float,
    overhead: float,
    root: str,
    cache=None,
    pickle_bytes: int = 0,
) -> "tuple[dict, dict]":
    """Per-layer metrics of a traced run, and per-call detail.

    Self times are shares of the host time spent inside traced entry
    points, summed over threads (``serve`` simulates on two), so a
    workload that never enters a layer reads 0 % for it.  ``root`` names
    the tracer layer of the outermost call, whose self time is the part
    no narrower layer explains; ``trace.coverage_pct`` is the rest.
    ``detail["trace.explained_pct"]`` compares the same layers with the
    traced run's wall time net of the tracer's own cost.  ``cache`` is
    the result cache the traced run used, if any.
    """
    totals = tracer.totals()
    sim = tracer.sim
    host = sum(s for s, _ in totals.values())

    def self_s(layer: str) -> float:
        return totals.get(layer, (0.0, 0))[0]

    def calls(layer: str) -> int:
        return totals.get(layer, (0.0, 0))[1]

    attributed = host - self_s(root)
    events = sim["engine_ticks"] + sim["engine_callbacks"]
    layers = {
        f"{layer}.self_pct": 100 * self_s(layer) / host
        for layer in SHARE_LAYERS
    }
    layers.update({
        "trace.wall_s": wall,
        "trace.overhead_x": overhead,
        "trace.coverage_pct": 100 * attributed / host,
        "sim.runs": sim["runs"],
        "sim.instructions": sim["instructions"],
        "engine.events": events,
        "engine.ns_per_event": 1e9 * self_s("engine") / max(1, events),
        "engine.stale_frac": sim["engine_stale"] / max(
            1, events + sim["engine_stale"]),
        "spu.ticks": calls("spu"),
        "spu.instr_per_tick": sim["instructions"] / max(1, calls("spu")),
        "lse.calls": calls("lse"),
        "dse.calls": calls("dse"),
        "mfc.calls": calls("mfc"),
        "mfc.commands": sim["mfc_commands"],
        "mfc.bytes": sim["mfc_bytes"],
        "bus.calls": calls("bus"),
        "bus.transfers": sim["bus_transfers"],
        "bus.queue_wait_cycles": sim["bus_queue_wait_cycles"],
        "memory.calls": calls("memory"),
        "memory.port_wait_cycles": sim["memory_port_wait_cycles"],
        "watchdog.calls": calls("watchdog"),
        "cache.hits": cache.hits if cache is not None else 0,
        "cache.misses": cache.misses if cache is not None else 0,
        "cache.bytes": cache.disk_usage()[1] if cache is not None else 0,
        "journal.appends": calls("journal"),
        "parallel.pickle_bytes": pickle_bytes,
        "serve.submit_pct": 0.0,
        "serve.queue_pct": 0.0,
        "serve.run_pct": 0.0,
        "serve.coalesced": 0,
        "serve.rejected": 0,
    })
    detail = {
        f"{layer}.ms_per_call": 1e3 * s / n
        for layer, (s, n) in sorted(totals.items()) if n
    }
    detail["trace.bias_ns"] = tracer.bias_ns
    detail["trace.explained_pct"] = 100 * attributed / (
        wall - tracer.overhead_s())
    return layers, detail
