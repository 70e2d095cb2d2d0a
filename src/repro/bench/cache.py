"""Persistent result cache for simulated runs.

A simulated run is a pure function of (workload, machine configuration,
prefetch options, simulator code), so completed :class:`RunResult`s can
be reused across processes: repeated sweeps, ``reproduce`` re-runs and
the benchmark suite's shape assertions all skip simulations that have
already been performed.

Keys are content hashes: workload name + build parameters + a digest of
the activity itself, the full :class:`~repro.sim.config.MachineConfig`,
the prefetch variant and its :class:`~repro.compiler.passes.PrefetchOptions`,
the cycle limit, and a **code-version stamp** (a hash over every ``.py``
file of the :mod:`repro` package).  Any change to the simulator, the
compiler pass or a workload generator therefore invalidates every entry
automatically — a stale cache can never masquerade as a fresh result.

Entries are pickled ``RunResult`` objects, one file per key, written
atomically.  The cache directory defaults to
``$XDG_CACHE_HOME/repro-bench`` (``~/.cache/repro-bench``) and can be
moved with ``REPRO_BENCH_CACHE=<dir>`` or disabled with
``REPRO_BENCH_CACHE=off`` (the CLI's ``--no-cache`` does the same for
one invocation).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from repro.cell.machine import RunResult
from repro.compiler.passes import PrefetchOptions
from repro.sim.config import MachineConfig
from repro.workloads.common import Workload

__all__ = [
    "ResultCache",
    "default_cache",
    "default_max_bytes",
    "result_key",
    "code_stamp",
    "parse_bytes",
]

#: ``REPRO_BENCH_CACHE`` values that disable the default cache.
_OFF_VALUES = {"off", "none", "0", "no", "false"}

#: Multipliers for the ``k``/``m``/``g`` suffixes of :func:`parse_bytes`.
_BYTE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_bytes(text: "str | int | None") -> "int | None":
    """Parse a byte-size spec: a plain integer or ``<n>k``/``m``/``g``.

    Returns ``None`` for ``None``/empty input and raises ``ValueError``
    on garbage — callers (CLI, env parsing) decide how loudly to fail.
    """
    if text is None:
        return None
    if isinstance(text, int):
        return text if text > 0 else None
    spec = text.strip().lower()
    if not spec:
        return None
    factor = 1
    if spec[-1] in _BYTE_SUFFIXES:
        factor = _BYTE_SUFFIXES[spec[-1]]
        spec = spec[:-1]
    try:
        value = int(float(spec) * factor)
    except ValueError:
        raise ValueError(
            f"bad byte size {text!r} (expected e.g. 1048576, 512k, 64m, 2g)"
        )
    return value if value > 0 else None


@functools.lru_cache(maxsize=1)
def code_stamp() -> str:
    """Hash of every ``.py`` source file of the :mod:`repro` package.

    Computed once per process; any source change produces a new stamp and
    thereby a disjoint key space (old entries are simply never read).
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _activity_digest(workload: Workload) -> str:
    """Content digest of the baseline activity (templates + globals).

    Guards against two workloads sharing a name and parameter dict while
    differing in generated code or input data.
    """
    return hashlib.sha256(pickle.dumps(workload.activity)).hexdigest()[:16]


def result_key(
    workload: Workload,
    config: MachineConfig,
    prefetch: bool,
    options: PrefetchOptions | None = None,
    max_cycles: int = 500_000_000,
) -> str:
    """Deterministic cache key for one :func:`~repro.bench.runner.run_workload`.

    A prefetch run keys on the options it runs with, so ``options=None``
    and ``PrefetchOptions()`` give one key; a base run uses no options
    and its key ignores them.
    """
    if prefetch:
        options = options or PrefetchOptions()
    ident = {
        "code": code_stamp(),
        "workload": workload.name,
        "params": workload.params,
        "activity": _activity_digest(workload),
        "config": dataclasses.asdict(config),
        "prefetch": prefetch,
        "options": dataclasses.asdict(options) if prefetch else None,
        "max_cycles": max_cycles,
    }
    blob = json.dumps(ident, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Directory-backed store of pickled :class:`RunResult` objects.

    I/O failures (unwritable directory, corrupt entry, unpicklable stale
    class layout) degrade to cache misses — the cache must never turn a
    runnable experiment into an error.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        max_bytes: "int | None" = None,
    ) -> None:
        self.root = Path(root)
        #: Size budget in bytes; ``None`` = unbounded.  When a store
        #: pushes the cache over budget, least-recently-*used* entries
        #: (by mtime — hits touch their file) are evicted first.
        self.max_bytes = max_bytes
        #: Entries served from disk.
        self.hits = 0
        #: Lookups that fell through to simulation.
        self.misses = 0
        #: Results written since construction.
        self.stores = 0
        #: Corrupt/stale entries quarantined to ``<key>.corrupt``.
        self.corrupt = 0
        #: Entries removed by the LRU size budget.
        self.evicted = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry aside so it is never re-parsed.

        A truncated write (crash mid-store before the atomic rename ever
        happened is impossible, but a torn disk or a stale class layout
        is not) would otherwise be re-read and re-rejected on every
        lookup of its key.  Renaming to ``<key>.corrupt`` keeps the bytes
        for post-mortems while taking them out of the lookup path.
        """
        path = self._path(key)
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return
        self.corrupt += 1

    def get(self, key: str) -> RunResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss.

        Entries that exist but cannot be unpickled (corrupt bytes, a
        stale ``RunResult`` layout from before a refactor) are
        quarantined to ``<key>.corrupt`` and counted in ``corrupt``.
        """
        try:
            with open(self._path(key), "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        except (pickle.PickleError, EOFError, AttributeError,
                ImportError, TypeError, ValueError):
            self._quarantine(key)
            self.misses += 1
            return None
        if not isinstance(result, RunResult):
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Touch on hit: mtime is the LRU clock of the size budget, so
            # a served entry must count as recently used.
            os.utime(self._path(key))
        except OSError:
            pass
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` (atomic write, best effort)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return
        self.stores += 1
        if self.max_bytes is not None:
            self.trim(self.max_bytes)

    def disk_usage(self) -> "tuple[int, int]":
        """``(entries, bytes)`` currently on disk (live entries only)."""
        entries = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return entries, total

    def trim(self, max_bytes: "int | None" = None) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        ``max_bytes`` defaults to the cache's own budget; with neither
        set this is a no-op.  Returns the number of entries evicted
        (also accumulated in ``evicted``).  Eviction is best-effort: a
        file that cannot be stat'ed or unlinked is simply skipped — the
        budget is advisory, correctness never depends on it.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None or not self.root.is_dir():
            return 0
        entries = []
        total = 0
        for path in self.root.glob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        entries.sort()  # oldest mtime first = least recently used
        removed = 0
        for mtime, size, path in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self.evicted += removed
        return removed

    def clear(self) -> int:
        """Delete every entry (including quarantined ones); returns the
        number of live entries removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.root.glob("*.corrupt"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def summary(self) -> str:
        """One-line statistics for CLI status output."""
        text = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s)"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt entr(ies) quarantined"
        if self.evicted:
            text += f", {self.evicted} entr(ies) evicted by the size budget"
        return text

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores}, "
            f"corrupt={self.corrupt})"
        )


def default_max_bytes() -> "int | None":
    """Cache size budget from ``REPRO_BENCH_CACHE_MAX_BYTES`` (off when
    unset/unparseable; accepts ``k``/``m``/``g`` suffixes)."""
    raw = os.environ.get("REPRO_BENCH_CACHE_MAX_BYTES")
    try:
        return parse_bytes(raw)
    except ValueError:
        return None


def default_cache() -> ResultCache | None:
    """The cache selected by the environment, or ``None`` when disabled.

    ``REPRO_BENCH_CACHE`` may name a directory or one of
    ``off``/``none``/``0`` to disable caching; unset, the cache lives at
    ``$XDG_CACHE_HOME/repro-bench`` (``~/.cache/repro-bench``).
    ``REPRO_BENCH_CACHE_MAX_BYTES`` (e.g. ``512m``) bounds its size with
    LRU eviction — essential for long-lived servers (see repro.serve).
    """
    max_bytes = default_max_bytes()
    env = os.environ.get("REPRO_BENCH_CACHE")
    if env is not None:
        if env.strip().lower() in _OFF_VALUES or not env.strip():
            return None
        return ResultCache(env, max_bytes=max_bytes)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return ResultCache(base / "repro-bench", max_bytes=max_bytes)
