"""Content-addressed cache for sweep and analysis results.

Every batched analysis request — a :class:`repro.batch.SweepSpec`, an
allocation-curve request, an isoefficiency fit — is a pure function of
its inputs, so its result can be keyed by a *fingerprint* of those
inputs and served from a store instead of recomputed.  The cache is
two-level:

* an in-process dictionary (hit cost: one dict lookup), and
* an optional on-disk store under ``cache_dir`` that survives process
  restarts and is shared by worker processes: one ``<key>.frame`` file
  per entry in the binary frame format (:mod:`repro.batch.frame`), so a
  disk hit is one ``read()`` plus a header parse.

Keys are SHA-256 digests of a canonical encoding of the request
(dataclass fields, enum values, array bytes), so two requests collide
only if they are semantically identical — machine parameters, stencil,
partition kind, axes, and tolerances all feed the digest.

Cross-machine dedup: plain bus machines encode as their *closed-form
constants* rather than their raw fields, so two presets whose cycle-time
surfaces are bit-identical — a ``read_write`` synchronous bus and the
``read_only`` bus with doubled constants, or two asynchronous buses
differing only in ``volume_mode`` — canonicalize to one fingerprint and
their sweeps are computed once (see :func:`_canonical_bus`).

Both tiers can be size-bounded (``max_bytes``): entries are tracked in
least-recently-used order and evicted once the tier exceeds the bound,
with eviction counts surfaced in :class:`CacheStats`.  Hit/miss
statistics are tracked per cache and surfaced in the CLI's
``--cache-dir`` output and the daemon's ``/v1/stats``, so a warm cache
is visible, not silent.  A disk tier that cannot be read or written
(full, read-only) degrades to the memory tier: the failure is counted
in ``disk_errors`` and the request is still served.

There is no process-wide cache: a store is used only where a caller
passes one as ``cache=`` (the CLI's ``--cache-dir``, ``repro serve``).
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.batch.frame import FrameError, decode_frame, encode_frame, frame_length
from repro.errors import InvalidParameterError
from repro.machines.bus import AsynchronousBus, SynchronousBus

__all__ = [
    "CacheStats",
    "SweepCache",
    "fingerprint",
    "max_cache_bytes",
]


def max_cache_bytes(max_cache_mb: float | None) -> int | None:
    """The one MiB→bytes conversion behind every ``--max-cache-mb`` flag."""
    return None if max_cache_mb is None else int(max_cache_mb * 2**20)

#: Orphaned temp files younger than this are left alone — they may
#: belong to a live writer in another process; older ones are crash
#: debris and are swept when a cache opens the directory.
ORPHAN_TMP_MAX_AGE_S = 3600.0

#: A writer's temp file: ``*.frame.tmp*``, or ``*.npz.tmp*`` from the
#: store's earlier npz format.
_TMP_FILE = re.compile(r"\.(?:frame|npz)\.tmp")
#: An entry of the earlier npz format, which nothing reads any more.
_LEGACY_ENTRY = re.compile(r"[0-9a-f]{64}\.npz")


# --------------------------------------------------------------------------
# Canonical request encoding
# --------------------------------------------------------------------------


def _canonical_bus(obj: object) -> object | None:
    """Closed-form canonical encoding for plain bus machines, else ``None``.

    A :class:`SynchronousBus` cycle-time surface depends on its fields
    only through the products ``v·b`` and ``v·c`` where ``v`` is the
    direction factor (2 for ``read_write``, 1 for ``read_only``): every
    closed form multiplies ``(v·k)·b`` with ``v`` a power of two, so a
    ``read_write`` bus and the ``read_only`` bus with exactly doubled
    constants produce bit-identical results and share one fingerprint.
    An :class:`AsynchronousBus` never consults ``volume_mode`` at all
    (reads and writes enter its cycle separately), so the mode is
    dropped from its encoding.

    Exact ``type`` checks on purpose: subclasses (e.g. the fully
    asynchronous extension) override the formulas, so they keep the
    generic field-by-field encoding.
    """
    if type(obj) is SynchronousBus:
        v = float(obj._direction_factor())
        return ("bus-closed-form", "synchronous", repr(v * obj.b), repr(v * obj.c))
    if type(obj) is AsynchronousBus:
        return ("bus-closed-form", "asynchronous", repr(obj.b), repr(obj.c))
    return None


def _has_stable_repr(obj: object) -> bool:
    """Whether ``repr(obj)`` is safe to fingerprint.

    The default ``object.__repr__`` prints ``<... at 0x7f...>`` — a
    memory address, different in every process.  Any class that wants
    the repr fallback must override ``__repr__`` deterministically.
    """
    return type(obj).__repr__ is not object.__repr__


def _canonical(obj: object) -> object:
    """A hashable, repr-stable view of a request component.

    Dataclasses (machines, stencils, specs) encode as their qualified
    class name plus all field values, memoized on frozen instances (see
    :func:`_canonical_dataclass`); arrays as shape/dtype/content
    digest.  Two objects encode equal iff the model treats them as the
    same input — including bus presets that share a closed form (see
    :func:`_canonical_bus`).
    """
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return (
            "ndarray",
            data.shape,
            data.dtype.str,
            hashlib.sha256(data.tobytes()).hexdigest(),
        )
    if is_dataclass(obj) and not isinstance(obj, type):
        return _canonical_dataclass(obj)
    if isinstance(obj, enum.Enum):
        return (type(obj).__qualname__, obj.value)
    if isinstance(obj, Mapping):
        # Keys go through _canonical too: a raw repr(k) of a key with a
        # default __repr__ would embed its memory address and split the
        # fingerprint across processes.
        return (
            "map",
            tuple(
                sorted(
                    (repr(_canonical(k)), repr(_canonical(v)))
                    for k, v in obj.items()
                )
            ),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(v)) for v in obj)))
    if isinstance(obj, float):
        # repr round-trips doubles exactly; hash() of floats does not
        # distinguish -0.0 and is platform-dependent for our purposes.
        return ("float", repr(obj))
    if obj is None or isinstance(obj, (str, int, bool, bytes)):
        return obj
    if _has_stable_repr(obj):
        return ("repr", repr(obj))
    raise InvalidParameterError(
        f"cannot fingerprint {type(obj).__qualname__}: it relies on the "
        "default object.__repr__, which embeds the memory address and "
        "differs per process — give it a deterministic __repr__ or make "
        "it a dataclass"
    )


#: Instance attribute holding a frozen dataclass's memoized encoding.
#: It lives on the instance, not in a side table keyed by identity, so
#: it dies with the object and ``dataclasses.replace`` (which builds a
#: fresh instance from the fields) never inherits a stale one.
_MEMO_ATTR = "_fingerprint_canonical"


def _canonical_dataclass(obj: Any) -> object:
    """Encoding of one dataclass instance, memoized when it is frozen.

    Machines, stencils and specs are frozen dataclasses reused across
    requests (catalog presets, library stencils), so their encoding is
    computed once per instance and kept in its ``__dict__``.  A frozen
    instance is a value: its fields cannot be rebound, and a mutable
    container inside one (a stencil's weight mapping) is treated as
    read-only, as its hash and equality already assume.
    """
    state = getattr(obj, "__dict__", None)
    if state is not None:
        memo = state.get(_MEMO_ATTR)
        if memo is not None:
            return memo
    encoding = _canonical_bus(obj)
    if encoding is None:
        encoding = (
            type(obj).__qualname__,
            tuple((f.name, _canonical(getattr(obj, f.name))) for f in fields(obj)),
        )
    params = getattr(type(obj), "__dataclass_params__", None)
    if state is not None and params is not None and params.frozen:
        object.__setattr__(obj, _MEMO_ATTR, encoding)
    return encoding


def fingerprint(request: object) -> str:
    """SHA-256 hex digest of the canonical encoding of ``request``."""
    return hashlib.sha256(repr(_canonical(request)).encode()).hexdigest()


# --------------------------------------------------------------------------
# The cache itself
# --------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`SweepCache`.

    Also carries the sweep-graph planner's counters (see
    :mod:`repro.graph.planner`): graphs planned against this cache
    record how many nodes they held, how many sibling requests fused
    onto shared vectorized evaluations, how many subgraph instances
    deduplicated onto already-planned nodes, and which executor ran the
    evaluations — so a report can show not just hit rates but how much
    work the planner removed before the cache was even consulted.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    #: Disk-tier reads and writes that failed with an ``OSError``.
    disk_errors: int = 0
    nodes_planned: int = 0
    siblings_fused: int = 0
    subgraphs_deduped: int = 0
    #: Vectorized evaluations per executor name ({"numpy": 12, ...}).
    executor_runs: dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def evictions(self) -> int:
        return self.memory_evictions + self.disk_evictions

    def count_executor_run(self, name: str, runs: int = 1) -> None:
        self.executor_runs[name] = self.executor_runs.get(name, 0) + int(runs)

    def snapshot(self) -> dict[str, int | dict[str, int]]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "memory_evictions": self.memory_evictions,
            "disk_evictions": self.disk_evictions,
            "disk_errors": self.disk_errors,
            "nodes_planned": self.nodes_planned,
            "siblings_fused": self.siblings_fused,
            "subgraphs_deduped": self.subgraphs_deduped,
            "executor_runs": dict(self.executor_runs),
        }

    def describe(self) -> str:
        """One-line summary, labelling a fully warm cache as such."""
        state = "warm" if self.hits and not self.misses else "cold"
        line = (
            f"{self.hits} hits ({self.memory_hits} memory, {self.disk_hits} disk), "
            f"{self.misses} misses [{state}]"
        )
        if self.evictions:
            line += f", {self.evictions} evictions"
        if self.disk_errors:
            line += f", {self.disk_errors} disk errors"
        if self.nodes_planned:
            executors = "+".join(sorted(self.executor_runs)) or "none"
            line += (
                f"; graph: {self.nodes_planned} nodes planned, "
                f"{self.siblings_fused} fused, "
                f"{self.subgraphs_deduped} deduped [{executors}]"
            )
        return line


class SweepCache:
    """Two-level (memory + optional frame-file directory) result store.

    Values are mappings from array name to ``np.ndarray`` — exactly what
    the analysis layer's curve objects serialize to.  Each disk entry is
    one ``<key>.frame`` file (:attr:`ENTRY_SUFFIX`) in the binary frame
    format.  Disk writes are atomic (write to a temp file, then rename),
    so concurrent worker processes sharing one ``cache_dir`` never observe
    torn files; temp files orphaned by a worker that crashed mid-write,
    and entries of the store's earlier ``.npz`` format, are swept the
    next time a cache opens the directory.

    ``max_bytes`` bounds each tier independently: the memory dictionary
    evicts least-recently-used entries past the bound, and the frame
    store deletes its least recently used files.  The disk bound is per
    process: a running index orders the files this cache knows — those
    present when it opened the directory (by mtime), and those it has
    since written or read — and counts their bytes, so a put never
    rescans the directory.  Disk hits also refresh a file's mtime, so
    the next process to open the store inherits the order.  The entry
    being served or written is never evicted, so a single oversized
    result still works — the bound is a steady-state ceiling, not a
    hard admission limit.

    The disk tier is never touched under the lock: a lookup probes
    memory under it, releases it to read the file, and re-takes it only
    to insert the entry and count the hit.  A disk read or write
    that fails with an ``OSError`` is counted in ``disk_errors`` and the
    request is served from memory (or recomputed) instead of failing.
    """

    #: File name suffix of one disk-tier entry, ``<key>.frame``.
    ENTRY_SUFFIX = ".frame"

    def __init__(
        self,
        cache_dir: Path | str | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise InvalidParameterError(
                f"max_bytes must be positive (or None for unbounded), got {max_bytes}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_bytes = max_bytes
        #: The disk tier's files this cache knows, least recently used
        #: first: key -> file size.
        self._disk_index: OrderedDict[str, int] = OrderedDict()  # guarded-by: _lock
        #: Running sum of the indexed files' sizes.
        self._disk_bytes = 0  # guarded-by: _lock
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            for _mtime, size, key in sorted(self._scan(self.cache_dir)):
                self._disk_index[key] = size
                self._disk_bytes += size
        self._memory: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()  # guarded-by: _lock
        #: Running sum of the memory tier's array bytes.
        self._memory_bytes = 0  # guarded-by: _lock
        # Tier mutations are serialized so threaded consumers (the sweep
        # service handles each HTTP request on its own thread) see
        # consistent LRU order and stats.  Neither computes nor disk IO
        # run under the lock — it covers only the memory probe, inserts,
        # evictions and counters.
        self._lock = threading.RLock()
        self.stats = CacheStats()  # guarded-by: _lock

    # ------------------------------------------------------------- internals

    def _disk_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}{self.ENTRY_SUFFIX}"

    @classmethod
    def _scan(cls, directory: Path) -> list[tuple[float, int, str]]:
        """The directory's entries as ``(mtime, size, key)``, debris removed.

        One scan lists the entries and removes the files no lookup will
        ever read: temp files a worker killed between ``mkstemp`` and
        ``os.replace`` left behind, which would otherwise accumulate
        forever, and ``<key>.npz`` entries of the store's earlier
        format, which nothing reads and which disk eviction would never
        trim.  Fresh temp files are left alone — they may belong to a
        live writer in another process.
        """
        entries: list[tuple[float, int, str]] = []
        cutoff = time.time() - ORPHAN_TMP_MAX_AGE_S
        with os.scandir(directory) as scan:
            for entry in scan:
                try:
                    if entry.name.endswith(cls.ENTRY_SUFFIX):
                        st = entry.stat()
                        key = entry.name[: -len(cls.ENTRY_SUFFIX)]
                        entries.append((st.st_mtime, st.st_size, key))
                        continue
                    legacy = _LEGACY_ENTRY.fullmatch(entry.name) is not None
                    if not legacy and _TMP_FILE.search(entry.name) is None:
                        continue
                    if legacy or entry.stat().st_mtime < cutoff:
                        os.unlink(entry.path)
                except OSError:
                    continue  # raced with another sweeper, evictor or live writer
        return entries

    @staticmethod
    def _freeze(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Mark cached arrays read-only.

        Hits hand out the stored arrays by reference (copying every hit
        would defeat the memory level); freezing them turns accidental
        in-place mutation — which would silently poison every later hit
        for that key — into an immediate ``ValueError``.
        """
        for a in arrays.values():
            a.flags.writeable = False
        return arrays

    @staticmethod
    def _entry_nbytes(arrays: Mapping[str, np.ndarray]) -> int:
        return sum(a.nbytes for a in arrays.values())

    def _insert(self, key: str, value: dict[str, np.ndarray]) -> None:  # requires-lock: _lock
        """Put ``value`` at the most-recent end of the memory tier, then evict."""
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= self._entry_nbytes(old)
        self._memory[key] = value
        self._memory_bytes += self._entry_nbytes(value)
        self._evict_memory(protect=key)

    def _evict_memory(self, protect: str) -> None:  # requires-lock: _lock
        """Drop least-recently-used memory entries past ``max_bytes``.

        ``protect`` (the entry just stored or fetched) is never evicted
        even when it alone exceeds the bound — callers hold a reference
        to it and hits must stay hits.
        """
        if self.max_bytes is None:
            return
        while self._memory_bytes > self.max_bytes and len(self._memory) > 1:
            key = next(iter(self._memory))
            if key == protect:
                # LRU order puts the protected key first only when it is
                # the sole survivor-to-be; stop rather than rotate.
                break
            self._memory_bytes -= self._entry_nbytes(self._memory.pop(key))
            self.stats.memory_evictions += 1

    def _count_disk_error(self) -> None:
        with self._lock:
            self.stats.disk_errors += 1

    def _index_disk(self, key: str, size: int | None) -> None:  # requires-lock: _lock
        """Mark ``key``'s file most recently used at ``size`` bytes, or
        drop it from the index (``size=None``)."""
        self._disk_bytes -= self._disk_index.pop(key, 0)
        if size is not None:
            self._disk_index[key] = size
            self._disk_bytes += size

    def _evict_disk(self, protect: str) -> None:
        """Delete least-recently-used entry files until the index fits ``max_bytes``.

        The victims come off the running index, so a put never rescans
        the directory; the unlinks run outside the lock.  Another
        process may race an unlink; a vanished file just means the
        eviction already happened.
        """
        if self.max_bytes is None or self.cache_dir is None:
            return
        doomed: list[str] = []
        with self._lock:
            excess = self._disk_bytes - self.max_bytes
            for key, size in self._disk_index.items():
                if excess <= 0:
                    break
                if key != protect:
                    doomed.append(key)
                    excess -= size
            for key in doomed:
                self._index_disk(key, None)
            self.stats.disk_evictions += len(doomed)
        for key in doomed:
            with contextlib.suppress(OSError):
                os.unlink(self.cache_dir / f"{key}{self.ENTRY_SUFFIX}")

    # -------------------------------------------------- disk-tier primitives

    def _disk_fetch(self, key: str) -> dict[str, np.ndarray] | None:
        """Read one entry from the disk tier, or ``None``.

        Called without the lock held.  A truncated or garbage file — a
        crashed writer on a filesystem without atomic rename, manual
        tampering — fails the frame's magic, length, dtype or
        trailing-byte checks and is a *miss*, not a crash: the bad file
        is discarded so the recompute can rewrite it.  A file that
        cannot be read at all (permissions, IO error) is a counted miss
        and is left in place.
        """
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except FileNotFoundError:
            with self._lock:
                self._index_disk(key, None)
            return None
        except OSError:
            self._count_disk_error()
            return None
        try:
            arrays, _meta = decode_frame(body)
        except FrameError:
            # Corrupt entry: drop it and treat the lookup as a miss.
            with contextlib.suppress(OSError):
                path.unlink()
            with self._lock:
                self._index_disk(key, None)
            return None
        with contextlib.suppress(OSError):
            os.utime(path)  # the next process to open the store sees the hit
        with self._lock:
            self._index_disk(key, len(body))
        return arrays

    def _disk_put(self, key: str, value: Mapping[str, np.ndarray]) -> None:
        """Write one entry to the disk tier; called without the lock held.

        A write that fails with an ``OSError`` (disk full, permissions)
        leaves no file behind and is counted, not raised: the entry is
        already in memory and the request that computed it still
        succeeds.
        """
        if self.cache_dir is None:
            return
        path = self._disk_path(key)
        chunks = encode_frame(value)
        try:
            fd, tmp = tempfile.mkstemp(
                dir=str(self.cache_dir), suffix=f"{self.ENTRY_SUFFIX}.tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.writelines(chunks)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError:
            self._count_disk_error()
            return
        with self._lock:
            self._index_disk(key, frame_length(chunks))
        self._evict_disk(protect=key)

    # ------------------------------------------------------------ public API

    def lookup(self, key: str) -> dict[str, np.ndarray] | None:
        """Fetch by fingerprint, recording the hit level (or the miss)."""
        return self.lookup_level(key)[0]

    def lookup_memory(self, key: str) -> dict[str, np.ndarray] | None:
        """The memory tier alone: a hit is recorded, a miss is not.

        For callers that must not block on the slow tier and fall back
        to :meth:`lookup_level` (which records the miss) when this
        returns ``None``.
        """
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
            return hit

    def resident(self, key: str) -> dict[str, np.ndarray] | None:
        """The memory tier alone, recording nothing.

        For a caller that already counted this request's miss and probes
        again (the daemon's admission, closing the window between its
        miss and a round that stored the key since).
        """
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
            return hit

    def lookup_level(
        self, key: str
    ) -> tuple[dict[str, np.ndarray] | None, str | None]:
        """Like :meth:`lookup`, also reporting which tier answered.

        Returns ``(arrays, "memory"|"disk")`` on a hit and
        ``(None, None)`` on a miss.  The sweep service uses the level to
        label responses; everything else can ignore it.
        """
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return hit, "memory"
        # The disk read runs outside the lock so memory hits on other threads never queue
        # behind it.  Two threads missing one key may both read it; the
        # later insert replaces the earlier with equal arrays.
        arrays = self._disk_fetch(key)
        if arrays is None:
            with self._lock:
                self.stats.misses += 1
            return None, None
        value = self._freeze(arrays)
        with self._lock:
            self._insert(key, value)
            self.stats.disk_hits += 1
        return value, "disk"

    def store(
        self, key: str, arrays: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Insert an entry in both tiers; returns the frozen stored value.

        Callers use the return value rather than re-reading
        ``self._memory`` — a bounded cache may evict any entry but the
        one just stored, and even that guarantee is easier to keep out
        of callers' way.
        """
        value = self._freeze(
            {name: np.array(a, copy=True) for name, a in arrays.items()}
        )
        with self._lock:
            self._insert(key, value)
        # The disk write (atomic frame write + eviction scan) runs
        # outside the lock so concurrent memory-tier hits in a threaded
        # server never stall behind IO.
        self._disk_put(key, value)
        return value

    def get_or_compute(
        self,
        request: object,
        compute: Callable[[], Mapping[str, np.ndarray]],
    ) -> dict[str, np.ndarray]:
        """The cache's main entry point: serve ``request`` or compute it."""
        key = fingerprint(request)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        # Return the stored (read-only) copy so misses and hits hand
        # back the same kind of object.
        return self.store(key, compute())

    def flush(self) -> int:
        """Write memory-tier entries missing on disk; returns the count.

        :meth:`store` already writes through to disk synchronously, so
        this is normally a no-op — it exists for graceful shutdown,
        where entries whose disk twin was evicted (the disk tier's LRU
        bound is independent of memory's) or whose write failed
        transiently get one more chance to survive the restart.  A
        memory-only cache (no ``cache_dir``) flushes nothing.
        """
        if self.cache_dir is None:
            return 0
        with self._lock:
            snapshot = list(self._memory.items())
        written = 0
        for key, value in snapshot:
            path = self._disk_path(key)
            if path is not None and not path.exists():
                self._disk_put(key, value)
                written += 1
        return written

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def stats_snapshot(self) -> dict[str, int | dict[str, int]]:
        """A consistent copy of the counters, taken under the lock.

        Reading ``cache.stats`` field-by-field from another thread can
        tear — a hit that lands between two reads shows up in ``hits``
        but not in ``memory_hits``.  Consumers that report stats (the
        service's ``/v1/stats``) take this snapshot instead.
        """
        with self._lock:
            return self.stats.snapshot()
