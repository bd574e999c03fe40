"""SweepCache under thread pressure: the lock-discipline rule, live.

Concurrent hits, misses, and evictions on a size-bounded cache must
never corrupt entries or tear the stats — these tests lose the race on
purpose and check the invariants the static ``lock-discipline`` rule
guards structurally.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.batch.cache import SweepCache, fingerprint

THREADS = 8
ROUNDS = 40


def _payload(i: int) -> dict[str, np.ndarray]:
    # ~8 KiB per entry, value derived from the key so corruption is
    # detectable on read-back.
    return {"data": np.full(1024, float(i)), "tag": np.array([i], dtype=np.int64)}


def _assert_byte_total_exact(cache: SweepCache) -> None:
    """The running memory-tier byte total equals a fresh re-sum."""
    with cache._lock:
        actual = sum(a.nbytes for v in cache._memory.values() for a in v.values())
        assert cache._memory_bytes == actual
        if cache.max_bytes is not None and len(cache._memory) > 1:
            assert cache._memory_bytes <= cache.max_bytes


class TestThreadedSweepCache:
    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "memory+disk"])
    def test_concurrent_hits_misses_and_evictions_stay_consistent(self, disk, tmp_path):
        # Bound small enough that the working set (~50 entries) churns
        # the LRU constantly.  With a disk tier, evicted entries come
        # back as disk hits read outside the lock, racing the inserts.
        cache = SweepCache(tmp_path if disk else None, max_bytes=20 * 8 * 1024)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        errors: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(seed: int) -> int:
            barrier.wait()
            rng = np.random.default_rng(seed)
            served = 0
            for _ in range(ROUNDS):
                i = int(rng.integers(0, 50))
                value = cache.get_or_compute(("stress", i), lambda i=i: _payload(i))
                served += 1
                if value["data"][0] != float(i) or value["tag"][0] != i:
                    errors.append(f"entry {i} corrupted: {value['tag']}")
                if not value["data"].flags.writeable:
                    continue
                errors.append(f"entry {i} handed out writeable")  # pragma: no cover
            return served

        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                served = sum(pool.map(worker, range(THREADS)))
        finally:
            sys.setswitchinterval(interval)

        assert errors == []
        assert served == THREADS * ROUNDS
        snapshot = cache.stats_snapshot()
        hits = snapshot["memory_hits"] + snapshot["disk_hits"]
        # Every serve was either a hit or a miss; nothing double-counted
        # or lost — the tear this asserts against is exactly what an
        # unlocked stats read allows.
        assert hits + snapshot["misses"] == served
        assert snapshot["memory_evictions"] > 0, "bound never engaged"
        if disk:
            assert snapshot["disk_hits"] > 0, "disk tier never served"
        _assert_byte_total_exact(cache)

    def test_concurrent_identical_requests_each_get_valid_data(self):
        cache = SweepCache()
        results: list[dict[str, np.ndarray]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(THREADS)

        def worker() -> None:
            barrier.wait()
            value = cache.get_or_compute(("dedup", 7), lambda: _payload(7))
            with lock:
                results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == THREADS
        for value in results:
            assert value["data"][0] == 7.0
            assert value["tag"][0] == 7

    def test_len_and_snapshot_race_free_during_churn(self):
        cache = SweepCache(max_bytes=10 * 8 * 1024)
        stop = threading.Event()
        errors: list[str] = []

        def churn() -> None:
            i = 0
            while not stop.is_set():
                cache.store(fingerprint(("churn", i % 30)), _payload(i % 30))
                i += 1

        def observe() -> None:
            while not stop.is_set():
                n = len(cache)
                if n < 0:  # pragma: no cover - the assert is the point
                    errors.append(f"negative len {n}")
                snap = cache.stats_snapshot()
                if snap["memory_evictions"] < 0:  # pragma: no cover
                    errors.append("negative evictions")

        workers = [threading.Thread(target=churn) for _ in range(4)] + [
            threading.Thread(target=observe) for _ in range(2)
        ]
        for t in workers:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for t in workers:
            t.join(timeout=10)
        timer.cancel()
        stop.set()

        assert errors == []
        # Steady state respects the bound: at most the protected entry
        # may exceed it transiently.
        assert len(cache) <= 30
        _assert_byte_total_exact(cache)

    def test_concurrent_puts_and_disk_hits_keep_the_disk_index_exact(self, tmp_path):
        # Two caches share one store, so each serves disk hits on files
        # the other wrote while both evict; every put trims only what its
        # own index knows, and no put ever rescans the directory.
        entry = sum(a.nbytes for a in _payload(0).values()) + 1024
        caches = [SweepCache(tmp_path, max_bytes=12 * entry) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        barrier = threading.Barrier(THREADS)

        def worker(seed: int) -> None:
            cache = caches[seed % 2]
            barrier.wait()
            rng = np.random.default_rng(seed)
            for _ in range(ROUNDS):
                i = int(rng.integers(0, 40))
                value = cache.get_or_compute(("disk-stress", i), lambda i=i: _payload(i))
                assert value["tag"][0] == i

        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                list(pool.map(worker, range(THREADS)))
        finally:
            sys.setswitchinterval(interval)

        files = {p.stem: p.stat().st_size for p in tmp_path.glob(f"*{SweepCache.ENTRY_SUFFIX}")}
        for cache in caches:
            with cache._lock:
                assert cache._disk_bytes == sum(cache._disk_index.values())
                indexed = dict(cache._disk_index)
            assert cache.stats_snapshot()["disk_evictions"] > 0, "bound never engaged"
            # A file this cache knows has the size it recorded.
            for key in files.keys() & indexed.keys():
                assert files[key] == indexed[key]
        # Every file left is known to a cache, so some process can evict it.
        assert files.keys() <= caches[0]._disk_index.keys() | caches[1]._disk_index.keys()
