"""/v1/stats under concurrent compute traffic: the stats-read race, live.

Regression for the unguarded ``cache.stats`` read the ``lock-discipline``
rule flagged in ``ServiceCore.stats_payload``: polling stats while
computes land must always observe a *consistent* snapshot — aggregate
counters that add up — never a torn one.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import AsyncSweepServer, ServiceClient

SIDES = list(range(8, 40))


@pytest.fixture
def server():
    with AsyncSweepServer(port=0) as srv:
        yield srv


class TestStatsUnderLoad:
    def test_stats_snapshots_stay_consistent_during_computes(self, server):
        stop = threading.Event()
        errors: list[str] = []

        def compute(worker: int) -> None:
            c = ServiceClient(server.url)
            i = 0
            while not stop.is_set():
                # Distinct requests per round so the cache keeps taking
                # misses (and stats keep moving) throughout the poll.
                c.allocation_curve(
                    "paper-bus", "5-point", "square", SIDES[: 8 + (i + worker) % 24]
                )
                i += 1

        def poll() -> None:
            c = ServiceClient(server.url)
            while not stop.is_set():
                stats = c.stats()
                cache = stats["cache"]
                for name in ("memory_hits", "disk_hits", "misses"):
                    if cache[name] < 0:  # pragma: no cover - assert is the point
                        errors.append(f"negative {name}: {cache[name]}")
                counters = stats["counters"]
                # Every request resolves as exactly one of these; a poll
                # landing mid-flight may see fewer resolutions than
                # requests, never more.
                served = (
                    counters["hits"]
                    + counters["computed"]
                    + counters["coalesced"]
                    + counters["batched"]
                )
                if served > counters["requests"]:
                    errors.append(
                        f"torn counters: served {served} > requests "
                        f"{counters['requests']}"
                    )
                if not 0.0 <= stats["dedup_ratio"] <= 1.0:
                    errors.append(f"dedup ratio out of range: {stats['dedup_ratio']}")

        workers = [
            threading.Thread(target=compute, args=(w,)) for w in range(3)
        ] + [threading.Thread(target=poll) for _ in range(2)]
        for t in workers:
            t.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for t in workers:
            t.join(timeout=30)
        timer.cancel()
        stop.set()

        assert errors == []

        # Quiescent cross-check: the cache's own counters add up to the
        # lookups the server performed on it.
        final = ServiceClient(server.url).stats()["cache"]
        assert final["memory_hits"] >= 0 and final["misses"] > 0

    def test_stats_payload_uses_locked_snapshot(self, server):
        # The handler must go through SweepCache.stats_snapshot() (one
        # consistent copy under the lock), not read .stats fields live.
        payload = server.stats_payload()
        assert set(payload["cache"]) == set(server.cache.stats_snapshot())

    def test_entries_count_matches_locked_len(self, server):
        client = ServiceClient(server.url)
        client.allocation_curve("paper-bus", "5-point", "square", SIDES)
        stats = client.stats()
        assert stats["entries"] == len(server.cache)
