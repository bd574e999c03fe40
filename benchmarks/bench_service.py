"""BENCH-SERVICE: the sweep daemon — latency, pipelining, connections.

Six measurements against ``AsyncSweepServer`` (the ``repro serve``
transport), recorded to ``results/BENCH_service.json`` so the serving
layer's behavior is tracked across PRs:

* **server vs direct latency** — a warm allocation-curve request
  through the daemon versus the same request answered by the
  in-process cache, over the binary frame on a pooled keep-alive
  connection.  **Gates:** the warm hit's wire overhead (server minus
  direct) must be at most ``MAX_WIRE_OVERHEAD_RATIO`` times the direct
  cost — the protocol may not dominate the compute — and at most
  ``MAX_WIRE_OVERHEAD_US`` microseconds.
* **cold latency** — a lone cold 500-point allocation
  request through the daemon versus the same curve computed directly
  by ``optimal_allocation_curve``, each repeat on a fresh axis so the
  daemon misses every time.  A warm-up, then ``COLD_REPEATS``
  interleaved pairs; medians and quartiles are recorded.  **Gate:**
  the median served/direct ratio must be at most
  ``MAX_COLD_RATIO`` — a cold request pays no fixed batching wait.
* **pipelined throughput** — warm hits issued through
  ``compute_many(pipeline=16)`` versus the same count sequentially
  over one keep-alive connection.  **Gate:** ``pipelined_rps`` must be
  at least ``MIN_PIPELINED_RPS`` — pipelining has to buy real round
  trips.  The pipelined/sequential ``speedup`` is reported, not gated:
  a cheaper sequential path would push that ratio down.
* **concurrent connections** — at least
  ``CONNECTION_TARGET`` idle keep-alive sockets held open at once
  (the fd limit is raised first), while the server's thread count
  stays bounded by the executor size.  **Gate:** sockets are not
  threads.
* **sustained throughput** — N concurrent keep-alive clients hammer
  warm requests for a fixed count (reported, not gated — CI boxes
  vary).
* **dedup under concurrency** — 8 concurrent clients each issue the
  same cold request 4 times; coalescing plus the shared cache must
  answer at least 90% of the 32 requests without recomputing (gate).

Run as a script (CI's smoke bench) or under pytest:

    PYTHONPATH=src python benchmarks/bench_service.py
    pytest benchmarks/bench_service.py -s
"""

from __future__ import annotations

import json
import resource
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.batch import SweepCache, optimal_allocation_curve
from repro.machines.catalog import PAPER_BUS
from repro.report.csvio import default_results_dir
from repro.service import AsyncSweepServer, ServiceClient
from repro.service.schema import allocation_payload
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

SIDES = list(range(64, 2064, 4))  # 500-point axis: a realistic curve request
CLIENTS = 8
ROUNDS = 4
THROUGHPUT_CLIENTS = 8
THROUGHPUT_REQUESTS = 100  # per client, warm, over keep-alive connections
PIPELINE_DEPTH = 16
PIPELINE_REQUESTS = 256  # warm hits per timing arm
CONNECTION_TARGET = 1000  # idle keep-alive sockets held open at once
ASYNC_WORKERS = 8

#: The acceptance bar: fraction of concurrent identical requests that
#: must be answered by the cache or by coalescing onto the one compute.
MIN_DEDUP_RATIO = 0.90

#: The wire-tax bar: a warm hit's protocol overhead (server latency
#: minus direct latency) must stay within this multiple of the direct
#: cost.  Before the persistent-connection binary path it was ~4x.
MAX_WIRE_OVERHEAD_RATIO = 2.0

#: The same overhead in absolute terms, which a cheaper direct hit
#: cannot push towards failure: the median of ten runs of the
#: ``http.client`` transport this bench used to time (2-vCPU VM).
MAX_WIRE_OVERHEAD_US = 472.0

#: Pipelined warm hits per second: 1.5x the median sequential rate of
#: the same ten runs (2614 req/s).  An absolute floor, so a faster
#: sequential path no longer counts against pipelining; a pipelined
#: path that stops overlapping round trips falls to the sequential rate
#: and fails it.
MIN_PIPELINED_RPS = 3920.0

#: A lone cold request through the daemon may cost at most this
#: multiple of computing the curve directly.  With a fixed 5 ms batching
#: window it was ~5x.
MAX_COLD_RATIO = 2.5
COLD_WARMUP = 3
COLD_REPEATS = 31

def _raise_fd_limit(wanted: int) -> int:
    """Raise RLIMIT_NOFILE toward ``wanted``; return the soft limit."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < wanted:
        target = wanted if hard == resource.RLIM_INFINITY else min(wanted, hard)
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
            soft = target
        except (ValueError, OSError):
            pass  # keep whatever we have; the bench scales down
    return soft


def _median_seconds(fn, repeats: int = 15) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def bench_latency(server) -> dict:
    """Median warm-request latency: daemon round trip vs direct cache."""
    client = ServiceClient(server.url)
    kind = PartitionKind.SQUARE

    direct_cache = SweepCache()
    direct = optimal_allocation_curve(
        PAPER_BUS, FIVE_POINT, kind, SIDES, integer=True, cache=direct_cache
    )
    served = client.allocation_curve("paper-bus", "5-point", "square", SIDES, integer=True)
    np.testing.assert_array_equal(served.speedup, direct.speedup)

    server_s = _median_seconds(
        lambda: client.allocation_curve(
            "paper-bus", "5-point", "square", SIDES, integer=True
        )
    )
    direct_s = _median_seconds(
        lambda: optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, kind, SIDES, integer=True, cache=direct_cache
        )
    )
    return {
        "points": len(SIDES),
        "warm_server_seconds": server_s,
        "warm_direct_seconds": direct_s,
        "wire_overhead_seconds": server_s - direct_s,
        "wire_overhead_us": (server_s - direct_s) * 1e6,
        "wire_overhead_ratio": (server_s - direct_s) / direct_s,
        "warm_ratio": server_s / direct_s,
        "last_served": client.last_served,
    }


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def bench_cold(server) -> dict:
    """A lone cold request through the daemon vs a direct computation.

    Every round uses a fresh axis (the 500-point latency axis shifted
    by one), so the daemon misses its cache each time and the direct
    call, which has no cache, computes the same curve.  The two arms
    alternate which goes first; each served curve is checked bit-equal
    to its direct twin outside the timed region.
    """
    client = ServiceClient(server.url)
    kind = PartitionKind.SQUARE
    served_s: list[float] = []
    direct_s: list[float] = []
    labels: set[str] = set()
    for i in range(COLD_WARMUP + COLD_REPEATS):
        axis = [n + 1 + i for n in SIDES]
        timings = {}
        for arm in (("served", "direct") if i % 2 else ("direct", "served")):
            start = time.perf_counter()
            if arm == "served":
                curve = client.allocation_curve(
                    "paper-bus", "5-point", "square", axis, integer=True
                )
            else:
                direct = optimal_allocation_curve(
                    PAPER_BUS, FIVE_POINT, kind, axis, integer=True
                )
            timings[arm] = time.perf_counter() - start
        for name, value in direct.to_arrays().items():
            np.testing.assert_array_equal(curve.to_arrays()[name], value)
        if i >= COLD_WARMUP:
            served_s.append(timings["served"])
            direct_s.append(timings["direct"])
            labels.add(str(client.last_served))
    client.close()
    served = _quartiles(served_s)
    direct_q = _quartiles(direct_s)
    return {
        "points": len(SIDES),
        "warmup": COLD_WARMUP,
        "repeats": COLD_REPEATS,
        "served_seconds": served,
        "direct_seconds": direct_q,
        "cold_ratio": served["median"] / direct_q["median"],
        "served_labels": sorted(labels),
    }


def bench_pipelining(server) -> dict:
    """Warm hits: ``compute_many(pipeline=16)`` vs sequential keep-alive."""
    axis = list(range(80, 1080, 4))  # distinct from the latency axis
    payload = allocation_payload("paper-bus", "5-point", "strip", axis, integer=True)
    client = ServiceClient(server.url)
    client.compute(payload)  # warm the entry; every timed request is a hit

    batch = [payload] * PIPELINE_REQUESTS

    start = time.perf_counter()
    for item in batch:
        client.compute(item)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    results = client.compute_many(batch, pipeline=PIPELINE_DEPTH)
    pipelined_s = time.perf_counter() - start
    assert len(results) == PIPELINE_REQUESTS

    sequential_rps = PIPELINE_REQUESTS / sequential_s
    pipelined_rps = PIPELINE_REQUESTS / pipelined_s
    return {
        "requests": PIPELINE_REQUESTS,
        "pipeline_depth": PIPELINE_DEPTH,
        "sequential_seconds": sequential_s,
        "pipelined_seconds": pipelined_s,
        "sequential_rps": sequential_rps,
        "pipelined_rps": pipelined_rps,
        "speedup": pipelined_rps / sequential_rps,
    }


def bench_connections() -> dict:
    """Idle keep-alive sockets held open against the daemon.

    The point of the event loop: a connection is a few kilobytes of
    loop state, not a thread.  We hold ``CONNECTION_TARGET`` sockets
    open at once and check (a) the server saw them all and still
    answers requests, (b) its thread population stayed bounded by the
    executor size — independent of the connection count.
    """
    # Each held connection costs two fds (client + server end of the
    # loopback pair), plus headroom for the process itself.
    soft = _raise_fd_limit(CONNECTION_TARGET * 2 + 512)
    target = min(CONNECTION_TARGET, max(0, (soft - 256) // 2))

    threads_before = threading.active_count()
    with AsyncSweepServer(port=0, workers=ASYNC_WORKERS) as server:
        client = ServiceClient(server.url)
        client.health()  # warm the loop and the executor
        sockets: list[socket.socket] = []
        try:
            for _ in range(target):
                sockets.append(socket.create_connection((server.host, server.port)))
            deadline = time.monotonic() + 30.0
            while server.connection_count < target and time.monotonic() < deadline:
                time.sleep(0.01)
            registered = server.connection_count
            thread_growth = threading.active_count() - threads_before
            alive = client.health()["status"] == "ok"  # still answering
        finally:
            for sock in sockets:
                sock.close()
        client.close()
    return {
        "fd_soft_limit": soft,
        "target": target,
        "concurrent_connections": registered,
        "thread_growth": thread_growth,
        "workers": ASYNC_WORKERS,
        "served_while_loaded": alive,
    }


def bench_throughput(server) -> dict:
    """Sustained warm req/s under concurrent keep-alive clients."""
    axis = list(range(48, 1048, 4))  # distinct from the latency axis
    ServiceClient(server.url).allocation_curve(
        "paper-bus", "5-point", "strip", axis, integer=True
    )  # warm the entry once

    barrier = threading.Barrier(THROUGHPUT_CLIENTS + 1)

    def hammer() -> None:
        client = ServiceClient(server.url)
        barrier.wait()
        for _ in range(THROUGHPUT_REQUESTS):
            client.allocation_curve("paper-bus", "5-point", "strip", axis, integer=True)

    threads = [threading.Thread(target=hammer) for _ in range(THROUGHPUT_CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    total = THROUGHPUT_CLIENTS * THROUGHPUT_REQUESTS
    return {
        "clients": THROUGHPUT_CLIENTS,
        "requests_per_client": THROUGHPUT_REQUESTS,
        "requests": total,
        "elapsed_seconds": elapsed,
        "requests_per_second": total / elapsed,
    }


def bench_dedup(server) -> dict:
    """Concurrent identical cold requests: how many avoided a compute?"""
    before = server.stats_payload()
    axis = list(range(100, 1400, 3))  # distinct from the latency axis: cold

    def fire() -> None:
        client = ServiceClient(server.url)
        for _ in range(ROUNDS):
            client.allocation_curve(
                "paper-bus", "9-point-box", "strip", axis, integer=True
            )

    threads = [threading.Thread(target=fire) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    after = server.stats_payload()

    requests = after["counters"]["requests"] - before["counters"]["requests"]
    computed = after["counters"]["computed"] - before["counters"]["computed"]
    coalesced = after["counters"]["coalesced"] - before["counters"]["coalesced"]
    batched = after["counters"]["batched"] - before["counters"]["batched"]
    # Compute-path hits only — the same numerator /v1/stats reports, so
    # the gated ratio matches what an operator sees.
    hits = after["counters"]["hits"] - before["counters"]["hits"]
    deduplicated = hits + coalesced + batched
    return {
        "clients": CLIENTS,
        "rounds": ROUNDS,
        "requests": requests,
        "computed": computed,
        "coalesced": coalesced,
        "batched": batched,
        "cache_hits": hits,
        "dedup_ratio": deduplicated / requests if requests else 0.0,
        "elapsed_seconds": elapsed,
    }


def run_bench(output_path: Path | None = None) -> dict:
    with AsyncSweepServer(port=0, workers=ASYNC_WORKERS) as server:
        latency = bench_latency(server)
        pipelining = bench_pipelining(server)
        cold = bench_cold(server)
    connections = bench_connections()
    with AsyncSweepServer(port=0, workers=ASYNC_WORKERS) as server:
        throughput = bench_throughput(server)
        dedup = bench_dedup(server)
    payload = {
        "bench": "service",
        "latency": latency,
        "pipelining": pipelining,
        "cold": cold,
        "connections": connections,
        "throughput": throughput,
        "dedup": dedup,
        "min_dedup_ratio": MIN_DEDUP_RATIO,
        "max_wire_overhead_ratio": MAX_WIRE_OVERHEAD_RATIO,
        "max_wire_overhead_us": MAX_WIRE_OVERHEAD_US,
        "max_cold_ratio": MAX_COLD_RATIO,
        "min_pipelined_rps": MIN_PIPELINED_RPS,
        "connection_target": CONNECTION_TARGET,
    }
    path = output_path or (default_results_dir() / "BENCH_service.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["path"] = str(path)
    return payload


def _check_gates(payload: dict) -> list[str]:
    """Every failed gate as a human-readable line (empty means PASS)."""
    failures = []
    latency = payload["latency"]
    if latency["last_served"] != "memory":
        failures.append("warm request was not a memory hit")
    if latency["wire_overhead_ratio"] > MAX_WIRE_OVERHEAD_RATIO:
        failures.append(
            f"wire overhead {latency['wire_overhead_ratio']:.2f}x "
            f"direct exceeds {MAX_WIRE_OVERHEAD_RATIO}x"
        )
    if latency["wire_overhead_us"] > MAX_WIRE_OVERHEAD_US:
        failures.append(
            f"wire overhead {latency['wire_overhead_us']:.0f} us "
            f"exceeds {MAX_WIRE_OVERHEAD_US:.0f} us"
        )
    cold = payload["cold"]
    if cold["served_labels"] != ["computed"]:
        failures.append(f"cold requests were served as {cold['served_labels']}")
    if cold["cold_ratio"] > MAX_COLD_RATIO:
        failures.append(
            f"cold request {cold['cold_ratio']:.2f}x direct "
            f"exceeds {MAX_COLD_RATIO}x"
        )
    pipe = payload["pipelining"]
    if pipe["pipelined_rps"] < MIN_PIPELINED_RPS:
        failures.append(
            f"pipelined {pipe['pipelined_rps']:.0f} req/s "
            f"below {MIN_PIPELINED_RPS:.0f} req/s"
        )
    conn = payload["connections"]
    if conn["target"] >= CONNECTION_TARGET:
        if conn["concurrent_connections"] < CONNECTION_TARGET:
            failures.append(
                f"daemon held {conn['concurrent_connections']} concurrent "
                f"connections, below {CONNECTION_TARGET}"
            )
    else:  # the box's fd hard limit kept us from even trying
        failures.append(
            f"fd limit {conn['fd_soft_limit']} too low to attempt "
            f"{CONNECTION_TARGET} connections (tried {conn['target']})"
        )
    if conn["thread_growth"] > conn["workers"] + 4:
        failures.append(
            f"daemon grew {conn['thread_growth']} threads under "
            f"{conn['concurrent_connections']} connections "
            f"(bound: workers={conn['workers']} + 4)"
        )
    if not conn["served_while_loaded"]:
        failures.append("daemon stopped answering under idle connection load")
    if payload["dedup"]["dedup_ratio"] < MIN_DEDUP_RATIO:
        failures.append(
            f"dedup ratio {payload['dedup']['dedup_ratio']:.3f} "
            f"below {MIN_DEDUP_RATIO}"
        )
    if payload["throughput"]["requests_per_second"] <= 0:
        failures.append("throughput bench recorded zero req/s")
    return failures


def test_bench_service(results_dir):
    payload = run_bench(results_dir / "BENCH_service.json")
    print()
    print(json.dumps(payload, indent=2))
    failures = _check_gates(payload)
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    report = run_bench()
    json.dump(report, sys.stdout, indent=2)
    print()
    failures = _check_gates(report)
    latency = report["latency"]
    pipe = report["pipelining"]
    print(
        f"warm {latency['warm_server_seconds'] * 1e3:.2f} ms vs direct "
        f"{latency['warm_direct_seconds'] * 1e3:.2f} ms "
        f"(wire {latency['wire_overhead_us']:.0f} us, "
        f"{latency['wire_overhead_ratio']:.2f}x); "
        f"pipelined {pipe['pipelined_rps']:.0f} req/s vs sequential "
        f"{pipe['sequential_rps']:.0f} req/s ({pipe['speedup']:.2f}x)"
    )
    cold = report["cold"]
    print(
        f"cold: {cold['served_seconds']['median'] * 1e3:.2f} ms served vs "
        f"{cold['direct_seconds']['median'] * 1e3:.2f} ms direct "
        f"({cold['cold_ratio']:.2f}x)"
    )
    conn = report["connections"]
    print(
        f"daemon held {conn['concurrent_connections']} idle connections "
        f"(+{conn['thread_growth']} threads, {conn['workers']} workers); "
        f"dedup ratio {report['dedup']['dedup_ratio']:.3f}; "
        f"{report['throughput']['requests_per_second']:.0f} req/s sustained"
    )
    for line in failures:
        print(f"FAIL: {line}")
    print("PASS" if not failures else f"{len(failures)} gate(s) failed")
    sys.exit(0 if not failures else 1)
