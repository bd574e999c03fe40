"""BENCH-SERVICE: the sweep daemon — latency, pipelining, connections.

Six measurements against ``AsyncSweepServer`` (the ``repro serve``
transport), recorded to ``results/BENCH_service.json`` so the serving
layer's behavior is tracked across PRs.  Every timed figure is a
median with quartiles over interleaved repeats after a warm-up, and
every ratio or rate gate reads those medians.

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
  daemon misses every time.  **Gate:** the served/direct ratio must be
  at most ``MAX_COLD_RATIO`` — a cold request pays no fixed batching
  wait.
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

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import resource
import socket
import threading
import time

import numpy as np

from repro.batch import SweepCache, optimal_allocation_curve
from repro.machines.catalog import PAPER_BUS
from repro.service import AsyncSweepServer, ServiceClient
from repro.service.schema import allocation_payload
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

from harness import compare, main

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

#: Each timed block's rounds: a warm hit costs a fraction of a
#: millisecond, so its median takes many rounds to settle.
LATENCY_WARMUP = 5
LATENCY_REPEATS = 101
PIPELINE_REPEATS = 11
THROUGHPUT_REPEATS = 5

KIND = PartitionKind.SQUARE


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


def bench_latency(server) -> dict:
    """Warm-request latency: daemon round trip vs direct cache."""
    client = ServiceClient(server.url)
    direct_cache = SweepCache()

    def served(_):
        return client.allocation_curve("paper-bus", "5-point", "square", SIDES, integer=True)

    def direct(_):
        return optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, KIND, SIDES, integer=True, cache=direct_cache
        )

    def check(_context, outputs: dict) -> None:
        np.testing.assert_array_equal(outputs["server"].speedup, outputs["direct"].speedup)

    timed = compare(
        {"server": served, "direct": direct},
        repeats=LATENCY_REPEATS,
        warmup=LATENCY_WARMUP,
        check=check,
    )
    client.close()
    server_s, direct_s = timed["server"]["median"], timed["direct"]["median"]
    return {
        "points": len(SIDES),
        "warm_server_seconds": timed["server"],
        "warm_direct_seconds": timed["direct"],
        "wire_overhead_us": (server_s - direct_s) * 1e6,
        "wire_overhead_ratio": (server_s - direct_s) / direct_s,
        "warm_ratio": server_s / direct_s,
        "last_served": client.last_served,
    }


def bench_cold(server) -> dict:
    """A lone cold request through the daemon vs a direct computation.

    Every round uses a fresh axis (the 500-point latency axis shifted
    by one), so the daemon misses its cache each time and the direct
    call, which has no cache, computes the same curve.  Each served
    curve is checked bit-equal to its direct twin outside the timed
    region.
    """
    client = ServiceClient(server.url)
    labels: set[str] = set()

    def check(_axis, outputs: dict) -> None:
        for name, value in outputs["direct"].to_arrays().items():
            np.testing.assert_array_equal(outputs["served"].to_arrays()[name], value)
        labels.add(str(client.last_served))

    timed = compare(
        {
            "served": lambda axis: client.allocation_curve(
                "paper-bus", "5-point", "square", axis, integer=True
            ),
            "direct": lambda axis: optimal_allocation_curve(
                PAPER_BUS, FIVE_POINT, KIND, axis, integer=True
            ),
        },
        repeats=COLD_REPEATS,
        warmup=COLD_WARMUP,
        setup=lambda i: [n + 1 + i for n in SIDES],
        check=check,
    )
    client.close()
    return {
        "points": len(SIDES),
        "served_seconds": timed["served"],
        "direct_seconds": timed["direct"],
        "cold_ratio": timed["served"]["median"] / timed["direct"]["median"],
        "served_labels": sorted(labels),
    }


def bench_pipelining(server) -> dict:
    """Warm hits: ``compute_many(pipeline=16)`` vs sequential keep-alive."""
    axis = list(range(80, 1080, 4))  # distinct from the latency axis
    payload = allocation_payload("paper-bus", "5-point", "strip", axis, integer=True)
    client = ServiceClient(server.url)
    client.compute(payload)  # warm the entry; every timed request is a hit
    batch = [payload] * PIPELINE_REQUESTS

    def check(_context, outputs: dict) -> None:
        assert len(outputs["pipelined"]) == PIPELINE_REQUESTS

    timed = compare(
        {
            "sequential": lambda _: [client.compute(item) for item in batch],
            "pipelined": lambda _: client.compute_many(batch, pipeline=PIPELINE_DEPTH),
        },
        repeats=PIPELINE_REPEATS,
        check=check,
    )
    client.close()
    sequential_rps = PIPELINE_REQUESTS / timed["sequential"]["median"]
    pipelined_rps = PIPELINE_REQUESTS / timed["pipelined"]["median"]
    return {
        "requests": PIPELINE_REQUESTS,
        "pipeline_depth": PIPELINE_DEPTH,
        "sequential_seconds": timed["sequential"],
        "pipelined_seconds": timed["pipelined"],
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

    def hammer(barrier: threading.Barrier) -> None:
        client = ServiceClient(server.url)
        barrier.wait()
        for _ in range(THROUGHPUT_REQUESTS):
            client.allocation_curve("paper-bus", "5-point", "strip", axis, integer=True)
        client.close()

    def start_clients(_round) -> tuple[threading.Barrier, list[threading.Thread]]:
        barrier = threading.Barrier(THROUGHPUT_CLIENTS + 1)
        threads = [
            threading.Thread(target=hammer, args=(barrier,)) for _ in range(THROUGHPUT_CLIENTS)
        ]
        for t in threads:
            t.start()
        return barrier, threads

    def release(clients) -> None:
        barrier, threads = clients
        barrier.wait()
        for t in threads:
            t.join()

    timed = compare({"burst": release}, repeats=THROUGHPUT_REPEATS, setup=start_clients)
    total = THROUGHPUT_CLIENTS * THROUGHPUT_REQUESTS
    return {
        "clients": THROUGHPUT_CLIENTS,
        "requests_per_client": THROUGHPUT_REQUESTS,
        "requests": total,
        "elapsed_seconds": timed["burst"],
        "requests_per_second": total / timed["burst"]["median"],
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
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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
    }


def measure() -> dict:
    with AsyncSweepServer(port=0, workers=ASYNC_WORKERS) as server:
        latency = bench_latency(server)
        pipelining = bench_pipelining(server)
        cold = bench_cold(server)
    connections = bench_connections()
    with AsyncSweepServer(port=0, workers=ASYNC_WORKERS) as server:
        throughput = bench_throughput(server)
        dedup = bench_dedup(server)
    return {
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


def gates(figures: dict) -> list[tuple[str, bool]]:
    latency, cold, pipe = figures["latency"], figures["cold"], figures["pipelining"]
    conn, dedup = figures["connections"], figures["dedup"]
    rps = figures["throughput"]["requests_per_second"]
    return [
        (f"warm request served from {latency['last_served']}", latency["last_served"] == "memory"),
        (
            f"wire overhead {latency['wire_overhead_ratio']:.2f}x direct "
            f"<= {MAX_WIRE_OVERHEAD_RATIO}x",
            latency["wire_overhead_ratio"] <= MAX_WIRE_OVERHEAD_RATIO,
        ),
        (
            f"wire overhead {latency['wire_overhead_us']:.0f} us "
            f"<= {MAX_WIRE_OVERHEAD_US:.0f} us",
            latency["wire_overhead_us"] <= MAX_WIRE_OVERHEAD_US,
        ),
        (f"cold requests served as {cold['served_labels']}", cold["served_labels"] == ["computed"]),
        (
            f"cold request {cold['cold_ratio']:.2f}x direct <= {MAX_COLD_RATIO}x",
            cold["cold_ratio"] <= MAX_COLD_RATIO,
        ),
        (
            f"pipelined {pipe['pipelined_rps']:.0f} req/s >= {MIN_PIPELINED_RPS:.0f} req/s "
            f"(sequential {pipe['sequential_rps']:.0f} req/s)",
            pipe["pipelined_rps"] >= MIN_PIPELINED_RPS,
        ),
        (
            # A target below CONNECTION_TARGET means the fd limit kept
            # the bench from even trying.
            f"daemon held {conn['concurrent_connections']} of {conn['target']} attempted "
            f"connections >= {CONNECTION_TARGET} (fd soft limit {conn['fd_soft_limit']})",
            conn["target"] >= CONNECTION_TARGET
            and conn["concurrent_connections"] >= CONNECTION_TARGET,
        ),
        (
            f"daemon grew {conn['thread_growth']} threads "
            f"<= workers={conn['workers']} + 4",
            conn["thread_growth"] <= conn["workers"] + 4,
        ),
        ("daemon answered under idle connection load", conn["served_while_loaded"]),
        (
            f"dedup ratio {dedup['dedup_ratio']:.3f} >= {MIN_DEDUP_RATIO}",
            dedup["dedup_ratio"] >= MIN_DEDUP_RATIO,
        ),
        (f"sustained {rps:.0f} req/s > 0", rps > 0),
    ]


if __name__ == "__main__":
    main("service", measure, gates)
