#!/usr/bin/env python
"""The sweep daemon over the wire: pooling, the wire tax, pipelining.

Starts an in-process `repro serve` daemon and walks the client surface:

1. *Connection-pool knobs* — `pool_size` keep-alive sockets shared by
   threads, and `retries`/`backoff_s` for transient transport errors.
2. *The wire tax* — warm-hit latency through the daemon against the
   direct in-process call, the numbers `benchmarks/bench_service.py`
   gates at ≤ 2x direct.  Arrays cross the wire as zero-copy binary
   frames, bit-identical to the offline computation.
3. *Pipelining* — `compute_many(pipeline=N)` writes N requests down
   one keep-alive socket before reading the first response: identical
   bytes, fewer round trips.

Run:  python examples/sweep_service.py
"""

import time

import numpy as np

from repro.batch import SweepCache, optimal_allocation_curve
from repro.machines.catalog import PAPER_BUS
from repro.service import AsyncSweepServer, ServiceClient
from repro.service.schema import allocation_payload
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

SIDES = list(range(64, 1064, 4))


def pool_knobs(server: AsyncSweepServer) -> None:
    # One client, shared by threads: pool_size keep-alive connections,
    # each with TCP_NODELAY; stale sockets are replayed invisibly, and
    # transient errors retry with exponential backoff (retries attempts
    # of backoff_s, 2*backoff_s, ...).  Every request is a pure
    # compute or a GET, so replaying one is always safe.
    client = ServiceClient(
        server.url,
        pool_size=2,  # keep-alive sockets kept open (default 4)
        retries=3,  # transient-error retry budget (default 2)
        backoff_s=0.02,  # first backoff; doubles per retry (default 0.05)
    )
    for _ in range(3):
        client.allocation_curve("paper-bus", "5-point", "strip", SIDES)
    print("3 requests over one pooled keep-alive connection: ok")


def wire_tax(server: AsyncSweepServer) -> None:
    client = ServiceClient(server.url)
    cache = SweepCache()
    kind = PartitionKind.SQUARE

    def median_ms(fn, repeats: int = 9) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return float(np.median(times)) * 1e3

    direct = lambda: optimal_allocation_curve(  # noqa: E731
        PAPER_BUS, FIVE_POINT, kind, SIDES, integer=True, cache=cache
    )
    served = lambda: client.allocation_curve(  # noqa: E731
        "paper-bus", "5-point", "square", SIDES, integer=True
    )
    identical = direct().speedup.tobytes() == served().speedup.tobytes()
    print(f"served curve bit-identical to offline: {identical}")
    d, f = median_ms(direct), median_ms(served)
    print(f"warm hit, {len(SIDES)} points: direct {d:.2f} ms | "
          f"daemon {f:.2f} ms (served: {client.last_served})")
    print(f"wire overhead: {(f - d) / d:.2f}x direct (gate: <= 2x)")


def pipelining(server: AsyncSweepServer) -> None:
    # Every socket is owned by one event loop (thousands of idle
    # connections cost no threads), and pipelined requests compute
    # concurrently on the worker pool but are answered in order.
    client = ServiceClient(server.url)
    payloads = [
        allocation_payload("paper-bus", "5-point", "square", SIDES[: 50 + i])
        for i in range(32)
    ]
    for p in payloads:
        client.compute(p)  # warm every entry; we time the wire, not compute

    start = time.perf_counter()
    sequential = [client.compute(p) for p in payloads]
    seq_s = time.perf_counter() - start

    start = time.perf_counter()
    pipelined = client.compute_many(payloads, pipeline=16)
    pipe_s = time.perf_counter() - start

    identical = all(
        ours["speedup"].tobytes() == theirs["speedup"].tobytes()
        for ours, theirs in zip(pipelined, sequential)
    )
    print(f"32 warm requests: sequential {seq_s * 1e3:.1f} ms | "
          f"pipelined (depth 16) {pipe_s * 1e3:.1f} ms "
          f"({seq_s / pipe_s:.2f}x)")
    print(f"pipelined answers bit-identical and in order: {identical}")


def main() -> None:
    with AsyncSweepServer(port=0) as server:
        print(f"daemon: {server.url}\n")
        pool_knobs(server)
        print()
        wire_tax(server)
        print()
        pipelining(server)


if __name__ == "__main__":
    main()
