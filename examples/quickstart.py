#!/usr/bin/env python
"""Quickstart: how many processors should this problem use, and what
speedup can it possibly get?

This walks the library's core loop on the paper's anchor problem — a
256×256 five-point Jacobi solve on a shared-bus multiprocessor — and
then asks the headline question of the paper: what happens when the
machine is allowed to grow with the problem?

Run:  python examples/quickstart.py
"""

from repro import (
    FIVE_POINT,
    PAPER_BUS,
    PartitionKind,
    Workload,
    optimal_speedup,
    optimize_allocation,
)
from repro.report.tables import format_kv_block, format_table


def main() -> None:
    # ---------------------------------------------------------------- setup
    workload = Workload(n=256, stencil=FIVE_POINT)  # t_flop defaults to 1 µs
    print(
        format_kv_block(
            {
                "grid": f"{workload.n} x {workload.n}",
                "stencil": workload.stencil.name,
                "E(S) flops/point": workload.flops_per_point,
                "serial iteration time": workload.serial_time(),
                "machine": "synchronous bus, b = 6.1 us, c = 0",
            },
            title="Problem",
        )
    )
    print()

    # ------------------------------------------------ allocation on 16 CPUs
    # The vendor sells a 16-processor bus machine.  Should we use all 16?
    rows = []
    for kind in (PartitionKind.STRIP, PartitionKind.SQUARE):
        alloc = optimize_allocation(
            PAPER_BUS, workload, kind, max_processors=16, integer=True
        )
        rows.append(
            (
                kind.value,
                alloc.regime,
                round(alloc.processors, 1),
                alloc.cycle_time,
                round(alloc.speedup, 2),
                round(alloc.efficiency, 2),
            )
        )
    print(
        format_table(
            ["partition", "regime", "processors", "cycle time", "speedup", "efficiency"],
            rows,
            title="Best allocation on a 16-processor bus",
        )
    )
    print()

    # ---------------------------------------------- unlimited processors
    # The paper's question: with processors free, how far can speedup go?
    rows = []
    for n in (256, 1024, 4096):
        w = workload.with_n(n)
        sq = optimal_speedup(PAPER_BUS, w, PartitionKind.SQUARE)
        st = optimal_speedup(PAPER_BUS, w, PartitionKind.STRIP)
        rows.append(
            (
                n,
                round(sq.processors, 0),
                round(sq.speedup, 1),
                round(st.processors, 0),
                round(st.speedup, 1),
            )
        )
    print(
        format_table(
            ["n", "procs (squares)", "speedup (squares)", "procs (strips)", "speedup (strips)"],
            rows,
            title="Optimal speedup, unlimited processors (bus)",
        )
    )
    print()
    print(
        "Speedup grows only as (n^2)^(1/3) for squares and (n^2)^(1/4) for\n"
        "strips: contention for the single bus caps scaling regardless of\n"
        "processor count — the paper's case against buses for large PDEs."
    )
    print()

    # ------------------------------------------------------ batched sweeps
    # Dense curve families come from the batch engine: one vectorized
    # call per machine over a full (N, P) grid — the same example as the
    # repro.batch package docstring.
    import numpy as np

    from repro.batch import SweepSpec, run_sweep

    spec = SweepSpec.across_catalog(
        grid_sides=[128, 256, 512, 1024],
        processors=np.arange(1, 257),
    )
    result = run_sweep(spec)
    speedup = result.speedup("paper-bus")  # shape (4, 256)
    best_p = np.argmax(speedup, axis=1) + 1  # optimal P per grid side
    rows = [
        (n, int(best_p[i]), round(float(speedup[i, best_p[i] - 1]), 2))
        for i, n in enumerate(spec.grid_sides)
    ]
    print(
        format_table(
            ["n", "best P on the grid", "speedup there"],
            rows,
            title="Batched (N, P) sweep on the bus: 256 processor counts at once",
        )
    )
    print()

    # ------------------------------------------- cached whole-grid plan
    # The analysis layer answers the paper's *optimization* questions
    # over whole axes — here an integer-constrained capacity plan for
    # every grid side from 64 to 4096 — and the content-addressed sweep
    # cache makes the second request a pure warm hit (add a cache_dir to
    # persist it across runs; the CLI equivalent is
    # `python -m repro optimize --grid 64:4096:64 --cache-dir ...`).
    import tempfile

    from repro.batch import SweepCache, optimal_allocation_curve

    with tempfile.TemporaryDirectory() as tmp:
        cache = SweepCache(tmp)
        sides = list(range(64, 4097, 64))
        curve = optimal_allocation_curve(
            PAPER_BUS,
            FIVE_POINT,
            PartitionKind.SQUARE,
            sides,
            integer=True,
            cache=cache,
        )
        curve = optimal_allocation_curve(  # warm: served from the cache
            PAPER_BUS,
            FIVE_POINT,
            PartitionKind.SQUARE,
            sides,
            integer=True,
            cache=cache,
        )
        picks = [0, len(sides) // 2, len(sides) - 1]
        print(
            format_table(
                ["n", "regime", "processors", "speedup"],
                [
                    (
                        int(curve.grid_sides[i]),
                        curve.regime[i],
                        round(curve.processors[i].item(), 1),
                        round(curve.speedup[i].item(), 2),
                    )
                    for i in picks
                ],
                title=f"Cached whole-grid plan ({len(sides)} sides; "
                f"cache: {cache.stats.describe()})",
            )
        )
    print()

    # ---------------------------------------------------- the sweep graph
    # Every request above actually flowed through the lazy sweep graph.
    # Building nodes directly lets the planner work across requests: the
    # strip/square ratio shares its square curve with the direct request
    # (dedup), the two allocation curves fuse onto one evaluation over
    # their union axis, and `--executor oracle` — here `executor=` —
    # reruns the same plan on the scalar repro.core reference with
    # bit-identical results.
    from repro.graph import nodes, plan

    forest = [
        nodes.allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, range(64, 512, 16)
        ),
        nodes.allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, range(256, 1024, 16)
        ),
        nodes.strip_square_ratio(PAPER_BUS, FIVE_POINT, range(64, 512, 16)),
    ]
    optimized = plan(forest)
    print("The optimized sweep graph (what `--explain` prints):")
    print(optimized.explain())
    via_numpy = optimized.execute()
    via_oracle = plan(forest, executor="oracle").execute()
    assert all(
        np.array_equal(via_numpy[0][name], via_oracle[0][name])
        for name in via_numpy[0]
    )
    assert np.array_equal(via_numpy[2], via_oracle[2])
    print(
        f"numpy and oracle executors agree bit for bit on all "
        f"{len(forest)} requests\n"
    )

    # ------------------------------------------------- the sweep server
    # `python -m repro serve` runs this daemon standalone; here it runs
    # on a background thread with an ephemeral port.  Identical
    # concurrent requests coalesce onto one compute, compatible
    # requests of any family batch onto one planner-fused call, and
    # --max-cache-mb (max_cache_mb=) keeps the store LRU-bounded.
    # Responses are byte-identical to computing offline.
    from repro.service import AsyncSweepServer, ServiceClient

    with AsyncSweepServer(port=0, max_cache_mb=16) as server:
        client = ServiceClient(server.url)
        sides = [256, 1024, 4096]
        served = client.allocation_curve(
            "paper-bus", "5-point", "square", sides, integer=True
        )
        served = client.allocation_curve(  # warm: answered from the store
            "paper-bus", "5-point", "square", sides, integer=True
        )
        print(
            format_table(
                ["n", "regime", "speedup"],
                [
                    (
                        int(served.grid_sides[i]),
                        served.regime[i],
                        round(served.speedup[i].item(), 2),
                    )
                    for i in range(len(served))
                ],
                title=(
                    f"Served by the sweep daemon at {server.url} "
                    f"(second request: {client.last_served})"
                ),
            )
        )


if __name__ == "__main__":
    main()
