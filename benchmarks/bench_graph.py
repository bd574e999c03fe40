"""BENCH-GRAPH: what the sweep-graph planner saves — fusion and dedup.

Two measurements, recorded to ``results/BENCH_graph.json`` so the
planner's wins are tracked across PRs:

* **fusion** — a mixed batch of analysis requests (allocation curves,
  max-useful thresholds, minimal-size curves, and sweeps, each family
  spread over several axes) is planned as one graph.  The gate: the
  plan makes strictly fewer vectorized evaluations than there are
  requests — compatible siblings must share evaluations.  The wall
  time of the fused plan versus one eager evaluation per request is
  reported, not gated (the win scales with axis overlap).
* **dedup** — a request forest with heavily overlapping subgraphs
  (repeated ratio/allocation roots, as a fan-in dashboard or a batch
  of near-identical clients would issue).  The gate: at least 90% of
  the node instances across the forest are answered by an
  already-planned node instead of becoming new work.

    PYTHONPATH=src python benchmarks/bench_graph.py
"""

from __future__ import annotations

import numpy as np

from repro.batch.engine import SweepSpec
from repro.graph import nodes, plan
from repro.graph.planner import evaluate
from repro.machines.catalog import DEFAULT_MACHINES, PAPER_BUS
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

from harness import compare, main

#: The acceptance bar: fraction of node instances across the request
#: forest that dedup onto an already-planned node.
MIN_DEDUP_RATE = 0.90

#: Timed rounds of the fusion arms, after one warm-up.
REPEATS = 21

SQUARE = PartitionKind.SQUARE


def _mixed_requests() -> list:
    """A realistic mixed batch: four families, several axes each."""
    batch = []
    for lo in (64, 96, 128, 256, 400, 512):
        batch.append(
            nodes.allocation_curve(
                PAPER_BUS, FIVE_POINT, SQUARE, list(range(lo, lo + 400, 4))
            )
        )
    for lo in (32, 64, 128):
        batch.append(
            nodes.max_useful_processors(
                PAPER_BUS, FIVE_POINT, SQUARE, list(range(lo, lo + 500, 8))
            )
        )
    for procs in ([2, 4, 8, 16], [8, 16, 32, 64], [4, 32, 128]):
        batch.append(
            nodes.minimal_problem_size(PAPER_BUS, NINE_POINT_BOX, SQUARE, procs)
        )
    for sides in ([64, 128, 256], [128, 256, 512], [64, 512, 1024]):
        batch.append(
            nodes.sweep(
                SweepSpec(
                    grid_sides=tuple(sides),
                    processors=(1.0, 4.0, 16.0, 64.0),
                    machines=(
                        ("ipsc", DEFAULT_MACHINES["ipsc"]),
                        ("paper-bus", DEFAULT_MACHINES["paper-bus"]),
                    ),
                )
            )
        )
    return batch


def bench_fusion() -> dict:
    """Plan a mixed batch once; compare against one-request-at-a-time.

    Each round plans freshly built requests on both arms, since a node
    keeps its fingerprint once computed.
    """
    fused_plan = plan(_mixed_requests())

    def check(_requests, outputs: dict) -> None:
        # The fused slices must equal the solo evaluations bit for bit.
        for fused, solo in zip(outputs["fused"], outputs["solo"]):
            for name in solo:
                np.testing.assert_array_equal(fused[name], solo[name])

    timed = compare(
        {
            "fused": lambda requests: plan(requests[0]).execute(),
            "solo": lambda requests: [evaluate([node])[0] for node in requests[1]],
        },
        repeats=REPEATS,
        setup=lambda _: (_mixed_requests(), _mixed_requests()),
        check=check,
    )
    return {
        "requests": fused_plan.n_requests,
        "evaluations": fused_plan.evaluations,
        "siblings_fused": fused_plan.siblings_fused,
        "fused_seconds": timed["fused"],
        "solo_seconds": timed["solo"],
        "speedup": timed["solo"]["median"] / timed["fused"]["median"],
    }


def bench_dedup() -> dict:
    """A forest of overlapping subgraphs: most instances must dedup."""
    sides = list(range(64, 1024, 16))
    cube, net = DEFAULT_MACHINES["ipsc"], DEFAULT_MACHINES["butterfly"]
    forest = []
    for _ in range(20):
        forest.append(nodes.speedup_ratio(cube, net, FIVE_POINT, SQUARE, sides))
        forest.append(nodes.strip_square_ratio(PAPER_BUS, FIVE_POINT, sides))
        forest.append(nodes.allocation_curve(cube, FIVE_POINT, SQUARE, sides))
        forest.append(nodes.allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, sides))

    p = plan(forest)
    instances = sum(planned.instances for planned in p.nodes)
    deduped = p.subgraphs_deduped
    return {
        "requests": p.n_requests,
        "node_instances": instances,
        "unique_nodes": p.n_nodes,
        "subgraphs_deduped": deduped,
        "dedup_rate": deduped / instances if instances else 0.0,
        "evaluations": p.evaluations,
    }


def measure() -> dict:
    return {"fusion": bench_fusion(), "dedup": bench_dedup(), "min_dedup_rate": MIN_DEDUP_RATE}


def gates(figures: dict) -> list[tuple[str, bool]]:
    fusion, dedup = figures["fusion"], figures["dedup"]
    return [
        (
            f"fusion: {fusion['requests']} requests -> {fusion['evaluations']} evaluations",
            fusion["evaluations"] < fusion["requests"],
        ),
        (f"fusion: {fusion['siblings_fused']} siblings fused > 0", fusion["siblings_fused"] > 0),
        (
            f"dedup rate {dedup['dedup_rate']:.3f} over {dedup['node_instances']} "
            f"node instances >= {MIN_DEDUP_RATE}",
            dedup["dedup_rate"] >= MIN_DEDUP_RATE,
        ),
    ]


if __name__ == "__main__":
    main("graph", measure, gates)
