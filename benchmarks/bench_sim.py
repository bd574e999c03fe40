"""BENCH-SIM: the lockstep replica tier versus the scalar event oracle.

Two measurements, recorded to ``results/BENCH_sim.json`` so the batched
simulator's win is tracked across PRs:

* **batched vs scalar** — a 1000-replica Monte Carlo ensemble (one
  machine, one configuration, consecutive seeds) advanced once through
  :func:`repro.batch.sim.simulate_replicas` and once replica-by-replica
  through the event-level :func:`repro.sim.replica.simulate_replica`.
  The two are asserted bit-equal first; the gate is the speedup:
  the lockstep path must be at least ``MIN_SPEEDUP`` times faster.
* **warm cache** — the same ensemble, as its ``sim_sweep`` graph node,
  through ``repro.graph.evaluate``: a repeat against a store that
  already holds it must be answered by the cache (a memory hit), and
  faster than the cold compute-and-store into a fresh store.

Both comparisons read medians of interleaved repeats.

    PYTHONPATH=src python benchmarks/bench_sim.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.batch.cache import SweepCache
from repro.batch.sim import ReplicaBatchSpec, simulate_replicas
from repro.graph import evaluate, nodes
from repro.machines.catalog import DEFAULT_MACHINES
from repro.sim.replica import simulate_replica
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

from harness import compare, main

#: The acceptance bar: lockstep advance over scalar event replay.
MIN_SPEEDUP = 50.0

#: Ensemble size for the gate (the ISSUE's floor is 1000 replicas).
REPLICAS = 1000

#: Timed rounds per block, after one warm-up; the scalar arm takes
#: about a third of a second a call.
SPEEDUP_REPEATS = 5
CACHE_REPEATS = 21

SQUARE = PartitionKind.SQUARE


def _ensemble() -> ReplicaBatchSpec:
    return ReplicaBatchSpec.monte_carlo(
        DEFAULT_MACHINES["paper-bus"], FIVE_POINT, SQUARE, 48, 8, REPLICAS,
        jitter=0.05,
    )


def bench_batched_vs_scalar(spec: ReplicaBatchSpec) -> dict:
    """One lockstep call against replica-by-replica event replay."""

    def scalar(_) -> np.ndarray:
        return np.asarray(
            [
                simulate_replica(
                    spec.machine,
                    spec.grid_sides[i],
                    spec.processors[i],
                    spec.stencil,
                    spec.seeds[i],
                    kind=spec.kind,
                    t_flop=spec.t_flop,
                    mode=spec.mode,
                    jitter=spec.jitter,
                ).cycle_time
                for i in range(len(spec.seeds))
            ],
            dtype=np.float64,
        )

    def check(_context, outputs: dict) -> None:
        # The speedup only counts if the answers are the same answer.
        np.testing.assert_array_equal(outputs["batched"].cycle_times, outputs["scalar"])

    timed = compare(
        {"batched": lambda _: simulate_replicas(spec), "scalar": scalar},
        repeats=SPEEDUP_REPEATS,
        check=check,
    )
    return {
        "replicas": REPLICAS,
        "batched_seconds": timed["batched"],
        "scalar_seconds": timed["scalar"],
        "speedup": timed["scalar"]["median"] / timed["batched"]["median"],
    }


def bench_warm_cache(spec: ReplicaBatchSpec) -> dict:
    """Cold compute-and-store into a fresh store vs a hit on a warm one."""
    node = nodes.sim_sweep(
        spec.machine, spec.stencil, spec.kind, spec.grid_sides[0], spec.processors[0],
        spec.seeds, jitter=spec.jitter,
    )
    with tempfile.TemporaryDirectory() as tmp:
        warm_cache = SweepCache(cache_dir=Path(tmp) / "warm")
        evaluate([node], cache=warm_cache)  # the one miss: fills the store

        def check(_fresh, outputs: dict) -> None:
            ((cold,), (warm,)) = outputs["cold"], outputs["warm"]
            np.testing.assert_array_equal(cold["cycle_times"], warm["cycle_times"])

        timed = compare(
            {
                "cold": lambda fresh: evaluate([node], cache=fresh),
                "warm": lambda _: evaluate([node], cache=warm_cache),
            },
            repeats=CACHE_REPEATS,
            setup=lambda i: SweepCache(cache_dir=Path(tmp) / f"cold-{i}"),
            check=check,
        )
        snapshot = warm_cache.stats_snapshot()

    return {
        "cold_seconds": timed["cold"],
        "warm_seconds": timed["warm"],
        "hit_speedup": timed["cold"]["median"] / timed["warm"]["median"],
        "memory_hits": snapshot["memory_hits"],
        "disk_hits": snapshot["disk_hits"],
        "misses": snapshot["misses"],
    }


def measure() -> dict:
    spec = _ensemble()
    return {
        "batched_vs_scalar": bench_batched_vs_scalar(spec),
        "warm_cache": bench_warm_cache(spec),
        "min_speedup": MIN_SPEEDUP,
    }


def gates(figures: dict) -> list[tuple[str, bool]]:
    batch, warm = figures["batched_vs_scalar"], figures["warm_cache"]
    return [
        (
            f"batched vs scalar: {batch['speedup']:.1f}x over {batch['replicas']} "
            f"replicas >= {MIN_SPEEDUP:g}x",
            batch["speedup"] >= MIN_SPEEDUP,
        ),
        (
            f"warm cache: {warm['memory_hits'] + warm['disk_hits']} hits >= 1",
            warm["memory_hits"] + warm["disk_hits"] >= 1,
        ),
        (
            f"warm cache: hit {warm['hit_speedup']:.1f}x faster than cold compute",
            warm["warm_seconds"]["median"] < warm["cold_seconds"]["median"],
        ),
    ]


if __name__ == "__main__":
    main("sim", measure, gates)
