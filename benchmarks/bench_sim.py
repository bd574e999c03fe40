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
  planned twice through ``repro.graph.evaluate`` against a fresh store:
  the second call must be answered by the cache (a memory hit), and its
  wall time is reported next to the cold compute.

Run as a script (CI's smoke bench) or under pytest:

    PYTHONPATH=src python benchmarks/bench_sim.py
    pytest benchmarks/bench_sim.py -s
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.batch.cache import SweepCache
from repro.batch.sim import ReplicaBatchSpec, simulate_replicas
from repro.graph import evaluate, nodes
from repro.machines.catalog import DEFAULT_MACHINES
from repro.report.csvio import default_results_dir
from repro.sim.replica import simulate_replica
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

#: The acceptance bar: lockstep advance over scalar event replay.
MIN_SPEEDUP = 50.0

#: Ensemble size for the gate (the ISSUE's floor is 1000 replicas).
REPLICAS = 1000

SQUARE = PartitionKind.SQUARE


def _ensemble() -> ReplicaBatchSpec:
    return ReplicaBatchSpec.monte_carlo(
        DEFAULT_MACHINES["paper-bus"], FIVE_POINT, SQUARE, 48, 8, REPLICAS,
        jitter=0.05,
    )


def bench_batched_vs_scalar() -> dict:
    """One lockstep call against replica-by-replica event replay."""
    spec = _ensemble()
    simulate_replicas(spec)  # warm imports / allocator before timing

    start = time.perf_counter()
    batched = simulate_replicas(spec)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar = [
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
    ]
    scalar_s = time.perf_counter() - start

    # The speedup only counts if the answers are the same answer.
    np.testing.assert_array_equal(
        batched.cycle_times, np.asarray(scalar, dtype=np.float64)
    )

    return {
        "replicas": REPLICAS,
        "batched_seconds": batched_s,
        "scalar_seconds": scalar_s,
        "speedup": scalar_s / batched_s if batched_s else float("inf"),
    }


def bench_warm_cache() -> dict:
    """Cold compute-and-store, then the same request as a cache hit."""
    spec = _ensemble()
    node = nodes.sim_sweep(
        spec.machine, spec.stencil, spec.kind, spec.grid_sides[0], spec.processors[0],
        spec.seeds, jitter=spec.jitter,
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = SweepCache(cache_dir=tmp)

        start = time.perf_counter()
        (cold,) = evaluate([node], cache=cache)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        (warm,) = evaluate([node], cache=cache)
        warm_s = time.perf_counter() - start

        np.testing.assert_array_equal(cold["cycle_times"], warm["cycle_times"])
        snapshot = cache.stats_snapshot()

    return {
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "hit_speedup": cold_s / warm_s if warm_s else float("inf"),
        "memory_hits": snapshot["memory_hits"],
        "disk_hits": snapshot["disk_hits"],
        "misses": snapshot["misses"],
    }


def run_bench(output_path: Path | None = None) -> dict:
    payload = {
        "bench": "sim",
        "batched_vs_scalar": bench_batched_vs_scalar(),
        "warm_cache": bench_warm_cache(),
        "min_speedup": MIN_SPEEDUP,
    }
    path = output_path or (default_results_dir() / "BENCH_sim.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["path"] = str(path)
    return payload


def test_bench_sim(results_dir):
    payload = run_bench(results_dir / "BENCH_sim.json")
    print()
    print(json.dumps(payload, indent=2))
    batch = payload["batched_vs_scalar"]
    assert batch["speedup"] >= MIN_SPEEDUP, batch
    warm = payload["warm_cache"]
    assert warm["memory_hits"] + warm["disk_hits"] >= 1, warm
    assert warm["warm_seconds"] < warm["cold_seconds"], warm


if __name__ == "__main__":
    report = run_bench()
    json.dump(report, sys.stdout, indent=2)
    print()
    batch, warm = report["batched_vs_scalar"], report["warm_cache"]
    batch_ok = batch["speedup"] >= MIN_SPEEDUP
    warm_ok = (
        warm["memory_hits"] + warm["disk_hits"] >= 1
        and warm["warm_seconds"] < warm["cold_seconds"]
    )
    print(
        f"batched vs scalar: {batch['speedup']:.1f}x over "
        f"{batch['replicas']} replicas "
        f"({'PASS' if batch_ok else 'FAIL'} >= {MIN_SPEEDUP:g}); "
        f"warm cache: {warm['hit_speedup']:.1f}x hit "
        f"({'PASS' if warm_ok else 'FAIL'})"
    )
    sys.exit(0 if batch_ok and warm_ok else 1)
