"""BENCH-ANALYSIS: the vectorized analysis layer vs the scalar core.

Two measurements, recorded to ``results/BENCH_analysis.json`` so the
perf trajectory is tracked across PRs:

* **scalar vs vectorized** — a 2000-point capacity-planning sweep
  (integer-constrained optimal allocations over a dense grid-side axis
  on the paper's bus) through ``repro.batch.analysis`` versus the
  equivalent per-point ``optimize_allocation`` loop.  The layer
  promises ≥ 50×; typical is well above.
* **disk hit vs cold compute** — the same sweep served from the sweep
  cache's disk tier by a fresh cache instance (empty memory tier, as
  after a restart) versus computed without a cache.  Both sides get a
  warm-up, then interleaved timed repeats; the medians (with quartiles)
  are compared, and a disk hit must cost less than the recompute it
  replaces (ratio < 1.0).

Run as a script (CI's smoke bench) or under pytest:

    PYTHONPATH=src python benchmarks/bench_analysis.py
    pytest benchmarks/bench_analysis.py -s
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.batch import SweepCache, optimal_allocation_curve
from repro.core.allocation import optimize_allocation
from repro.core.parameters import Workload
from repro.machines.catalog import PAPER_BUS
from repro.report.csvio import default_results_dir
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

GRID_POINTS = 2000

#: The acceptance bar for the vectorized analysis layer.
MIN_SPEEDUP = 50.0

#: Untimed runs per side before the timed repeats of the disk-hit bench.
WARMUP = 5
REPEATS = 31
#: A disk hit must cost less than recomputing the curve it stores.
MAX_DISK_HIT_RATIO = 1.0


def _axis() -> list[int]:
    """2000 distinct grid sides spanning [64, 8192]."""
    sides = np.unique(
        np.round(np.geomspace(64, 8192, GRID_POINTS)).astype(int)
    ).tolist()
    taken = set(sides)
    extra = (n for n in range(64, 8192) if n not in taken)
    while len(sides) < GRID_POINTS:
        sides.append(next(extra))
    return sorted(sides[:GRID_POINTS])


def bench_vectorized() -> dict:
    """Time the capacity-planning sweep both ways and check they agree."""
    sides = _axis()
    kind = PartitionKind.SQUARE

    start = time.perf_counter()
    curve = optimal_allocation_curve(
        PAPER_BUS, FIVE_POINT, kind, sides, integer=True
    )
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar_speedup = np.empty(len(sides))
    scalar_area = np.empty(len(sides))
    for i, n in enumerate(sides):
        alloc = optimize_allocation(
            PAPER_BUS, Workload(n=n, stencil=FIVE_POINT), kind, integer=True
        )
        scalar_speedup[i] = alloc.speedup
        scalar_area[i] = alloc.area
    scalar_s = time.perf_counter() - start

    np.testing.assert_array_equal(curve.speedup, scalar_speedup)
    np.testing.assert_array_equal(curve.area, scalar_area)
    return {
        "points": len(sides),
        "machine": "paper-bus",
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vectorized_s,
        "speedup": scalar_s / vectorized_s,
    }


def _quartiles_ms(seconds: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(seconds) * 1e3, [25, 50, 75])
    return {"median_ms": float(median), "q1_ms": float(q1), "q3_ms": float(q3)}


def bench_disk_hit() -> dict:
    """Disk hit (fresh cache, warm store) vs cold compute, same curve."""
    sides = _axis()
    kind = PartitionKind.SQUARE

    def curve(cache: SweepCache | None):
        return optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, kind, sides, integer=True, cache=cache
        )

    cold_s: list[float] = []
    hit_s: list[float] = []
    disk_hits = 0
    with tempfile.TemporaryDirectory() as tmp:
        reference = curve(SweepCache(tmp))  # fills the store
        for i in range(WARMUP + REPEATS):
            start = time.perf_counter()
            computed = curve(None)
            cold = time.perf_counter() - start

            fresh = SweepCache(tmp)  # empty memory tier, same store
            start = time.perf_counter()
            served = curve(fresh)
            hit = time.perf_counter() - start

            np.testing.assert_array_equal(computed.speedup, reference.speedup)
            np.testing.assert_array_equal(served.speedup, reference.speedup)
            assert served.regime == reference.regime
            disk_hits += fresh.stats.disk_hits == 1 and fresh.stats.misses == 0
            if i >= WARMUP:
                cold_s.append(cold)
                hit_s.append(hit)
    cold_ms = _quartiles_ms(cold_s)
    hit_ms = _quartiles_ms(hit_s)
    return {
        "points": len(sides),
        "warmup": WARMUP,
        "repeats": REPEATS,
        "cold_compute": cold_ms,
        "disk_hit": hit_ms,
        "ratio": hit_ms["median_ms"] / cold_ms["median_ms"],
        "max_ratio": MAX_DISK_HIT_RATIO,
        "all_disk_hits": disk_hits == WARMUP + REPEATS,
    }


def _disk_hit_ok(disk: dict) -> bool:
    return disk["all_disk_hits"] and disk["ratio"] < disk["max_ratio"]


def run_bench(output_path: Path | None = None) -> dict:
    payload = {
        "bench": "analysis",
        "vectorized_analysis": bench_vectorized(),
        "disk_hit_vs_cold": bench_disk_hit(),
    }
    path = output_path or (default_results_dir() / "BENCH_analysis.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["path"] = str(path)
    return payload


def test_bench_analysis(results_dir):
    payload = run_bench(results_dir / "BENCH_analysis.json")
    print()
    print(json.dumps(payload, indent=2))
    analysis = payload["vectorized_analysis"]
    assert analysis["speedup"] >= MIN_SPEEDUP, analysis
    disk = payload["disk_hit_vs_cold"]
    assert _disk_hit_ok(disk), disk


if __name__ == "__main__":
    report = run_bench()
    json.dump(report, sys.stdout, indent=2)
    print()
    disk = report["disk_hit_vs_cold"]
    ok = report["vectorized_analysis"]["speedup"] >= MIN_SPEEDUP and _disk_hit_ok(disk)
    print(
        f"vectorized analysis {report['vectorized_analysis']['speedup']:.1f}x "
        f"(gate >= {MIN_SPEEDUP:g}x); disk hit "
        f"{disk['disk_hit']['median_ms']:.2f} ms vs cold compute "
        f"{disk['cold_compute']['median_ms']:.2f} ms = {disk['ratio']:.2f} "
        f"(gate < {disk['max_ratio']:g}, {'all hits' if disk['all_disk_hits'] else 'MISSES'}) "
        f"[{'PASS' if ok else 'FAIL'}]"
    )
    sys.exit(0 if ok else 1)
