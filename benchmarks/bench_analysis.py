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
  after a restart) versus computed without a cache.  A disk hit must
  cost less than the recompute it replaces (ratio < 1.0).

Both ratios are taken between medians of interleaved repeats.

    PYTHONPATH=src python benchmarks/bench_analysis.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.batch import SweepCache, optimal_allocation_curve
from repro.core.allocation import optimize_allocation
from repro.core.parameters import Workload
from repro.machines.catalog import PAPER_BUS
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

from harness import compare, main

GRID_POINTS = 2000

#: The acceptance bar for the vectorized analysis layer.
MIN_SPEEDUP = 50.0
SPEEDUP_REPEATS = 5

#: Untimed rounds before the timed repeats of the disk-hit bench.
WARMUP = 5
REPEATS = 31
#: A disk hit must cost less than recomputing the curve it stores.
MAX_DISK_HIT_RATIO = 1.0

KIND = PartitionKind.SQUARE


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


def _curve(sides: list[int], cache: SweepCache | None):
    return optimal_allocation_curve(
        PAPER_BUS, FIVE_POINT, KIND, sides, integer=True, cache=cache
    )


def _scalar(sides: list[int]) -> tuple[np.ndarray, np.ndarray]:
    speedup = np.empty(len(sides))
    area = np.empty(len(sides))
    for i, n in enumerate(sides):
        alloc = optimize_allocation(
            PAPER_BUS, Workload(n=n, stencil=FIVE_POINT), KIND, integer=True
        )
        speedup[i] = alloc.speedup
        area[i] = alloc.area
    return speedup, area


def bench_vectorized(sides: list[int]) -> dict:
    """Time the capacity-planning sweep both ways and check they agree."""

    def check(_context, outputs: dict) -> None:
        speedup, area = outputs["scalar"]
        np.testing.assert_array_equal(outputs["vectorized"].speedup, speedup)
        np.testing.assert_array_equal(outputs["vectorized"].area, area)

    timed = compare(
        {"scalar": lambda _: _scalar(sides), "vectorized": lambda _: _curve(sides, None)},
        repeats=SPEEDUP_REPEATS,
        check=check,
    )
    return {
        "points": len(sides),
        "machine": "paper-bus",
        "scalar_seconds": timed["scalar"],
        "vectorized_seconds": timed["vectorized"],
        "speedup": timed["scalar"]["median"] / timed["vectorized"]["median"],
    }


def bench_disk_hit(sides: list[int]) -> dict:
    """Disk hit (fresh cache, warm store) vs cold compute, same curve."""
    disk_hits = 0
    with tempfile.TemporaryDirectory() as tmp:
        reference = _curve(sides, SweepCache(tmp))  # fills the store

        def check(fresh: SweepCache, outputs: dict) -> None:
            nonlocal disk_hits
            np.testing.assert_array_equal(outputs["cold"].speedup, reference.speedup)
            np.testing.assert_array_equal(outputs["hit"].speedup, reference.speedup)
            assert outputs["hit"].regime == reference.regime
            disk_hits += fresh.stats.disk_hits == 1 and fresh.stats.misses == 0

        timed = compare(
            {"cold": lambda _: _curve(sides, None), "hit": lambda fresh: _curve(sides, fresh)},
            repeats=REPEATS,
            warmup=WARMUP,
            setup=lambda _: SweepCache(tmp),  # empty memory tier, same store
            check=check,
        )
    return {
        "points": len(sides),
        "cold_compute": timed["cold"],
        "disk_hit": timed["hit"],
        "ratio": timed["hit"]["median"] / timed["cold"]["median"],
        "max_ratio": MAX_DISK_HIT_RATIO,
        "all_disk_hits": disk_hits == WARMUP + REPEATS,
    }


def measure() -> dict:
    sides = _axis()
    return {
        "vectorized_analysis": bench_vectorized(sides),
        "disk_hit_vs_cold": bench_disk_hit(sides),
        "min_speedup": MIN_SPEEDUP,
    }


def gates(figures: dict) -> list[tuple[str, bool]]:
    speedup = figures["vectorized_analysis"]["speedup"]
    disk = figures["disk_hit_vs_cold"]
    return [
        (f"vectorized analysis {speedup:.1f}x >= {MIN_SPEEDUP:g}x", speedup >= MIN_SPEEDUP),
        (
            f"disk hit {disk['ratio']:.2f}x cold compute < {MAX_DISK_HIT_RATIO:g}x",
            disk["ratio"] < MAX_DISK_HIT_RATIO,
        ),
        ("every disk-hit round was a pure disk hit", disk["all_disk_hits"]),
    ]


if __name__ == "__main__":
    main("analysis", measure, gates)
