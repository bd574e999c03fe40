"""BENCH-BATCH: the sweep engine's speedup over the per-point path.

A 200×200 (N, P) grid across the four architecture families
(hypercube, mesh, bus, banyan) through ``run_sweep`` versus the
equivalent scalar ``cycle_time`` loop, recorded to
``results/BENCH_batch.json`` so the perf trajectory is tracked.  The
engine promises ≥ 10×; typical is well above.

Run as a script (CI's smoke bench) or under pytest:

    PYTHONPATH=src python benchmarks/bench_batch.py
    pytest benchmarks/bench_batch.py -s
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.batch import SweepSpec, run_sweep
from repro.core.parameters import Workload
from repro.machines.catalog import DEFAULT_MACHINES
from repro.report.csvio import default_results_dir
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

#: One preset per architecture family of the paper.
MACHINES = ("ipsc", "fem", "paper-bus", "butterfly")

GRID_POINTS = 200


def _axes() -> tuple[list[int], list[float]]:
    """200 grid sides in [64, 4096], 200 processor counts in [1, 4096]."""
    sides = np.unique(
        np.round(np.geomspace(64, 4096, GRID_POINTS)).astype(int)
    ).tolist()
    # Top the list back up to exactly GRID_POINTS unique values.
    extra = (n for n in range(64, 4096) if n not in set(sides))
    while len(sides) < GRID_POINTS:
        sides.append(next(extra))
    sides = sorted(sides[:GRID_POINTS])
    procs = np.geomspace(1.0, 4096.0, GRID_POINTS)
    procs[0] = 1.0
    return sides, procs.tolist()


def bench_vectorized() -> dict:
    """Time the dense sweep both ways and check they agree."""
    sides, procs = _axes()
    spec = SweepSpec.across_catalog(
        sides, procs, machines=MACHINES, stencil=FIVE_POINT, kind=PartitionKind.SQUARE
    )

    start = time.perf_counter()
    result = run_sweep(spec)
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar = {}
    for name in MACHINES:
        machine = DEFAULT_MACHINES[name]
        surface = np.empty((len(sides), len(procs)))
        for i, n in enumerate(sides):
            w = Workload(n=n, stencil=FIVE_POINT)
            serial = w.serial_time()
            for j, p in enumerate(procs):
                if p == 1.0:
                    surface[i, j] = serial
                else:
                    surface[i, j] = machine.cycle_time(
                        w, PartitionKind.SQUARE, w.grid_points / p
                    )
        scalar[name] = surface
    scalar_s = time.perf_counter() - start

    for name in MACHINES:
        np.testing.assert_array_equal(result.cycle_time(name), scalar[name])
    return {
        "grid": [len(sides), len(procs)],
        "machines": list(MACHINES),
        "cells": len(sides) * len(procs) * len(MACHINES),
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vectorized_s,
        "speedup": scalar_s / vectorized_s,
    }


def run_bench(output_path: Path | None = None) -> dict:
    payload = {
        "bench": "batch",
        "vectorized_sweep": bench_vectorized(),
    }
    path = output_path or (default_results_dir() / "BENCH_batch.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["path"] = str(path)
    return payload


def test_bench_batch(results_dir):
    payload = run_bench(results_dir / "BENCH_batch.json")
    print()
    print(json.dumps(payload, indent=2))
    sweep = payload["vectorized_sweep"]
    # The acceptance bar: a 200x200 (N, P) sweep across the four
    # architectures is at least 10x faster vectorized than per-point.
    assert sweep["speedup"] >= 10.0, sweep


if __name__ == "__main__":
    report = run_bench()
    json.dump(report, sys.stdout, indent=2)
    print()
    ok = report["vectorized_sweep"]["speedup"] >= 10.0
    print(f"vectorized speedup {report['vectorized_sweep']['speedup']:.1f}x "
          f"({'PASS' if ok else 'FAIL'} >= 10x)")
    sys.exit(0 if ok else 1)
