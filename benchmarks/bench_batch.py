"""BENCH-BATCH: the sweep engine's speedup over the per-point path.

A 200×200 (N, P) grid across the four architecture families
(hypercube, mesh, bus, banyan) through ``run_sweep`` versus the
equivalent scalar ``cycle_time`` loop, recorded to
``results/BENCH_batch.json`` so the perf trajectory is tracked.  The
engine promises ≥ 10× (median over median); typical is well above.

    PYTHONPATH=src python benchmarks/bench_batch.py
"""

from __future__ import annotations

import numpy as np

from repro.batch import SweepSpec, run_sweep
from repro.core.parameters import Workload
from repro.machines.catalog import DEFAULT_MACHINES
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

from harness import compare, main

#: One preset per architecture family of the paper.
MACHINES = ("ipsc", "fem", "paper-bus", "butterfly")

GRID_POINTS = 200

#: The acceptance bar: vectorized over per-point.
MIN_SPEEDUP = 10.0

#: The scalar arm takes seconds a call: the fewest repeats with a median.
REPEATS = 3


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


def _scalar(sides: list[int], procs: list[float]) -> dict[str, np.ndarray]:
    surfaces = {}
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
        surfaces[name] = surface
    return surfaces


def _check(_context, outputs: dict) -> None:
    for name in MACHINES:
        np.testing.assert_array_equal(
            outputs["vectorized"].cycle_time(name), outputs["scalar"][name]
        )


def measure() -> dict:
    """Time the dense sweep both ways and check they agree."""
    sides, procs = _axes()
    spec = SweepSpec.across_catalog(
        sides, procs, machines=MACHINES, stencil=FIVE_POINT, kind=PartitionKind.SQUARE
    )
    timed = compare(
        {"scalar": lambda _: _scalar(sides, procs), "vectorized": lambda _: run_sweep(spec)},
        repeats=REPEATS,
        check=_check,
    )
    return {
        "vectorized_sweep": {
            "grid": [len(sides), len(procs)],
            "machines": list(MACHINES),
            "cells": len(sides) * len(procs) * len(MACHINES),
            "scalar_seconds": timed["scalar"],
            "vectorized_seconds": timed["vectorized"],
            "speedup": timed["scalar"]["median"] / timed["vectorized"]["median"],
        },
        "min_speedup": MIN_SPEEDUP,
    }


def gates(figures: dict) -> list[tuple[str, bool]]:
    speedup = figures["vectorized_sweep"]["speedup"]
    return [(f"vectorized speedup {speedup:.1f}x >= {MIN_SPEEDUP:g}x", speedup >= MIN_SPEEDUP)]


if __name__ == "__main__":
    main("batch", measure, gates)
