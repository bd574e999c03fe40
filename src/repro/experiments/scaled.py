"""E-SCAL and E-EXTREME: scaled speedup and extremal allocation.

* **E-SCAL** (Sections 4 and 7): grow the machine with the problem,
  keeping ``F`` grid points per processor.  Hypercube cycle time is a
  constant — speedup exactly linear in n²; the banyan pays a growing
  ``log`` term — speedup Θ(n²/log n).
* **E-EXTREME** (Sections 4, 5, 7): on hypercube/mesh/banyan machines
  ``t_cycle`` is monotone in the processor count, so the optimum is
  extremal — all processors, or one.  The experiment sweeps
  intermediate counts and confirms no interior point ever wins.
"""

from __future__ import annotations

import numpy as np

from repro.batch import (
    SweepSpec,
    run_sweep,
    scaled_speedup_banyan_curve,
    scaled_speedup_hypercube_curve,
)
from repro.core.scaling import fit_scaling_exponent
from repro.experiments.registry import ExperimentResult, register
from repro.machines.banyan import BanyanNetwork
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import MeshGrid
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

# The scalar oracles (repro.core.scaling / repro.core.cycle_time) remain
# the reference; tests/batch pins these curves against them bit for bit.

__all__ = ["run_scaled", "run_extremal"]


@register("E-SCAL")
def run_scaled(points_per_processor: float = 64.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-SCAL",
        title="Scaled speedup with fixed points per processor (Sections 4, 7)",
    )
    cube = Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)
    net = BanyanNetwork(w=2e-7)
    t_flop = 1e-6
    grid_sides = [2**e for e in range(6, 14)]
    # One batched call per architecture sweeps the whole size axis.
    cube_s = [
        v.item()
        for v in scaled_speedup_hypercube_curve(
            cube, FIVE_POINT, t_flop, grid_sides, points_per_processor
        )
    ]
    net_s = [
        v.item()
        for v in scaled_speedup_banyan_curve(
            net, FIVE_POINT, t_flop, grid_sides, points_per_processor
        )
    ]
    rows = [
        (n, n * n, n * n / points_per_processor, cube_s[i], net_s[i], cube_s[i] / net_s[i])
        for i, n in enumerate(grid_sides)
    ]
    result.add_table(
        f"scaled speedup, F = {points_per_processor:g} points/processor",
        ["n", "n^2", "processors", "hypercube", "banyan", "cube/banyan"],
        rows,
    )
    n2 = [float(n) * n for n in grid_sides]
    fits = [
        ("hypercube", fit_scaling_exponent(n2, cube_s).exponent, 1.0),
        ("banyan", fit_scaling_exponent(n2, net_s).exponent, 1.0),
    ]
    result.add_table(
        "fitted exponents (banyan approaches 1 from below: the log factor)",
        ["architecture", "fitted", "asymptotic"],
        fits,
    )
    # Linearity check: hypercube speedup per n² must be constant.
    per_n2 = np.array(cube_s) / np.array(n2)
    result.add_table(
        "hypercube speedup / n² (constant = exactly linear)",
        ["min", "max", "spread"],
        [
            (
                float(per_n2.min()),
                float(per_n2.max()),
                float((per_n2.max() - per_n2.min()) / per_n2.mean()),
            )
        ],
    )
    result.notes.append(
        "The cube/banyan gap is exactly the network's log2(N) read factor; "
        "'for grid sizes used in practice [it] will not depend on the log "
        "factor, but on the relative speeds of the communication networks'."
    )
    return result


@register("E-EXTREME")
def run_extremal() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-EXTREME",
        title="Extremal allocation on hypercube/mesh/banyan (Sections 4, 5, 7)",
    )
    machines = [
        ("hypercube", Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)),
        ("mesh", MeshGrid(alpha=1e-6, beta=1e-5, packet_words=16)),
        ("banyan", BanyanNetwork(w=2e-7)),
        ("hypercube (slow net)", Hypercube(alpha=5e-4, beta=5e-3, packet_words=16)),
    ]
    processors = np.arange(1, 65, dtype=float)
    # One sweep over (n=64, P in [1, 64]) covers all four machines; the
    # per-machine argmin over the processor axis is then a reduction.
    spec = SweepSpec(
        grid_sides=(64,),
        processors=tuple(processors),
        machines=tuple(machines),
        stencil=FIVE_POINT,
        kind=PartitionKind.SQUARE,
    )
    surfaces = run_sweep(spec)
    rows = []
    for name, _machine in machines:
        times = surfaces.cycle_time(name)[0]
        best_idx = int(np.argmin(times))
        best_p = int(processors[best_idx])
        extremal = best_p in (1, int(processors[-1]))
        rows.append(
            (
                name,
                best_p,
                "yes" if extremal else "NO — interior optimum!",
                float(times[0] / times[best_idx]),
            )
        )
    result.add_table(
        "best processor count over P in [1, 64], n=64 squares",
        ["machine", "best P", "extremal?", "speedup at best"],
        rows,
    )
    result.notes.append(
        "Nearest-neighbour communication keeps t_cycle monotone in P, so "
        "spread maximally or not at all; the slow-network hypercube shows "
        "the 'one processor' extreme, not an interior compromise."
    )
    return result
