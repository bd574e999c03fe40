"""Analysis extensions: isoefficiency, arbitration, operator grounding.

* **E-ISO** — isoefficiency functions implied by the paper's models:
  to hold efficiency constant, n² must grow like N (hypercube), a bit
  faster (banyan), N³ (bus squares), N⁴ (bus strips).  A forward-looking
  restatement of Table I that became the standard scalability metric.
* **E-ABL-ARBITRATION** — footnote 3's effective-delay assumption under
  two bus disciplines: block-FIFO service reproduces ``V·(c + b·P)``
  exactly; word-level round-robin lands inside the same envelope.
* **E-OPERATORS** — the iteration is grounded in linear algebra: the
  Jacobi fixed point equals the sparse direct solve, the measured
  spectral radius matches ``cos(π h)``, and the fourth-order star
  stencils exceed 1 (hence the damping the solver applies).
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.registry import ExperimentResult, register
from repro.graph import evaluate, nodes
from repro.machines.banyan import BanyanNetwork
from repro.machines.bus import SynchronousBus
from repro.machines.hypercube import Hypercube
from repro.sim.network.bus_sim import (
    BlockRequest,
    sync_bus_phase,
    sync_bus_phase_word_level,
)
from repro.solver.convergence import InfNormCriterion
from repro.solver.jacobi import solve_jacobi
from repro.solver.operators import direct_solve, measured_spectral_radius
from repro.solver.problems import poisson_manufactured
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX, NINE_POINT_STAR
from repro.stencils.perimeter import PartitionKind

__all__ = ["run_isoefficiency", "run_arbitration", "run_operators"]

SQUARE = PartitionKind.SQUARE
STRIP = PartitionKind.STRIP


@register("E-ISO")
def run_isoefficiency(
    processor_counts: tuple[int, ...] = (4, 8, 16, 32, 64),
    target_efficiency: float = 0.5,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-ISO",
        title="Isoefficiency: problem growth needed to hold efficiency",
    )
    configs = [
        ("hypercube / squares", Hypercube(alpha=1e-6, beta=1e-5, packet_words=16), SQUARE, 1.0),
        ("banyan / squares", BanyanNetwork(w=2e-7), SQUARE, 1.0),
        ("sync bus / squares", SynchronousBus(b=6.1e-6, c=0.0), SQUARE, 3.0),
        ("sync bus / strips", SynchronousBus(b=6.1e-6, c=0.0), STRIP, 4.0),
    ]
    rows = []
    for label, machine, kind, expected in configs:
        # One batched efficiency search per configuration covers the
        # whole processor axis (scalar oracle: core.isoefficiency).
        (fit,) = evaluate(
            [
                nodes.isoefficiency_fit(
                    machine, FIVE_POINT, kind, list(processor_counts), target_efficiency
                )
            ]
        )
        rows.append((label, fit.exponent, expected, str(fit.problem_sizes)))
    result.add_table(
        f"n² growth exponent in N at efficiency {target_efficiency:g}",
        ["configuration", "fitted exponent", "asymptotic", "grid sides"],
        rows,
    )
    result.notes.append(
        "Buses need cubically/quartically growing problems to stay "
        "efficient — the isoefficiency restatement of Table I.  The banyan "
        "fit exceeds 1 at small N (its log² correction), approaching 1 as "
        "machines grow."
    )
    return result


@register("E-ABL-ARBITRATION")
def run_arbitration(
    volumes: tuple[int, ...] = (8, 32, 128),
    processor_counts: tuple[int, ...] = (2, 4, 8, 16),
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-ABL-ARBITRATION",
        title="Footnote 3 ablation: bus arbitration disciplines",
    )
    b, c = 2e-6, 1e-6
    rows = []
    for words in volumes:
        for procs in processor_counts:
            reqs = [BlockRequest(p, words, 0.0) for p in range(procs)]
            block = max(sync_bus_phase(reqs, b, c).values())
            word = max(sync_bus_phase_word_level(reqs, b, c).values())
            analytic = words * (c + b * procs)
            rows.append(
                (
                    words,
                    procs,
                    analytic,
                    block,
                    word,
                    block / analytic,
                    word / analytic,
                )
            )
    result.add_table(
        "phase completion by discipline (V words/processor)",
        [
            "V",
            "P",
            "analytic V(c+bP)",
            "block FIFO",
            "word round-robin",
            "block/analytic",
            "word/analytic",
        ],
        rows,
    )
    result.notes.append(
        "Block-FIFO equals the paper's effective-delay model exactly; "
        "word-level round-robin is never slower and approaches the same "
        "envelope — the modelling assumption is discipline-robust."
    )
    return result


@register("E-OPERATORS")
def run_operators(n: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-OPERATORS",
        title="Linear-algebra grounding of the iteration",
    )
    problem = poisson_manufactured()
    rows = []
    for stencil, damping in ((FIVE_POINT, 1.0), (NINE_POINT_BOX, 1.0)):
        direct = direct_solve(stencil, problem, n)
        iterated = solve_jacobi(
            stencil,
            problem,
            n,
            InfNormCriterion(1e-13),
            max_iterations=500_000,
            damping=damping,
        )
        gap = float(np.max(np.abs(direct - iterated.field.interior)))
        rows.append((stencil.name, iterated.iterations, gap))
    result.add_table(
        "Jacobi fixed point vs sparse direct solve",
        ["stencil", "iterations", "max |direct - iterated|"],
        rows,
    )

    rho_rows = []
    for stencil in (FIVE_POINT, NINE_POINT_BOX, NINE_POINT_STAR):
        measured = measured_spectral_radius(stencil, n)
        theory = math.cos(math.pi / (n + 1)) if stencil is FIVE_POINT else float("nan")
        rho_rows.append(
            (
                stencil.name,
                measured,
                theory,
                "plain Jacobi diverges" if measured >= 1.0 else "converges",
            )
        )
    result.add_table(
        "Jacobi iteration spectral radius",
        ["stencil", "measured rho", "theory cos(pi·h)", "consequence"],
        rho_rows,
    )
    result.notes.append(
        "The 9-point star's rho > 1 is why the solver offers damping "
        "(omega = 0.8 restores convergence); the 5-point radius matches "
        "cos(pi/(n+1)) to machine precision."
    )
    return result
