"""E-SOLVE: the solver substrate grounds the model's constants.

Not a paper figure, but the base the paper stands on: the model
problem (Section 3) actually solved.  Verifies (a) discretization
error falls as h² for the 5-point scheme, (b) partitioned execution is
bit-identical to sequential, (c) measured halo volumes match the
model's ``2·k·n`` / ``4·k·s`` volume formulas, and (d) the convergence
check's extra computation is the ~50% of update cost the paper quotes
for small stencils.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import Workload
from repro.experiments.registry import ExperimentResult, register
from repro.partitioning.decomposition import decomposition_for
from repro.solver.convergence import InfNormCriterion, convergence_check_flops
from repro.solver.jacobi import solve_jacobi
from repro.solver.parallel import ParallelJacobi, solve_jacobi_parallel
from repro.solver.problems import poisson_manufactured
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

__all__ = ["run_solver"]


@register("E-SOLVE")
def run_solver() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-SOLVE",
        title="Solver substrate: convergence order, parallel equivalence, volumes",
    )
    problem = poisson_manufactured()

    rows = []
    prev_err = None
    for n in (8, 16, 32, 64):
        sol = solve_jacobi(
            FIVE_POINT, problem, n, InfNormCriterion(1e-12), max_iterations=500_000
        )
        err = float(np.max(np.abs(sol.field.interior - problem.exact_grid(n))))
        order = float(np.log2(prev_err / err)) if prev_err else float("nan")
        rows.append((n, sol.iterations, err, order))
        prev_err = err
    result.add_table(
        "5-point discretization error (order -> 2.0)",
        ["n", "Jacobi iterations", "max error", "observed order"],
        rows,
    )

    eq_rows = []
    seq = solve_jacobi(
        FIVE_POINT, problem, 32, InfNormCriterion(1e-10), max_iterations=200_000
    )
    for procs, kind in ((4, "strip"), (6, "block"), (9, "block")):
        dec = decomposition_for(32, procs, kind)
        par = solve_jacobi_parallel(
            FIVE_POINT, problem, dec, InfNormCriterion(1e-10), max_iterations=200_000
        )
        identical = bool(
            np.array_equal(seq.field.interior, par.field.interior)
        )
        eq_rows.append((kind, procs, par.iterations, "yes" if identical else "NO"))
    result.add_table(
        "parallel vs sequential (bit-identical iterates)",
        ["decomposition", "processors", "iterations", "identical"],
        eq_rows,
    )

    vol_rows = []
    for n, procs, kind, partkind in (
        (64, 4, "strip", PartitionKind.STRIP),
        (64, 16, "block", PartitionKind.SQUARE),
    ):
        dec = decomposition_for(n, procs, kind)
        runner = ParallelJacobi(FIVE_POINT, problem, dec)
        measured = max(runner.read_volume_per_rank())
        w = Workload(n=n, stencil=FIVE_POINT)
        k = w.k(partkind)
        if partkind is PartitionKind.STRIP:
            model = 2.0 * k * n
        else:
            model = 4.0 * k * (n * n / procs) ** 0.5
        vol_rows.append((kind, procs, measured, model, measured / model))
    result.add_table(
        "measured halo read volume vs model (interior partitions)",
        ["decomposition", "processors", "measured max words", "model words", "ratio"],
        vol_rows,
    )

    check_rows = []
    for stencil in (FIVE_POINT, NINE_POINT_BOX):
        area = 1024.0
        update = stencil.flops_per_point * area
        check = convergence_check_flops(Workload(n=64, stencil=stencil), area)
        check_rows.append((stencil.name, update, check, check / update))
    result.add_table(
        "convergence-check cost vs update cost (paper: ~50% for small stencils)",
        ["stencil", "update flops", "check flops", "ratio"],
        check_rows,
    )
    return result
