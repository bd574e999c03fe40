"""E-FIG7: minimal problem size gainfully using all N processors.

Figure 7 plots ``log2(n²_min)`` versus processor count for three
bus configurations — (a) synchronous strips, (b) asynchronous strips,
(c) synchronous squares — for 5-point and 9-point stencils.  The paper
states the anchor: "a 256×256 grid with square partitions and a
5-point stencil should be solved on 1 to 14 processors; the same grid
with a 9-point stencil should use 1 to 22 processors", which pins the
bus constants of :data:`repro.machines.catalog.PAPER_BUS`.

The closed form is checked against the generic optimizer (binary
search on ``n`` for the smallest grid whose optimal allocation spreads
over all N) for every configuration and N <= 8 by
``tests/core/test_minimal_size.py``, not at run time.
"""

from __future__ import annotations

import math

from repro.batch import minimal_grid_side_curve
from repro.core.minimal_size import max_useful_processors
from repro.core.parameters import Workload
from repro.experiments.registry import ExperimentResult, register
from repro.machines.catalog import PAPER_BUS, PAPER_BUS_ASYNC
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

__all__ = ["run_figure7"]

_CONFIGS = (
    ("(a) sync strip", PAPER_BUS, PartitionKind.STRIP),
    ("(b) async strip", PAPER_BUS_ASYNC, PartitionKind.STRIP),
    ("(c) sync square", PAPER_BUS, PartitionKind.SQUARE),
    ("(d) async square", PAPER_BUS_ASYNC, PartitionKind.SQUARE),
)


@register("E-FIG7")
def run_figure7(
    processor_counts: tuple[int, ...] = tuple(range(2, 25, 2)),
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-FIG7",
        title="Minimal problem size using all N processors (Figure 7)",
    )
    for stencil in (FIVE_POINT, NINE_POINT_BOX):
        template = Workload(n=2, stencil=stencil)
        # One batched call per configuration sweeps the whole N axis.
        n_mins = {
            label: minimal_grid_side_curve(
                machine,
                template.k(kind),
                stencil.flops_per_point,
                template.t_flop,
                processor_counts,
                kind,
            )
            for label, machine, kind in _CONFIGS
        }
        rows = []
        for i, n_procs in enumerate(processor_counts):
            row: list[object] = [n_procs]
            for label, _, _ in _CONFIGS:
                n_min = n_mins[label][i].item()
                row.append(math.log2(max(n_min, 1.0) ** 2))
            rows.append(tuple(row))
        result.add_table(
            f"log2(n^2_min) — {stencil.name}",
            ["N"] + [label for label, _, _ in _CONFIGS],
            rows,
        )

    anchor_rows = []
    for stencil in (FIVE_POINT, NINE_POINT_BOX):
        w = Workload(n=256, stencil=stencil)
        anchor_rows.append(
            (
                stencil.name,
                max_useful_processors(PAPER_BUS, w, PartitionKind.SQUARE),
                14 if stencil is FIVE_POINT else 22,
            )
        )
    result.add_table(
        "Section 6.1 anchor: max useful processors on 256x256 squares",
        ["stencil", "computed", "paper"],
        anchor_rows,
    )
    result.notes.append(
        "Strips need n_min ∝ N²; squares only ∝ N^(3/2) — squares tolerate "
        "more processors at the same problem size (inequalities (4) and (6))."
    )
    result.notes.append(
        "Async strips halve the strip threshold (factor 2 vs 4); async and "
        "sync squares coincide because they share the optimal side."
    )
    return result
