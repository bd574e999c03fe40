"""E-FIG6: working-rectangle approximation errors (Figure 6a/6b).

For a 256×256 grid and every even target area in [1024, 16384]
(decompositions onto 4–64 processors), pick the closest working
rectangle and record the relative error in area (6a) and perimeter
(6b).  The paper reports errors "usually less than 3% for area and
less than 6% for perimeter", with similar results at 128, 512 and 1024
— all four grids are swept here.  The 256×256 sweep is also kept
sample by sample (the literal bar-graph data) as the ``series n=256``
table; the report names its CSV instead of printing its rows.
"""

from __future__ import annotations

import numpy as np

from repro.batch import rectangle_error_curves
from repro.experiments.registry import ExperimentResult, register

__all__ = ["run_figure6"]


def _grid_summary(n: int, lo: int, hi: int, step: int = 2):
    # The whole area sweep resolves in one batched searchsorted pass.
    curve = rectangle_error_curves(n, range(lo, hi + 1, step))
    return curve, curve.area_errors, curve.perimeter_errors


@register("E-FIG6")
def run_figure6() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E-FIG6",
        title="Working-rectangle approximation errors (Figure 6)",
    )
    summary_rows = []
    for n in (128, 256, 512, 1024):
        # The paper sweeps 4..64 processors on the 256 grid; scale the
        # area window with n^2 to keep the same processor range.
        lo = n * n // 64
        hi = n * n // 4
        errors, area_err, perim_err = _grid_summary(n, lo, hi, step=2)
        summary_rows.append(
            (
                n,
                len(errors),
                float(np.mean(area_err)),
                float(np.max(area_err)),
                float(np.mean(area_err <= 0.03)),
                float(np.mean(perim_err)),
                float(np.max(perim_err)),
                float(np.mean(perim_err <= 0.06)),
            )
        )
    result.add_table(
        "summary",
        [
            "grid n",
            "areas",
            "mean area err",
            "max area err",
            "frac area<=3%",
            "mean perim err",
            "max perim err",
            "frac perim<=6%",
        ],
        summary_rows,
    )
    curve, _, _ = _grid_summary(256, 1024, 16384, step=2)
    series_rows = [
        (
            int(curve.target_areas[i]),
            int(curve.heights[i]),
            int(curve.widths[i]),
            curve.area_errors[i].item(),
            curve.perimeter_errors[i].item(),
        )
        for i in range(len(curve))
    ]
    result.add_table(
        "series n=256",
        ["target area", "height", "width", "area err", "perimeter err"],
        series_rows,
    )
    result.notes.append(
        "Paper: errors 'usually less than 3% for area and less than 6% for "
        "perimeter' on the 256x256 grid, similar at 128/512/1024."
    )
    return result
