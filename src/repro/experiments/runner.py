"""Run experiments serially for ``repro experiments``.

``repro experiments``            — run everything
``repro experiments E-FIG7``     — run one experiment
``repro experiments --list``     — list ids

Each run prints the textual report, a per-experiment wall-time summary,
and writes the CSV artifacts under ``results/`` (or ``--output``, which
is created if missing).  Reports come back in request order.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from pathlib import Path

# Importing the experiment modules populates the registry.
import repro.experiments.analysis_exp  # noqa: F401
import repro.experiments.extensions  # noqa: F401
import repro.experiments.figure6  # noqa: F401
import repro.experiments.figure7  # noqa: F401
import repro.experiments.figure8  # noqa: F401
import repro.experiments.intext  # noqa: F401
import repro.experiments.ktable  # noqa: F401
import repro.experiments.scaled  # noqa: F401
import repro.experiments.simulation  # noqa: F401
import repro.experiments.solver_exp  # noqa: F401
import repro.experiments.table1  # noqa: F401
from repro.experiments.registry import all_experiments, get_experiment
from repro.report.csvio import default_results_dir
from repro.report.tables import format_table

__all__ = ["ExperimentRun", "run_experiments", "run_from_args"]


@dataclass(frozen=True)
class ExperimentRun:
    """One experiment's outcome: its report, artifacts, and wall time."""

    experiment_id: str
    report: str
    seconds: float
    csv_paths: tuple[Path, ...]


def _select_ids(ids: list[str] | None) -> list[str]:
    """Resolve the id selection, failing on unknown ids *before* any run.

    ``None`` means every registered experiment; an explicit empty list
    selects nothing (it is not a silent run-everything).  Duplicates
    collapse to the first occurrence, so a repeated id neither runs
    twice nor rewrites its CSVs.
    """
    if ids is None:
        return sorted(all_experiments())
    selected: list[str] = []
    for exp_id in ids:
        get_experiment(exp_id)  # raises ExperimentError listing known ids
        if exp_id not in selected:
            selected.append(exp_id)
    return selected


def _run_one(exp_id: str, output_dir: Path) -> ExperimentRun:
    """Run one experiment and write its artifacts."""
    start = time.perf_counter()
    result = get_experiment(exp_id)()
    paths = tuple(result.write_csvs(output_dir))
    return ExperimentRun(
        experiment_id=exp_id,
        report=result.render(),
        seconds=time.perf_counter() - start,
        csv_paths=paths,
    )


def run_experiments(
    output_dir: Path | None = None,
    ids: list[str] | None = None,
) -> list[ExperimentRun]:
    """Run the selected (default: all) experiments in order.

    The output directory (and parents) is created up front so a bad
    ``--output`` cannot fail mid-run after some experiments completed.
    """
    output_dir = output_dir or default_results_dir()
    output_dir.mkdir(parents=True, exist_ok=True)
    return [_run_one(exp_id, output_dir) for exp_id in _select_ids(ids)]


def _timing_table(runs: list[ExperimentRun]) -> str:
    """Per-run wall times and their total."""
    rows = [(r.experiment_id, f"{r.seconds:.3f}") for r in runs]
    rows.append(("total", f"{sum(r.seconds for r in runs):.3f}"))
    return format_table(
        ["experiment", "wall time (s)"], rows, title="Per-experiment wall time"
    )


def run_from_args(args: argparse.Namespace) -> int:
    """List experiments, or run them and print reports plus wall times."""
    if args.list:
        for exp_id in sorted(all_experiments()):
            print(exp_id)
        return 0
    runs = run_experiments(args.output, args.ids or None)
    for run in runs:
        print(run.report)
        print()
    if runs:
        print(_timing_table(runs))
    return 0
