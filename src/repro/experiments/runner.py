"""Run experiments from the command line.

``python -m repro.experiments.runner``            — run everything
``python -m repro.experiments.runner E-FIG7``     — run one experiment
``python -m repro.experiments.runner --list``     — list ids
``python -m repro.experiments.runner --jobs 4``   — run concurrently

Each run prints the textual report, a per-experiment wall-time summary,
and writes the CSV artifacts under ``results/`` (or ``--output``, which
is created if missing).  Independent experiments run concurrently in a
process pool when ``--jobs > 1``; reports always come back in request
order.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
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
from repro.errors import ExperimentError, InvalidParameterError
from repro.experiments.registry import all_experiments, get_experiment
from repro.report.csvio import default_results_dir
from repro.report.tables import format_table

__all__ = ["ExperimentRun", "run_experiments", "run_all", "run_from_args", "main"]


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
    collapse to the first occurrence — two workers must never write the
    same CSV paths concurrently.
    """
    if ids is None:
        return sorted(all_experiments())
    selected: list[str] = []
    for exp_id in ids:
        get_experiment(exp_id)  # raises ExperimentError listing known ids
        if exp_id not in selected:
            selected.append(exp_id)
    return selected


def _run_one(exp_id: str, output_dir: str) -> ExperimentRun:
    """Worker body: run one experiment and write its artifacts.

    Module-level so a process pool can pickle it; re-importing this
    module in a worker repopulates the registry.
    """
    start = time.perf_counter()
    result = get_experiment(exp_id)()
    paths = tuple(result.write_csvs(Path(output_dir)))
    return ExperimentRun(
        experiment_id=exp_id,
        report=result.render(),
        seconds=time.perf_counter() - start,
        csv_paths=paths,
    )


def _run_one_pooled(exp_id: str, output_dir: str) -> ExperimentRun:
    """Pool wrapper: convert a worker crash into a picklable error.

    A raw exception crossing the process boundary keeps only what
    pickles — often just a bare repr, sometimes nothing at all when the
    exception type itself fails to round-trip — and the traceback never
    survives.  Capturing ``format_exc`` *in the worker* and re-raising
    an :class:`ExperimentError` carrying the experiment id plus the full
    traceback text makes the parent's failure report actionable.
    """
    try:
        return _run_one(exp_id, output_dir)
    except Exception:
        raise ExperimentError(
            f"experiment {exp_id} failed in a worker process\n"
            f"{traceback.format_exc()}"
        ) from None


def run_experiments(
    output_dir: Path | None = None,
    ids: list[str] | None = None,
    jobs: int = 1,
) -> list[ExperimentRun]:
    """Run the selected (default: all) experiments; returns their outcomes.

    ``jobs > 1`` distributes the experiments over a process pool —
    each experiment is independent, so they parallelize cleanly; results
    are returned in request order regardless of completion order.  The
    output directory (and parents) is created up front so a bad
    ``--output`` cannot fail mid-run after some experiments completed.
    A worker failure surfaces as :class:`ExperimentError` naming the
    experiment and carrying the worker's full traceback text.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    output_dir = output_dir or default_results_dir()
    output_dir.mkdir(parents=True, exist_ok=True)
    selected = _select_ids(ids)
    if not selected:
        return []
    if jobs == 1 or len(selected) == 1:
        return [_run_one(exp_id, str(output_dir)) for exp_id in selected]
    with ProcessPoolExecutor(max_workers=min(jobs, len(selected))) as pool:
        futures = [
            pool.submit(_run_one_pooled, exp_id, str(output_dir))
            for exp_id in selected
        ]
        return [f.result() for f in futures]


def run_all(
    output_dir: Path | None = None,
    ids: list[str] | None = None,
    jobs: int = 1,
) -> list[str]:
    """Back-compat wrapper over :func:`run_experiments`: reports only."""
    return [run.report for run in run_experiments(output_dir, ids, jobs)]


def _timing_table(runs: list[ExperimentRun], elapsed: float) -> str:
    """Per-run times plus the true elapsed wall clock.

    Under ``--jobs > 1`` the per-run spans overlap, so their sum
    exceeds the elapsed time — both are reported, labelled apart.
    """
    rows = [(r.experiment_id, f"{r.seconds:.3f}") for r in runs]
    rows.append(("sum of runs", f"{sum(r.seconds for r in runs):.3f}"))
    rows.append(("elapsed", f"{elapsed:.3f}"))
    return format_table(
        ["experiment", "wall time (s)"], rows, title="Per-experiment wall time"
    )


def run_from_args(args: argparse.Namespace) -> int:
    """List experiments, or run them and print reports plus wall times.

    The one flow behind both ``repro experiments`` and ``python -m
    repro.experiments.runner``; both parse the flags declared by
    :func:`repro.cli.experiments_arguments`.
    """
    if args.list:
        for exp_id in sorted(all_experiments()):
            print(exp_id)
        return 0
    start = time.perf_counter()
    runs = run_experiments(args.output, args.ids or None, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    for run in runs:
        print(run.report)
        print()
    if runs:
        print(_timing_table(runs, elapsed))
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.cli import experiments_arguments

    parser = argparse.ArgumentParser(
        description=__doc__, parents=[experiments_arguments()]
    )
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
