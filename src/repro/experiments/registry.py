"""Experiment infrastructure: results, registration, rendering.

Every paper artifact (figure, table, in-text claim) is an *experiment*
keyed by the id used in DESIGN.md's per-experiment index (``E-FIG7``,
``E-TAB1``, …).  An experiment is a function returning an
:class:`ExperimentResult`: named tables of rows plus free-form notes.
The same result object drives the textual report, the CSV artifacts,
and the tier-1 anchor tests, so there is exactly one source of truth
per artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.report.csvio import csv_filename, write_csv
from repro.report.tables import format_table

__all__ = ["ExperimentTable", "ExperimentResult", "register", "get_experiment", "all_experiments"]

#: Longest table the textual report prints row by row; every table of
#: a paper figure fits, a per-sample series does not.
MAX_RENDERED_ROWS = 100


@dataclass(frozen=True)
class ExperimentTable:
    """One named table of an experiment's output."""

    name: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def column(self, header: str) -> list[object]:
        """Extract one column by header name (anchor tests use this)."""
        try:
            idx = self.headers.index(header)
        except ValueError:
            raise ExperimentError(
                f"table {self.name!r} has no column {header!r}; "
                f"columns: {list(self.headers)}"
            ) from None
        return [row[idx] for row in self.rows]


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    tables: list[ExperimentTable] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_table(
        self,
        name: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> ExperimentTable:
        table = ExperimentTable(
            name=name,
            headers=tuple(headers),
            rows=tuple(tuple(r) for r in rows),
        )
        self.tables.append(table)
        return table

    def table(self, name: str) -> ExperimentTable:
        for t in self.tables:
            if t.name == name:
                return t
        raise ExperimentError(
            f"{self.experiment_id} has no table {name!r}; "
            f"tables: {[t.name for t in self.tables]}"
        )

    def render(self) -> str:
        """Full textual report (what ``repro experiments`` prints).

        A table longer than :data:`MAX_RENDERED_ROWS` is one line naming
        its row count and CSV artifact; its rows live only in the CSV.
        """
        parts = [f"[{self.experiment_id}] {self.title}"]
        for table in self.tables:
            parts.append("")
            if len(table.rows) > MAX_RENDERED_ROWS:
                csv_name = csv_filename(self.experiment_id, table.name)
                parts.append(f"{table.name}: {len(table.rows)} rows, in {csv_name}")
            else:
                parts.append(format_table(table.headers, table.rows, title=table.name))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def write_csvs(self, directory: Path | str) -> list[Path]:
        """One CSV per table, named ``<id>_<table>.csv`` (ASCII slugs).

        Table names are slugified (:func:`repro.report.csvio.slugify`)
        so artifacts carry no em-dashes, parentheses, or colons.
        """
        out = []
        for table in self.tables:
            path = Path(directory) / csv_filename(self.experiment_id, table.name)
            out.append(write_csv(path, table.headers, table.rows))
        return out


_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator: register an experiment runner under its DESIGN.md id."""

    def deco(fn: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id}")
        _REGISTRY[experiment_id] = fn
        fn.experiment_id = experiment_id  # type: ignore[attr-defined]
        return fn

    return deco


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def all_experiments() -> dict[str, Callable[..., ExperimentResult]]:
    return dict(_REGISTRY)
