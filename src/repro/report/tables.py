"""Plain-text table rendering for experiment reports.

Reports print the same rows the paper's tables report; this module
keeps the formatting in one place so every experiment output looks the
same and diffs cleanly from run to run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_kv_block"]


def _render_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table with a header rule.

    >>> print(format_table(["n", "speedup"], [[256, 10.67]]))
    n    speedup
    ---  -------
    256  10.67
    """
    str_rows = [[_render_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def format_kv_block(pairs: dict[str, object], title: str | None = None) -> str:
    """Render a key/value block (experiment parameters, summaries)."""
    width = max((len(k) for k in pairs), default=0)
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    for key, value in pairs.items():
        lines.append(f"{key.ljust(width)} : {_render_cell(value, 6)}")
    return "\n".join(lines)
