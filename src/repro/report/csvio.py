"""CSV output for experiment artifacts.

Every experiment writes its series as CSV next to the textual report so
downstream tooling (or an actual plotting environment) can regenerate
the paper's figures pixel-for-pixel.

Artifact filenames are *slugs*: table names contain em-dashes,
superscripts, parentheses, and colons (they are written for humans),
but the files they map to are safe ASCII (``[a-z0-9._-]``) so they
survive shells, archives, and case-insensitive filesystems.
"""

from __future__ import annotations

import csv
import re
import unicodedata
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "write_csv",
    "default_results_dir",
    "slugify",
    "csv_filename",
]

#: Dash-like codepoints mapped to plain "-" before the ASCII fold (the
#: NFKD pass drops them instead of translating them).
_DASHES = dict.fromkeys(("–", "—", "−"), "-")


def slugify(name: str) -> str:
    """Fold a human-readable table name to a safe ASCII file slug.

    Lowercases, maps Unicode dashes to ``-`` and compatibility forms to
    ASCII (``n²`` → ``n2``), turns whitespace into ``_`` and ``/`` into
    ``-``, and drops everything else outside ``[a-z0-9._-]``.  Runs of
    separators collapse so near-identical names stay distinguishable
    but never produce ``__`` or ``--`` noise.
    """
    out = name.lower()
    for dash, repl in _DASHES.items():
        out = out.replace(dash, repl)
    out = unicodedata.normalize("NFKD", out)
    out = out.encode("ascii", "ignore").decode()
    out = out.replace("/", "-")
    out = re.sub(r"\s+", "_", out)
    out = re.sub(r"[^a-z0-9._-]", "", out)
    out = re.sub(r"_+", "_", out)
    out = re.sub(r"-+", "-", out)
    out = out.strip("._-")
    return out or "table"


def csv_filename(experiment_id: str, table_name: str) -> str:
    """Canonical artifact filename for one experiment table."""
    return f"{slugify(experiment_id)}_{slugify(table_name)}.csv"


def default_results_dir() -> Path:
    """``results/`` under the repository root (created on demand)."""
    root = Path(__file__).resolve().parents[3]
    out = root / "results"
    out.mkdir(exist_ok=True)
    return out


def write_csv(
    path: Path | str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write rows to ``path``; returns the resolved path.

    Parent directories are created; cells are written as-is (csv module
    handles quoting), so pass floats/ints, not pre-formatted strings,
    to keep full precision in the artifact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        count = 0
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row {count} has {len(row)} cells, expected {len(headers)}"
                )
            writer.writerow(row)
            count += 1
    return path.resolve()
