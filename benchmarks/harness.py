"""The timing, stamping and reporting path every ``bench_<x>.py`` shares.

A bench script hands :func:`main` a function that measures and a
function that lists its gates.  Every timed figure comes from
:func:`compare`: a warm-up, then repeats in which the arms take turns
going first, each arm summarised as its median, quartiles and sample
count in seconds.  Every ratio or rate a gate reads is taken between
those medians.  :func:`write` records the figures with a :func:`stamp`
of the environment they ran in, as ``results/BENCH_<x>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


def compare(
    arms: dict[str, Callable[[Any], Any]],
    *,
    repeats: int,
    warmup: int = 1,
    setup: Callable[[int], Any] = lambda _round: None,
    check: Callable[[Any, dict[str, Any]], None] | None = None,
) -> dict[str, dict]:
    """Time each arm over ``warmup`` untimed rounds, then ``repeats`` timed ones.

    Round ``i`` calls ``setup(i)`` untimed and passes what it returns to
    every arm, one call each; the arm that goes first moves on by one
    each round, so no arm always runs on a cold or a warm machine.
    ``check(context, outputs)`` then sees every arm's return value,
    untimed.  Returns, per arm, the median and quartiles of its timed
    rounds in seconds, their count ``n`` and the ``warmup`` count.
    """
    names = list(arms)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for i in range(warmup + repeats):
        context = setup(i)
        first = i % len(names)
        outputs = {}
        for name in names[first:] + names[:first]:
            start = perf_counter()
            outputs[name] = arms[name](context)
            elapsed = perf_counter() - start
            if i >= warmup:
                samples[name].append(elapsed)
        if check is not None:
            check(context, outputs)
    timed = {}
    for name, seconds in samples.items():
        q1, median, q3 = np.percentile(seconds, [25, 50, 75])
        timed[name] = {
            "median": float(median), "q1": float(q1), "q3": float(q3),
            "n": len(seconds), "warmup": warmup,
        }
    return timed


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp() -> dict:
    """The environment a bench ran in."""
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def write(name: str, figures: dict) -> Path:
    """Record ``figures`` with the stamp as ``results/BENCH_<name>.json``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"BENCH_{name}.json"
    payload = {"bench": name, "stamp": stamp(), **figures}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(
    name: str, measure: Callable[[], dict], gates: Callable[[dict], list[tuple[str, bool]]]
) -> None:
    """Measure, record, print the report and every gate; exit 1 if one failed.

    ``gates`` maps the figures to one ``(line, held)`` pair per gate.
    """
    figures = measure()
    path = write(name, figures)
    print(path.read_text(), end="")
    results = gates(figures)
    for line, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}: {line}")
    failed = sum(not ok for _, ok in results)
    print("PASS" if not failed else f"{failed} gate(s) failed")
    sys.exit(1 if failed else 0)
