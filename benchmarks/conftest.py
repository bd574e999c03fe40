"""Benchmark harness conventions.

Each gated script (``bench_batch``, ``bench_analysis``, ``bench_service``,
``bench_graph``, ``bench_sim``) runs as ``python benchmarks/bench_<x>.py``,
exits nonzero when its gate fails, and records its measurements under
``results/BENCH_<x>.json``.  Under pytest (``pytest benchmarks/bench_<x>.py
-s``) the same scripts write through the ``results_dir`` fixture.
"""

from __future__ import annotations

import pytest

from repro.report.csvio import default_results_dir


@pytest.fixture(scope="session")
def results_dir():
    return default_results_dir()
