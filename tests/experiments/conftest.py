"""One run of each experiment per session, handed out as private copies."""

from __future__ import annotations

import copy

import pytest

import repro.experiments  # noqa: F401 — registers everything
from repro.experiments.registry import ExperimentResult, get_experiment


@pytest.fixture(scope="session")
def _experiment_results() -> dict[str, ExperimentResult]:
    return {}


@pytest.fixture
def experiment(_experiment_results):
    """``experiment(exp_id)``: that experiment's result, computed once.

    Each call returns a deep copy, so a test that alters its result
    cannot change what the next test reads.
    """

    def run(exp_id: str) -> ExperimentResult:
        if exp_id not in _experiment_results:
            _experiment_results[exp_id] = get_experiment(exp_id)()
        return copy.deepcopy(_experiment_results[exp_id])

    return run
