"""Experiment harness regenerating every figure and table of the paper.

Importing this package registers all experiments; use
:func:`repro.experiments.get_experiment`, or run them with
``repro experiments``.
"""

import repro.experiments.analysis_exp  # noqa: F401
import repro.experiments.extensions  # noqa: F401
import repro.experiments.figure6  # noqa: F401  (registration side effect)
import repro.experiments.figure7  # noqa: F401
import repro.experiments.figure8  # noqa: F401
import repro.experiments.intext  # noqa: F401
import repro.experiments.ktable  # noqa: F401
import repro.experiments.scaled  # noqa: F401
import repro.experiments.simulation  # noqa: F401
import repro.experiments.solver_exp  # noqa: F401
import repro.experiments.table1  # noqa: F401
from repro.experiments.registry import (
    ExperimentResult,
    ExperimentTable,
    all_experiments,
    get_experiment,
)

__all__ = [
    "ExperimentResult",
    "ExperimentTable",
    "all_experiments",
    "get_experiment",
]
