"""Lazy sweep graphs: build analysis requests as DAGs, then plan them.

The graph layer is the one way to evaluate a request family offline
(:mod:`repro.graph.families`), and the daemon, the CLI and the
experiments all route through it: build :class:`Node` objects (one
builder per family in :mod:`repro.graph.nodes`), hand them to
:func:`plan` or :func:`evaluate`, and the planner dedups shared
subgraphs against the content-addressed cache, fuses compatible
siblings onto shared vectorized evaluations, and dispatches to a
registered executor (NumPy by default, the scalar :mod:`repro.core`
oracle for reference).  On the wire the same family travels as one
JSON request, ``family_for(kind).payload(...)``.

>>> from repro.graph import nodes, evaluate
>>> from repro.machines.catalog import PAPER_BUS, FLEX32
>>> from repro.stencils.library import FIVE_POINT
>>> from repro.stencils.perimeter import PartitionKind
>>> a = nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, range(64, 256))
>>> b = nodes.allocation_curve(FLEX32, FIVE_POINT, PartitionKind.SQUARE, range(64, 256))
>>> curves = evaluate([a, b])
"""

from repro.graph import nodes
from repro.graph.executors import (
    Executor,
    NumpyExecutor,
    OracleExecutor,
    executor_names,
    get_executor,
    register_executor,
)
from repro.graph.nodes import Node
from repro.graph.planner import Plan, PlannedNode, evaluate, plan

__all__ = [
    "Node",
    "nodes",
    "Plan",
    "PlannedNode",
    "plan",
    "evaluate",
    "Executor",
    "NumpyExecutor",
    "OracleExecutor",
    "register_executor",
    "get_executor",
    "executor_names",
]
