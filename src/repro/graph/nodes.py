"""Lazy sweep-graph nodes: analysis requests as data, not calls.

A :class:`Node` records *what* to compute — an analysis family plus its
parameters and its elementwise evaluation axis — without computing it.
Requests built here form small DAGs (sweep → analysis → reduction) that
:mod:`repro.graph.planner` fuses, dedups against the content-addressed
:class:`~repro.batch.SweepCache`, and dispatches to a pluggable executor
(:mod:`repro.graph.executors`).

Two node classes exist:

* **evaluation leaves** — one request family evaluated over the 1-D
  axis its result is elementwise in (grid sides for allocation curves,
  processor counts for isoefficiency searches, …).  Each family is
  declared once in :mod:`repro.graph.families`, and its builder here is
  derived from that declaration.  Leaves carry the family's
  cache-request tuple, unchanged since the pre-graph analysis layer, so
  every store written since then keeps serving, plus a
  *compatibility* fingerprint: two leaves with equal ``compat`` differ
  only in their axis and may be fused onto one vectorized evaluation
  over the union axis.
* **reductions** — pure array-to-array post-processing (speedup
  ratios, isoefficiency exponent fits) over child nodes.  Reductions
  are cheap and never cached; their children are.

Machines canonicalize through the cache's closed-form bus encoding, so
two presets whose cycle-time surfaces coincide build nodes that dedup
*and* fuse with each other — the same cross-preset sharing the cache
layer already guarantees.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.batch.cache import fingerprint
from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import InvalidParameterError
from repro.graph.families import REQUIRED, family_for, machine_label
from repro.machines.base import Architecture
from repro.stencils.perimeter import PartitionKind
from repro.stencils.stencil import Stencil

__all__ = [
    "Node",
    "build",
    "allocation_curve",
    "max_useful_processors",
    "minimal_problem_size",
    "grid_for_efficiency",
    "sweep",
    "capacity_plan",
    "sim_sweep",
    "sim_validate",
    "speedup_ratio",
    "strip_square_ratio",
    "isoefficiency_fit",
]

#: Reduction ops (uncached, executed by the planner from child results).
REDUCE_OPS = frozenset({"ratio", "isoefficiency_fit"})


@dataclass(frozen=True, eq=False)
class Node:
    """One vertex of a lazy sweep graph.

    Identity is the cache fingerprint of the request (:attr:`key`), not
    object identity — two separately-built nodes for the same request
    are one subgraph to the planner.
    """

    #: Family name ("allocation_curve", "sweep", …) or reduction op.
    op: str
    #: Evaluation arguments for the executors (machine/stencil objects,
    #: scalars) — everything but the axis.
    args: Mapping[str, Any]
    #: The cache-request tuple (the family's), or ``None``
    #: for reductions, which are never cached.
    request: tuple | None = None
    #: Fusion-compatibility fingerprint: nodes sharing it differ only in
    #: their axis.  ``None`` marks a non-fusable node.
    compat: str | None = None
    #: The 1-D axis the result is elementwise over (``None`` for
    #: reductions and non-fusable leaves).
    axis: np.ndarray | None = None
    #: Child nodes (reductions only).
    inputs: tuple["Node", ...] = ()
    #: Human-readable summary for ``--explain`` output.
    detail: str = ""

    @cached_property
    def key(self) -> str:
        """Content-addressed identity: the request fingerprint.

        Reductions fingerprint over their op and child keys instead —
        they have no cache request of their own.
        """
        if self.request is not None:
            return fingerprint(self.request)
        return fingerprint(
            ("graph-reduce", self.op, tuple(child.key for child in self.inputs))
        )

    @property
    def is_reduction(self) -> bool:
        return self.op in REDUCE_OPS

    @property
    def is_fusable(self) -> bool:
        return self.compat is not None and self.axis is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.detail or self.op})"


# --------------------------------------------------------------------------
# Evaluation leaves: one builder per family, derived from its declaration
# --------------------------------------------------------------------------

#: Family op -> the name of its builder in this module.
_PUBLIC: dict[str, str] = {}


def _publish(name: str, op: str) -> Callable[..., Node]:
    family = family_for(op)

    def build(*args: Any, **kwargs: Any) -> Node:
        return family.node(*args, **kwargs)

    build.__name__ = build.__qualname__ = name
    build.__doc__ = family.doc
    build.__signature__ = inspect.Signature(  # type: ignore[attr-defined]
        inspect.Parameter(
            p.name,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=inspect.Parameter.empty if p.default is REQUIRED else p.default,
        )
        for p in family.params
    )
    _PUBLIC[op] = name
    return build


allocation_curve = _publish("allocation_curve", "allocation_curve")
max_useful_processors = _publish("max_useful_processors", "max_useful")
minimal_problem_size = _publish("minimal_problem_size", "n2_min")
grid_for_efficiency = _publish("grid_for_efficiency", "grid_for_efficiency")
capacity_plan = _publish("capacity_plan", "plan")
sim_sweep = _publish("sim_sweep", "sim_sweep")
sim_validate = _publish("sim_validate", "sim_validate")
sweep = _publish("sweep", "sweep")


def build(op: str, args: Mapping[str, Any]) -> Node:
    """One leaf from keyword arguments: the daemon's builder.

    A family published above builds through its module attribute, looked
    up on every call, so whatever is bound to that name (a tracing
    wrapper, say) sees served requests too; any other registered family
    builds through its declaration.
    """
    name = _PUBLIC.get(op)
    return (globals()[name] if name else family_for(op).node)(**args)


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def speedup_ratio(
    machine_a: Architecture,
    machine_b: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
) -> Node:
    """Lazy A-vs-B speedup ratio: one shared-subgraph reduction."""
    a = allocation_curve(machine_a, stencil, kind, grid_sides, t_flop, max_processors)
    b = allocation_curve(machine_b, stencil, kind, grid_sides, t_flop, max_processors)
    return Node(
        op="ratio",
        args={},
        inputs=(a, b),
        detail=f"ratio[{machine_label(machine_a)}/{machine_label(machine_b)}]",
    )


def strip_square_ratio(
    machine: Architecture,
    stencil: Stencil,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
) -> Node:
    """Lazy strip-vs-square ratio over one machine's two allocation curves."""
    st = allocation_curve(
        machine, stencil, PartitionKind.STRIP, grid_sides, t_flop, max_processors
    )
    sq = allocation_curve(
        machine, stencil, PartitionKind.SQUARE, grid_sides, t_flop, max_processors
    )
    return Node(
        op="ratio",
        args={},
        inputs=(st, sq),
        detail=f"ratio[{machine_label(machine)} strip/square]",
    )


def isoefficiency_fit(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    processor_counts: Sequence[int],
    target_efficiency: float = 0.5,
    t_flop: float = DEFAULT_T_FLOP,
) -> Node:
    """Lazy isoefficiency-exponent fit over a grid-for-efficiency leaf."""
    if len(processor_counts) < 2:
        raise InvalidParameterError("need at least two processor counts")
    sides = grid_for_efficiency(
        machine, stencil, kind, processor_counts, target_efficiency, t_flop
    )
    return Node(
        op="isoefficiency_fit",
        args={"processor_counts": tuple(int(p) for p in processor_counts)},
        inputs=(sides,),
        detail=(
            f"isoefficiency_fit[{machine_label(machine)} {stencil.name} "
            f"{kind.value} e={target_efficiency:g}]"
        ),
    )
