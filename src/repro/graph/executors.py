"""Pluggable executors: how a planned sweep graph actually computes.

An :class:`Executor` evaluates one fused leaf — a ``(family, args)``
pair over a 1-D axis — and returns named arrays in the cache's wire
shape (the same dicts :class:`~repro.batch.SweepCache` stores).  The
planner is executor-agnostic: fusion, dedup, and caching happen above
this line, so retargeting the whole analysis layer is one registry
entry.

Two executors ship, each one lookup into the family table
(:mod:`repro.graph.families`), where every family declares both of its
kernels:

* ``numpy`` (default) — the vectorized :mod:`repro.batch` kernels.
* ``oracle`` — the scalar :mod:`repro.core` routines, element by
  element.  Slow by construction; it exists to *prove* retargetability
  and to pin the bit-equality contract: every array the NumPy executor
  produces must equal the oracle's bit for bit, which the graph test
  suite asserts for every registered family.

A CuPy / array-API executor is a third ``register_executor`` call, not
a new code path through analysis, service, and CLI.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.families import family_for

__all__ = [
    "Executor",
    "NumpyExecutor",
    "OracleExecutor",
    "register_executor",
    "get_executor",
    "executor_names",
]


class Executor:
    """Evaluates fused graph leaves; subclass per backend."""

    #: Registry name; also what planner counters report.
    name: str = "abstract"

    def evaluate(
        self, op: str, args: Mapping[str, Any], axis: np.ndarray
    ) -> dict[str, np.ndarray]:
        """One vectorized evaluation of ``op`` over ``axis``.

        Returns the family's named arrays — each 1-D parallel to
        ``axis``, except surfaces, which are 2-D with ``axis`` as their
        first dimension.
        """
        raise NotImplementedError


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], Executor]] = {}


def register_executor(name: str, factory: Callable[[], Executor]) -> None:
    """Expose a backend to the planner (and the CLI's ``--executor``)."""
    _REGISTRY[name] = factory


def get_executor(spec: "str | Executor") -> Executor:
    """Resolve a registry name (or pass an instance through)."""
    if isinstance(spec, Executor):
        return spec
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise InvalidParameterError(
            f"unknown executor {spec!r} (known: {known})"
        ) from None
    return factory()


def executor_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


class NumpyExecutor(Executor):
    """Default backend: each family's vectorized :mod:`repro.batch` kernel.

    Every family is a single in-process broadcast over the fused axis.
    """

    name = "numpy"

    def evaluate(
        self, op: str, args: Mapping[str, Any], axis: np.ndarray
    ) -> dict[str, np.ndarray]:
        family = family_for(op)
        return family.numpy(*family.arguments(args, axis))


class OracleExecutor(Executor):
    """Reference backend: each family's scalar oracle, one element at a time.

    Every output is built from :mod:`repro.core` calls only, so a graph
    executed here is the ground truth the vectorized layer is pinned
    against.
    """

    name = "oracle"

    def evaluate(
        self, op: str, args: Mapping[str, Any], axis: np.ndarray
    ) -> dict[str, np.ndarray]:
        family = family_for(op)
        return family.oracle(*family.arguments(args, axis))


register_executor("numpy", NumpyExecutor)
register_executor("oracle", OracleExecutor)
