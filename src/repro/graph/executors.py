"""Pluggable executors: how a planned sweep graph actually computes.

An :class:`Executor` evaluates one fused leaf — a ``(family, args)``
pair over a 1-D axis — and returns named arrays in the cache's wire
shape (the same dicts :class:`~repro.batch.SweepCache` stores).  The
planner is executor-agnostic: fusion, dedup, and caching happen above
this line, so retargeting the whole analysis layer is one registry
entry.

Two executors ship:

* ``numpy`` (default) — the vectorized :mod:`repro.batch` kernels.
* ``oracle`` — the scalar :mod:`repro.core` routines, element by
  element.  Slow by construction; it exists to *prove* retargetability
  and to pin the bit-equality contract: every array the NumPy executor
  produces must equal the oracle's bit for bit, which the graph test
  suite asserts across all presets, partition kinds, and stencils.

A CuPy / array-API executor is a third ``register_executor`` call, not
a new code path through analysis, service, and CLI.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import InvalidParameterError

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
        ``axis``, except sweep surfaces, which are 2-D with ``axis``
        as their first dimension.
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


# --------------------------------------------------------------------------
# NumPy executor: the vectorized batch kernels
# --------------------------------------------------------------------------


class NumpyExecutor(Executor):
    """Default backend: :mod:`repro.batch`'s vectorized kernels.

    Every family is a single in-process broadcast over the fused axis.
    """

    name = "numpy"

    def evaluate(
        self, op: str, args: Mapping[str, Any], axis: np.ndarray
    ) -> dict[str, np.ndarray]:
        from repro.batch import analysis
        from repro.batch.curves import minimal_grid_side_curve
        from repro.batch.engine import run_sweep

        if op == "allocation_curve":
            return analysis._compute_allocation_curve(
                args["machine"],
                args["stencil"],
                args["kind"],
                axis,
                args["t_flop"],
                args["max_processors"],
                args["integer"],
            ).to_arrays()
        if op == "max_useful":
            return {
                "max_useful": analysis._compute_max_useful(
                    args["machine"], args["stencil"], args["kind"], axis,
                    args["t_flop"],
                )
            }
        if op == "n2_min":
            return {
                "n2_min": analysis._compute_minimal_problem_size(
                    args["machine"], args["stencil"], args["kind"], axis,
                    args["t_flop"],
                )
            }
        if op == "grid_for_efficiency":
            return {
                "sides": analysis._compute_grid_for_efficiency(
                    args["machine"],
                    args["stencil"],
                    args["kind"],
                    axis,
                    args["target_efficiency"],
                    args["t_flop"],
                    args["n_max"],
                )
            }
        if op == "sweep":
            spec = dataclasses.replace(
                args["spec"], grid_sides=tuple(int(v) for v in axis.tolist())
            )
            return dict(run_sweep(spec).cycle_times)
        if op == "plan_grid":
            # The CLI/service capacity-plan constants: one perimeter,
            # the 5-point flop count, the paper's 1 µs flop time.
            return {
                kind.value: minimal_grid_side_curve(
                    args["machine"], 1, 5.0, 1e-6, axis, kind
                )
                for kind in _plan_kinds()
            }
        if op == "sim_sweep":
            from repro.batch.sim import ReplicaBatchSpec, simulate_replicas

            spec = ReplicaBatchSpec.build(
                args["machine"],
                args["stencil"],
                args["kind"],
                args["n"],
                args["n_processors"],
                [int(s) for s in axis.tolist()],
                t_flop=args["t_flop"],
                mode=args["mode"],
                jitter=args["jitter"],
            )
            return simulate_replicas(spec).to_arrays()
        if op == "sim_validate":
            from repro.sim.validate import validation_arrays

            return validation_arrays(
                args["machine"],
                args["stencil"],
                args["n"],
                [int(p) for p in axis.tolist()],
                args["kind"],
                args["t_flop"],
                args["mode"],
            )
        raise InvalidParameterError(f"numpy executor: unknown graph op {op!r}")


# --------------------------------------------------------------------------
# Oracle executor: scalar repro.core, element by element
# --------------------------------------------------------------------------


class OracleExecutor(Executor):
    """Reference backend: the paper's scalar routines, one element at a time.

    Every output is built from :mod:`repro.core` calls only, so a graph
    executed here is the ground truth the vectorized layer is pinned
    against.
    """

    name = "oracle"

    def evaluate(
        self, op: str, args: Mapping[str, Any], axis: np.ndarray
    ) -> dict[str, np.ndarray]:
        from repro.core.allocation import optimize_allocation
        from repro.core.isoefficiency import grid_for_efficiency
        from repro.core.minimal_size import (
            max_useful_processors,
            minimal_grid_side,
            minimal_problem_size,
        )
        from repro.core.parameters import Workload

        if op == "allocation_curve":
            allocations = [
                optimize_allocation(
                    args["machine"],
                    Workload(
                        n=int(n), stencil=args["stencil"], t_flop=args["t_flop"]
                    ),
                    args["kind"],
                    max_processors=args["max_processors"],
                    integer=args["integer"],
                )
                for n in axis
            ]
            return {
                "grid_sides": axis.astype(int),
                "processors": np.array([a.processors for a in allocations]),
                "area": np.array([a.area for a in allocations]),
                "cycle_time": np.array([a.cycle_time for a in allocations]),
                "speedup": np.array([a.speedup for a in allocations]),
                "efficiency": np.array([a.efficiency for a in allocations]),
                "regime": np.asarray([a.regime for a in allocations]),
            }
        if op == "max_useful":
            return {
                "max_useful": np.array(
                    [
                        max_useful_processors(
                            args["machine"],
                            Workload(
                                n=int(n),
                                stencil=args["stencil"],
                                t_flop=args["t_flop"],
                            ),
                            args["kind"],
                        )
                        for n in axis
                    ]
                )
            }
        if op == "n2_min":
            template = Workload(n=2, stencil=args["stencil"], t_flop=args["t_flop"])
            return {
                "n2_min": np.array(
                    [
                        minimal_problem_size(
                            args["machine"], template, args["kind"], int(p)
                        )
                        for p in axis
                    ]
                )
            }
        if op == "grid_for_efficiency":
            template = Workload(n=2, stencil=args["stencil"], t_flop=args["t_flop"])
            return {
                "sides": np.array(
                    [
                        grid_for_efficiency(
                            args["machine"],
                            template,
                            args["kind"],
                            int(p),
                            args["target_efficiency"],
                            n_max=args["n_max"],
                        )
                        for p in axis
                    ],
                    dtype=int,
                )
            }
        if op == "sweep":
            spec = dataclasses.replace(
                args["spec"], grid_sides=tuple(int(v) for v in axis.tolist())
            )
            surfaces: dict[str, np.ndarray] = {}
            for name, machine in spec.machines:
                surface = np.empty(
                    (len(spec.grid_sides), len(spec.processors)), dtype=float
                )
                for i, n in enumerate(spec.grid_sides):
                    w = Workload(n=int(n), stencil=spec.stencil, t_flop=spec.t_flop)
                    for j, p in enumerate(spec.processors):
                        if p == 1:
                            surface[i, j] = w.serial_time()
                        else:
                            surface[i, j] = float(
                                machine.cycle_time(w, spec.kind, w.grid_points / p)
                            )
                surfaces[name] = surface
            return surfaces
        if op == "plan_grid":
            return {
                kind.value: np.array(
                    [
                        minimal_grid_side(args["machine"], 1, 5.0, 1e-6, float(p), kind)
                        for p in axis
                    ]
                )
                for kind in _plan_kinds()
            }
        if op == "sim_sweep":
            from repro.sim.replica import simulate_replica

            replicas = [
                simulate_replica(
                    args["machine"],
                    args["n"],
                    args["n_processors"],
                    args["stencil"],
                    int(seed),
                    kind=args["kind"],
                    t_flop=args["t_flop"],
                    mode=args["mode"],
                    jitter=args["jitter"],
                )
                for seed in axis
            ]
            size = len(replicas)
            return {
                "grid_sides": np.full(size, int(args["n"]), dtype=np.int64),
                "processors": np.full(
                    size, int(args["n_processors"]), dtype=np.int64
                ),
                "seeds": axis.astype(np.uint64),
                "cycle_times": np.array(
                    [r.cycle_time for r in replicas], dtype=np.float64
                ),
            }
        if op == "sim_validate":
            from repro.core.parameters import Workload
            from repro.partitioning.decomposition import decomposition_for
            from repro.sim.iteration import simulate_iteration
            from repro.stencils.perimeter import PartitionKind

            workload = Workload(
                n=int(args["n"]), stencil=args["stencil"], t_flop=args["t_flop"]
            )
            dec_kind = (
                "strip" if args["kind"] is PartitionKind.STRIP else "block"
            )
            return {
                "processors": axis.astype(np.int64),
                "analytic": np.array(
                    [
                        args["machine"].cycle_time_all_processors(
                            workload, args["kind"], int(p)
                        )
                        for p in axis
                    ],
                    dtype=np.float64,
                ),
                "simulated": np.array(
                    [
                        simulate_iteration(
                            args["machine"],
                            decomposition_for(int(args["n"]), int(p), dec_kind),
                            args["stencil"],
                            args["t_flop"],
                            mode=args["mode"],
                        ).cycle_time
                        for p in axis
                    ],
                    dtype=np.float64,
                ),
            }
        raise InvalidParameterError(f"oracle executor: unknown graph op {op!r}")


def _plan_kinds() -> tuple:
    from repro.stencils.perimeter import PartitionKind

    return (PartitionKind.STRIP, PartitionKind.SQUARE)


register_executor("numpy", NumpyExecutor)
register_executor("oracle", OracleExecutor)
