"""Wire format for the sweep service: JSON requests and envelopes.

Requests are flat JSON objects with a ``kind`` discriminator; results
are named ``np.ndarray`` mappings — the same shape the analysis layer's
curve objects serialize to, and the same values the content-addressed
cache stores.  Results travel as binary frames
(:mod:`repro.service.frame`): raw little-endian bytes plus dtype and
shape, so every float crosses the wire bit for bit.  This module builds
and validates the JSON side: request payloads, and the envelopes for
errors, ``/healthz`` and ``/v1/stats``.

Machines and stencils are referenced *by catalog name*.  The server
resolves them against the same :data:`repro.machines.catalog.DEFAULT_MACHINES`
and stencil library the CLI uses, so a request names exactly what the
offline command line can name — nothing arbitrary is unpickled from
the network.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import InvalidParameterError
from repro.machines.base import Architecture
from repro.machines.catalog import DEFAULT_MACHINES
from repro.stencils.library import Stencil
from repro.stencils.library import by_name as stencil_by_name
from repro.stencils.perimeter import PartitionKind

__all__ = [
    "json_body",
    "error_body",
    "allocation_payload",
    "plan_payload",
    "sweep_payload",
    "sim_sweep_payload",
    "sim_validate_payload",
    "parse_allocation",
    "parse_plan",
    "parse_sweep",
    "parse_sim_sweep",
    "parse_sim_validate",
]


# --------------------------------------------------------------------------
# Response envelopes (server side)
# --------------------------------------------------------------------------


def json_body(payload: Mapping[str, Any]) -> bytes:
    """One JSON response body, canonically serialized."""
    return json.dumps(payload).encode("utf-8")


def error_body(message: str, status: str = "error") -> bytes:
    """The service's error envelope: ``{"status": "error", "error": …}``."""
    return json_body({"status": status, "error": message})


# --------------------------------------------------------------------------
# Request construction (client side)
# --------------------------------------------------------------------------


def allocation_payload(
    machine: str,
    stencil: str,
    kind: str,
    grid_sides: Any,
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
    integer: bool = False,
) -> dict[str, Any]:
    return {
        "kind": "allocation_curve",
        "machine": machine,
        "stencil": stencil,
        "partition": kind,
        "grid_sides": list(map(int, grid_sides)),
        "t_flop": float(t_flop),
        "max_processors": None if max_processors is None else float(max_processors),
        "integer": bool(integer),
    }


def plan_payload(machine: str, n: int, grid: Any | None = None) -> dict[str, Any]:
    return {
        "kind": "plan",
        "machine": machine,
        "n": int(n),
        "grid": None if grid is None else [int(p) for p in grid],
    }


def sweep_payload(
    grid_sides: Any,
    processors: Any,
    machines: Any,
    stencil: str = "5-point",
    kind: str = "square",
    t_flop: float = DEFAULT_T_FLOP,
) -> dict[str, Any]:
    return {
        "kind": "sweep",
        "grid_sides": list(map(int, grid_sides)),
        "processors": [float(p) for p in processors],
        "machines": list(machines),
        "stencil": stencil,
        "partition": kind,
        "t_flop": float(t_flop),
    }


def sim_sweep_payload(
    machine: str,
    n: int,
    n_processors: int,
    stencil: str = "5-point",
    kind: str = "square",
    *,
    seeds: Any | None = None,
    replicas: int | None = None,
    seed: int = 0,
    t_flop: float = DEFAULT_T_FLOP,
    mode: str = "barrier",
    jitter: float = 0.0,
) -> dict[str, Any]:
    """A batched replica-simulation request.

    Randomness travels either as an explicit ``seeds`` list or as the
    ``replicas`` + ``seed`` shorthand (consecutive seeds starting at
    ``seed``) — the counter RNG has no other state, so the request
    names the whole ensemble deterministically.
    """
    payload: dict[str, Any] = {
        "kind": "sim_sweep",
        "machine": machine,
        "stencil": stencil,
        "partition": kind,
        "n": int(n),
        "n_processors": int(n_processors),
        "t_flop": float(t_flop),
        "mode": str(mode),
        "jitter": float(jitter),
    }
    if seeds is not None:
        payload["seeds"] = [int(s) for s in seeds]
    else:
        payload["replicas"] = 1 if replicas is None else int(replicas)
        payload["seed"] = int(seed)
    return payload


def sim_validate_payload(
    machine: str,
    n: int,
    processors: Any,
    stencil: str = "5-point",
    kind: str = "square",
    t_flop: float = DEFAULT_T_FLOP,
    mode: str = "barrier",
) -> dict[str, Any]:
    """A model-vs-simulation validation sweep over processor counts."""
    return {
        "kind": "sim_validate",
        "machine": machine,
        "stencil": stencil,
        "partition": kind,
        "n": int(n),
        "processors": [int(p) for p in processors],
        "t_flop": float(t_flop),
        "mode": str(mode),
    }


# --------------------------------------------------------------------------
# Request validation (server side)
# --------------------------------------------------------------------------


def _machine(name: Any) -> Architecture:
    try:
        return DEFAULT_MACHINES[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(DEFAULT_MACHINES))
        raise InvalidParameterError(
            f"unknown machine {name!r}; known machines: {known}"
        ) from None


def _stencil(name: Any) -> Stencil:
    try:
        return stencil_by_name(name)
    except Exception:
        raise InvalidParameterError(f"unknown stencil {name!r}") from None


def _partition(value: Any) -> PartitionKind:
    try:
        return PartitionKind(value)
    except ValueError:
        raise InvalidParameterError(
            f"unknown partition kind {value!r}; expected 'strip' or 'square'"
        ) from None


def _axis(values: Any, label: str) -> list[int]:
    # Every service axis (grid sides, processor counts) requires >= 1,
    # matching the public analysis entry points — the compute handlers
    # call internal kernels, so bad axes must die here, as a 400, not
    # be served as garbage.
    if not isinstance(values, (list, tuple)) or not values:
        raise InvalidParameterError(f"{label} must be a non-empty list")
    try:
        axis = [int(v) for v in values]
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{label} must hold integers") from None
    if any(v < 1 for v in axis):
        raise InvalidParameterError(f"{label} values must be >= 1")
    return axis


def parse_allocation(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validated arguments for an allocation-curve request."""
    max_processors = payload.get("max_processors")
    return {
        "machine": _machine(payload.get("machine")),
        "stencil": _stencil(payload.get("stencil")),
        "kind": _partition(payload.get("partition")),
        "grid_sides": _axis(payload.get("grid_sides"), "grid_sides"),
        "t_flop": float(payload.get("t_flop", DEFAULT_T_FLOP)),
        "max_processors": None if max_processors is None else float(max_processors),
        "integer": bool(payload.get("integer", False)),
    }


def parse_plan(payload: Mapping[str, Any]) -> dict[str, Any]:
    grid = payload.get("grid")
    n = int(payload.get("n", 0))
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return {
        "machine": _machine(payload.get("machine")),
        "machine_name": payload.get("machine"),
        "n": n,
        "grid": None if grid is None else _axis(grid, "grid"),
    }


def parse_sim_sweep(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validated arguments for a batched replica-simulation request.

    Seed-range, mode, and jitter bounds are enforced by
    :class:`repro.batch.sim.ReplicaBatchSpec` when the graph node is
    built — the same :class:`~repro.errors.InvalidParameterError` → 400
    path as every other malformed field.
    """
    n = int(payload.get("n", 0))
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    n_processors = int(payload.get("n_processors", 0))
    if n_processors < 1:
        raise InvalidParameterError(
            f"n_processors must be >= 1, got {n_processors}"
        )
    seeds = payload.get("seeds")
    if seeds is None:
        replicas = int(payload.get("replicas", 0))
        if replicas < 1:
            raise InvalidParameterError(
                "provide a non-empty seeds list, or replicas >= 1"
            )
        start = int(payload.get("seed", 0))
        seed_list = list(range(start, start + replicas))
    else:
        if not isinstance(seeds, (list, tuple)) or not seeds:
            raise InvalidParameterError("seeds must be a non-empty list")
        try:
            seed_list = [int(s) for s in seeds]
        except (TypeError, ValueError):
            raise InvalidParameterError("seeds must hold integers") from None
    return {
        "machine": _machine(payload.get("machine")),
        "stencil": _stencil(payload.get("stencil", "5-point")),
        "kind": _partition(payload.get("partition", "square")),
        "n": n,
        "n_processors": n_processors,
        "seeds": seed_list,
        "t_flop": float(payload.get("t_flop", DEFAULT_T_FLOP)),
        "mode": str(payload.get("mode", "barrier")),
        "jitter": float(payload.get("jitter", 0.0)),
    }


def parse_sim_validate(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validated arguments for a validation-sweep request."""
    n = int(payload.get("n", 0))
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return {
        "machine": _machine(payload.get("machine")),
        "stencil": _stencil(payload.get("stencil", "5-point")),
        "kind": _partition(payload.get("partition", "square")),
        "n": n,
        "processors": _axis(payload.get("processors"), "processors"),
        "t_flop": float(payload.get("t_flop", DEFAULT_T_FLOP)),
        "mode": str(payload.get("mode", "barrier")),
    }


def parse_sweep(payload: Mapping[str, Any]) -> dict[str, Any]:
    machines = payload.get("machines")
    if not isinstance(machines, (list, tuple)) or not machines:
        raise InvalidParameterError("machines must be a non-empty list of names")
    for name in machines:
        _machine(name)
    return {
        "grid_sides": _axis(payload.get("grid_sides"), "grid_sides"),
        "processors": [float(p) for p in payload.get("processors") or []],
        "machines": list(machines),
        "stencil": _stencil(payload.get("stencil", "5-point")),
        "kind": _partition(payload.get("partition", "square")),
        "t_flop": float(payload.get("t_flop", DEFAULT_T_FLOP)),
    }
