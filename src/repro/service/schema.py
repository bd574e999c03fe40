"""Wire format for the sweep service: JSON requests and envelopes.

Requests are flat JSON objects with a ``kind`` discriminator, one per
request family (:mod:`repro.graph.families`); results are named
``np.ndarray`` mappings — the same shape the analysis layer's
curve objects serialize to, and the same values the content-addressed
cache stores.  Results travel as binary frames
(:mod:`repro.service.frame`): raw little-endian bytes plus dtype and
shape, so every float crosses the wire bit for bit.  This module holds
the JSON side: the envelopes for errors, ``/healthz`` and ``/v1/stats``,
and :func:`parse_request`.  Each family builds and parses its own
requests (:meth:`~repro.graph.families.Family.payload`,
:meth:`~repro.graph.families.Family.parse`) from its declaration,
which names every wire field once; a client sends
``family_for(kind).payload(...)``.  An integer axis travels as a JSON
list or, when it is an ascending progression and the string is
shorter, as the command line's ``"LO:HI[:STEP]"`` (``HI`` inclusive);
the daemon reads the string as a ``range`` bounded by
:data:`~repro.graph.families.MAX_AXIS_POINTS`, and both forms name the
same fingerprint.

Machines and stencils are referenced *by catalog name*.  The server
resolves them against the same :data:`repro.machines.catalog.DEFAULT_MACHINES`
and stencil library the CLI uses, so a request names exactly what the
offline command line can name — nothing arbitrary is unpickled from
the network.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import InvalidParameterError
from repro.graph.families import Family, family_for

__all__ = [
    "json_body",
    "error_body",
    "allocation_payload",
    "parse_request",
    "parse_allocation",
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
# Request parsing (server side)
# --------------------------------------------------------------------------

#: Family op -> the name of its parser in this module.
_PUBLIC: dict[str, str] = {}


def _parser(name: str, op: str) -> Callable[[Mapping[str, Any]], dict[str, Any]]:
    family = family_for(op)

    def parse(payload: Mapping[str, Any]) -> dict[str, Any]:
        return family.parse(payload)

    parse.__name__ = parse.__qualname__ = name
    parse.__doc__ = f"Builder arguments for one ``{op}`` request."
    _PUBLIC[op] = name
    return parse


parse_allocation = _parser("parse_allocation", "allocation_curve")


def parse_request(payload: Any) -> tuple[Family, dict[str, Any]]:
    """The family a compute request names, and its builder arguments.

    A family with a parser above parses through that module attribute,
    looked up on every call (so a wrapper bound to the name sees served
    requests); any other registered family parses through its
    declaration.  Every malformed request raises
    :class:`~repro.errors.InvalidParameterError`, which the daemon
    answers with a 400.
    """
    if not isinstance(payload, Mapping):
        raise InvalidParameterError("a compute request must be a JSON object")
    family = family_for(payload.get("kind"))
    name = _PUBLIC.get(family.op)
    return family, (globals()[name] if name else family.parse)(payload)


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
    return family_for("allocation_curve").payload(
        machine, stencil, kind, grid_sides, t_flop, max_processors, integer
    )
