"""Array-first analysis: whole-curve optima on the batch substrate.

:mod:`repro.core` answers the paper's analysis questions — optimal
allocation, optimal speedup, minimal problem size, maximum useful
processors, crossovers, isoefficiency — one ``(machine, n)`` point at a
time.  This module answers them over dense axes in a handful of NumPy
reductions: candidate areas are stacked and evaluated through the
machines' vectorized ``cycle_time_area_grid`` surface, integer
feasibility is restored by vectorized floor/ceil rounding, and search
loops (crossover, isoefficiency) evaluate whole frontiers per step
instead of single points.

Scalar-equivalence contract: every element of every curve equals the
corresponding :mod:`repro.core` routine **bit for bit** — the functions
here transcribe the scalar floating-point operations in the same order,
and ``tests/batch/test_analysis.py`` pins the equality across all four
machine families, both partition kinds, and both stencils.  The scalar
path remains the oracle; this layer is how it is served at scale.

The request families (:mod:`repro.graph.families`) serve these
questions: their NumPy kernels are the ``_compute_*`` functions here,
and :mod:`repro.graph` plans, caches and fuses them.  To evaluate one,
build its node and plan it (``graph.evaluate([nodes.X(...)],
cache=...)``).  :func:`optimal_allocation_curve` is that call for the
allocation family, returning an :class:`AllocationCurve`.  The rest of
this module is array math that consumes whole axes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.batch.cache import SweepCache
from repro.batch.curves import _libm_pow, bus_optimal_area_curve
from repro.core.crossover import CrossoverResult
from repro.core.minimal_size import _volume_coefficient
from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import InvalidParameterError
from repro.machines.banyan import BanyanNetwork
from repro.machines.base import Architecture
from repro.machines.bus import BusArchitecture
from repro.machines.hypercube import Hypercube
from repro.stencils.perimeter import PartitionKind, perimeters_required
from repro.stencils.stencil import Stencil

__all__ = [
    "AllocationCurve",
    "optimal_allocation_curve",
    "find_crossover_grid_size_batch",
    "scaled_speedup_hypercube_curve",
    "scaled_speedup_banyan_curve",
]


def _libm_log2(values: np.ndarray) -> np.ndarray:  # lint: disable=vectorization-guard -- deliberate scalar loop: the bit-equality contract needs libm log2 (math.log2); np.log2 may differ by 1 ULP
    """Elementwise ``log2`` through libm (matches scalar ``math.log2``)."""
    arr = np.asarray(values, dtype=float)
    out = np.array([math.log2(v) for v in arr.ravel()])
    return out.reshape(arr.shape)


# --------------------------------------------------------------------------
# Optimal allocation over a grid-side axis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationCurve:
    """Optimal allocations over a grid-side sweep, as parallel arrays.

    Element ``i`` equals the scalar
    :func:`repro.core.allocation.optimize_allocation` at
    ``grid_sides[i]`` bit for bit, including the integer-constrained
    variant and the machine-size cap.
    """

    grid_sides: np.ndarray
    processors: np.ndarray
    area: np.ndarray
    cycle_time: np.ndarray
    speedup: np.ndarray
    efficiency: np.ndarray
    regime: tuple[str, ...]
    kind: PartitionKind

    def __len__(self) -> int:
        return int(self.grid_sides.size)

    # ------------------------------------------------------- cache plumbing

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "grid_sides": self.grid_sides,
            "processors": self.processors,
            "area": self.area,
            "cycle_time": self.cycle_time,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "regime": np.asarray(self.regime),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], kind: PartitionKind
    ) -> "AllocationCurve":
        return cls(
            grid_sides=np.asarray(arrays["grid_sides"]),
            processors=np.asarray(arrays["processors"]),
            area=np.asarray(arrays["area"]),
            cycle_time=np.asarray(arrays["cycle_time"]),
            speedup=np.asarray(arrays["speedup"]),
            efficiency=np.asarray(arrays["efficiency"]),
            regime=tuple(np.asarray(arrays["regime"]).tolist()),
            kind=kind,
        )


def _admissible_range_grid(
    n: np.ndarray,
    n2: np.ndarray,
    kind: PartitionKind,
    max_processors: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.allocation.admissible_area_range`."""
    a_min = n.copy() if kind is PartitionKind.STRIP else np.ones_like(n)
    if max_processors is not None:
        if max_processors < 1:
            raise InvalidParameterError("max_processors must be >= 1")
        a_min = np.maximum(a_min, n2 / max_processors)
    return np.minimum(a_min, n2), n2


def _integer_candidate_slots(
    n: np.ndarray,
    n2: np.ndarray,
    kind: PartitionKind,
    continuous: np.ndarray,
    a_min: np.ndarray,
    a_max: np.ndarray,
) -> list[np.ndarray]:
    """Vectorized ``repro.core.allocation._integer_candidates``.

    Returns two fixed slots per continuous candidate: the floor- and
    ceil-derived feasible areas (strips round the row count, squares
    the processor count).  A slot whose candidate falls outside the
    admissible range is replaced by the nearest in-range alternative —
    the other slot, or the continuous candidate itself when both are
    infeasible — mirroring the scalar fallback.  Duplicated slot values
    cannot change an argmin (first occurrence wins).
    """
    if kind is PartitionKind.STRIP:
        h = continuous / n
        lo = np.clip(np.floor(h), 1.0, n) * n
        hi = np.clip(np.ceil(h), 1.0, n) * n
    else:
        p = n2 / continuous
        lo = n2 / np.maximum(np.floor(p), 1.0)
        hi = n2 / np.maximum(np.ceil(p), 1.0)
    valid_lo = (a_min - 1e-9 <= lo) & (lo <= a_max + 1e-9)
    valid_hi = (a_min - 1e-9 <= hi) & (hi <= a_max + 1e-9)
    slot_a = np.where(valid_lo, lo, np.where(valid_hi, hi, continuous))
    slot_b = np.where(valid_hi, hi, slot_a)
    return [slot_a, slot_b]


def optimal_allocation_curve(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
    integer: bool = False,
    cache: SweepCache | None = None,
) -> AllocationCurve:
    """Vectorized :func:`repro.core.allocation.optimize_allocation` over ``n``.

    Stacks every candidate area — admissible-range endpoints, the bus
    interior optimum, and (with ``integer=True``) their floor/ceil
    roundings — and evaluates all of them across the whole sweep in one
    broadcast ``cycle_time_area_grid`` call per candidate, then selects
    per grid side with the scalar optimizer's exact tie-breaking (first
    strict minimum; the serial run wins ties).
    """
    from repro.graph import nodes as graph_nodes
    from repro.graph.planner import evaluate as graph_evaluate

    node = graph_nodes.allocation_curve(
        machine, stencil, kind, grid_sides, t_flop, max_processors, integer
    )
    arrays = graph_evaluate([node], cache=cache)[0]
    return AllocationCurve.from_arrays(arrays, kind)


def _compute_allocation_curve(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    n: np.ndarray,
    t_flop: float,
    max_processors: float | None,
    integer: bool,
) -> AllocationCurve:
    n2 = n * n
    a_min, a_max = _admissible_range_grid(n, n2, kind, max_processors)

    continuous: list[np.ndarray] = [a_min, a_max]
    if isinstance(machine, BusArchitecture):
        a_star = bus_optimal_area_curve(machine, stencil, kind, n, t_flop)
        inside = (a_min < a_star) & (a_star < a_max)
        # Outside the range the endpoints already cover it; a duplicate
        # of a_min keeps the stack rectangular without moving the argmin.
        continuous.append(np.where(inside, a_star, a_min))
    elif not machine.monotone_in_processors:  # pragma: no cover - no such preset
        raise InvalidParameterError(
            "non-monotone non-bus machines need the scalar optimizer"
        )

    if integer:
        candidates: list[np.ndarray] = []
        for a in continuous:
            candidates.extend(
                _integer_candidate_slots(n, n2, kind, a, a_min, a_max)
            )
    else:
        candidates = continuous

    times = np.stack(
        [
            machine.cycle_time_area_grid(stencil, t_flop, kind, n, a)
            for a in candidates
        ]
    )
    areas = np.stack(candidates)
    best_idx = np.argmin(times, axis=0)
    cols = np.arange(n.size)
    best_time = times[best_idx, cols]
    best_area = areas[best_idx, cols]

    serial = stencil.flops_per_point * n2 * t_flop
    one = serial <= best_time

    speedup = np.where(one, 1.0, serial / best_time)
    processors = np.where(one, 1.0, n2 / best_area)
    area = np.where(one, n2, best_area)
    cycle_time = np.where(one, serial, best_time)
    efficiency = np.where(one, 1.0, speedup / processors)
    # math.isclose semantics (not np.isclose, whose additive atol+rtol
    # envelope is wider), matching the scalar regime classification.
    at_cap = np.abs(best_area - a_min) <= np.maximum(
        1e-9 * np.maximum(np.abs(best_area), np.abs(a_min)), 1e-9
    )
    regime = tuple(np.where(one, "one", np.where(at_cap, "all", "interior")).tolist())
    return AllocationCurve(
        grid_sides=n.astype(int),
        processors=processors,
        area=area,
        cycle_time=cycle_time,
        speedup=speedup,
        efficiency=efficiency,
        regime=regime,
        kind=kind,
    )


# --------------------------------------------------------------------------
# Minimal problem sizes / maximum useful processors
# --------------------------------------------------------------------------


def _compute_max_useful(
    machine: BusArchitecture,
    stencil: Stencil,
    kind: PartitionKind,
    n_arr: np.ndarray,
    t_flop: float,
) -> np.ndarray:
    """Vectorized :func:`repro.core.minimal_size.max_useful_processors` over ``n``."""
    v = _volume_coefficient(machine, kind)
    k = perimeters_required(kind, stencil)
    et = stencil.flops_per_point * t_flop
    ratio = et * n_arr / (v * k * machine.b)
    if kind is PartitionKind.STRIP:
        return np.sqrt(ratio)
    return _libm_pow(ratio, 2.0 / 3.0)


def _compute_minimal_problem_size(
    machine: BusArchitecture,
    stencil: Stencil,
    kind: PartitionKind,
    p: np.ndarray,
    t_flop: float,
) -> np.ndarray:
    """Vectorized :func:`repro.core.minimal_size.minimal_problem_size` over ``P``."""
    from repro.batch.curves import minimal_grid_side_curve

    k = perimeters_required(kind, stencil)
    side = minimal_grid_side_curve(
        machine, k, stencil.flops_per_point, t_flop, p, kind
    )
    return side * side


# --------------------------------------------------------------------------
# Crossovers
# --------------------------------------------------------------------------


def find_crossover_grid_size_batch(
    metric_curve: Callable[[np.ndarray], np.ndarray],
    threshold: float = 1.0,
    n_lo: int = 2,
    n_hi: int = 1 << 16,
    block: int = 64,
) -> CrossoverResult:
    """Batched :func:`repro.core.crossover.find_crossover_grid_size`.

    ``metric_curve`` evaluates the metric over an *array* of grid sides
    in one call; the search narrows by evaluating up to ``block``
    interior points per round instead of one bisection midpoint, so a
    full 16-bit range resolves in ~3 vectorized calls.  For a monotone
    metric the result is the same smallest ``n`` the scalar bisection
    finds, with bit-identical before/after values (the metric
    evaluations themselves are bit-identical).
    """
    if n_lo >= n_hi:
        raise InvalidParameterError("need n_lo < n_hi")
    if block < 1:
        raise InvalidParameterError("block must be >= 1")
    ends = metric_curve(np.array([n_lo, n_hi]))
    if ends[1] < threshold:
        raise InvalidParameterError(
            f"metric never reaches {threshold} up to n = {n_hi}"
        )
    if ends[0] >= threshold:
        return CrossoverResult(
            n=n_lo, value_before=math.nan, value_after=float(ends[0])
        )
    lo, hi = n_lo, n_hi
    while hi - lo > 1:
        interior = np.unique(
            np.round(np.linspace(lo, hi, min(block, hi - lo - 1) + 2)).astype(int)
        )
        interior = interior[(interior > lo) & (interior < hi)]
        if interior.size == 0:  # pragma: no cover - adjacent integers
            break
        vals = metric_curve(interior)
        above = np.nonzero(vals >= threshold)[0]
        if above.size:
            first = int(above[0])
            hi = int(interior[first])
            if first > 0:
                lo = int(interior[first - 1])
        else:
            lo = int(interior[-1])
    before, after = metric_curve(np.array([hi - 1, hi]))
    return CrossoverResult(n=hi, value_before=float(before), value_after=float(after))


# --------------------------------------------------------------------------
# Isoefficiency over a processor-count axis
# --------------------------------------------------------------------------


def _compute_grid_for_efficiency(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    p_int: np.ndarray,
    target_efficiency: float,
    t_flop: float,
    n_max: int,
) -> np.ndarray:
    """Batched :func:`repro.core.isoefficiency.grid_for_efficiency` over ``P``.

    Runs the scalar search (exponential growth, then bisection) for
    every processor count at once: each round evaluates the efficiency
    predicate on the whole frontier in one ``cycle_time_area_grid``
    call.  The predicate transcription is bit-identical.
    """
    p = p_int.astype(float)

    def efficient(n_arr: np.ndarray, p_arr: np.ndarray) -> np.ndarray:
        n_f = n_arr.astype(float)
        n2 = n_f * n_f
        serial = stencil.flops_per_point * n2 * t_flop
        cycle = machine.cycle_time_area_grid(
            stencil, t_flop, kind, n_f, n2 / p_arr
        )
        return serial / cycle >= target_efficiency * p_arr

    # lo: the scalar loop's floor — at least 2, at least one strip row
    # per processor, and lo² ≥ P so the grid hosts one point each.
    lo = np.maximum(2, p_int) if kind is PartitionKind.STRIP else np.full_like(p_int, 2)
    root = np.ceil(np.sqrt(p)).astype(int)
    bad = root * root < p_int  # correctly-rounded sqrt makes this rare
    root[bad] += 1
    lo = np.maximum(lo, root)

    sides = np.zeros_like(p_int)
    eff_lo = efficient(lo, p)
    sides[eff_lo] = lo[eff_lo]

    # Exponential growth: double every still-inefficient hi below n_max,
    # one frontier evaluation per round (the scalar loop, batched).
    hi = lo.copy()
    growing = ~eff_lo
    while True:
        can = growing & (hi < n_max)
        if not np.any(can):
            break
        hi[can] *= 2
        idx = np.nonzero(can)[0]
        ok = efficient(hi[can], p[can])
        growing[idx[ok]] = False

    # Entries that ran out of headroom are unsatisfiable (their last
    # efficiency check came back False at hi ≥ n_max).
    if np.any(growing):
        raise InvalidParameterError(
            f"no grid up to {n_max} reaches efficiency {target_efficiency} "
            f"on {int(p_int[np.nonzero(growing)[0][0]])} processors"
        )

    # Bisection on every unreturned entry, one frontier per round.
    pending = sides == 0
    while True:
        gap = pending & (hi - lo > 1)
        if not np.any(gap):
            break
        mid = (lo + hi) // 2
        idx = np.nonzero(gap)[0]
        ok = efficient(mid[gap], p[gap])
        hi[idx[ok]] = mid[idx[ok]]
        lo[idx[~ok]] = mid[idx[~ok]]
    sides[pending] = hi[pending]
    return sides.astype(int)


# --------------------------------------------------------------------------
# Scaled speedup (machine grows with the problem)
# --------------------------------------------------------------------------


def scaled_speedup_hypercube_curve(
    machine: Hypercube,
    stencil: Stencil,
    t_flop: float,
    grid_sides: Sequence[int],
    points_per_processor: float,
) -> np.ndarray:
    """Vectorized :func:`repro.core.scaling.scaled_speedup_hypercube`.

    The cycle time is constant under fixed points per processor, so the
    whole curve is the serial-time axis over one scalar denominator.
    """
    if points_per_processor <= 0:
        raise InvalidParameterError("points_per_processor must be positive")
    side = math.sqrt(points_per_processor)
    k = stencil.reach  # square partitions
    per_event = machine.message_time(k * side)
    cycle = stencil.flops_per_point * points_per_processor * t_flop + 8.0 * float(
        per_event
    )
    n = np.asarray(grid_sides, dtype=float)
    serial = stencil.flops_per_point * n * n * t_flop
    return serial / cycle


def scaled_speedup_banyan_curve(
    machine: BanyanNetwork,
    stencil: Stencil,
    t_flop: float,
    grid_sides: Sequence[int],
    points_per_processor: float,
) -> np.ndarray:
    """Vectorized :func:`repro.core.scaling.scaled_speedup_banyan`.

    The ``log2 N`` read term goes through libm so each element matches
    the scalar path bit for bit.
    """
    if points_per_processor <= 0:
        raise InvalidParameterError("points_per_processor must be positive")
    n = np.asarray(grid_sides, dtype=float)
    processors = n * n / points_per_processor
    if np.any(processors < 1):
        raise InvalidParameterError("grid smaller than one processor's share")
    side = math.sqrt(points_per_processor)
    k = stencil.reach
    log_term = np.maximum(_libm_log2(processors), 0.0)
    cycle = 8.0 * k * side * machine.w * log_term + (
        stencil.flops_per_point * points_per_processor * t_flop
    )
    serial = stencil.flops_per_point * n * n * t_flop
    return serial / cycle
