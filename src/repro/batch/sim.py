"""Lockstep-array replica simulation: the event-sim island, vectorized.

:func:`repro.sim.replica.simulate_replica` advances one (machine, N, P,
seed) replica at a time through Python event models — exactly the state
``repro.core`` was in before the batch rewrite.  This module is its
vectorized twin: many replicas advance *in lockstep* through the same
phase structure, with the replica axis living in NumPy arrays.

The advance is phase-synchronous and bit-exact by construction:

* **geometry once per configuration** — replicas sharing (N, P) share
  their decomposition, halo volumes, link phases, and banyan stages;
  those are computed by the *oracle's own* scalar functions once per
  unique configuration, never per replica;
* **barrier bus phases** — the oracle's FIFO is a chain of sequential
  adds ``t → t + w₀b → t + w₀b + w₁b → …``, which is exactly
  ``np.cumsum`` over ``[t, w₀b, w₁b, …]`` (prepending ``t`` preserves
  the oracle's addition order; zero-word ranks contribute ``+0.0``,
  bit-exact to being skipped);
* **pipelined writes** — per-replica stable argsort by (ready, rank)
  reproduces the oracle's ``sorted(key=(ready, processor))`` order,
  then a scan over the *rank* axis applies ``max(free, ready) + hold``
  with every replica in flight at once;
* **asynchronous drain** — per-rank word-ready tensors are merged with
  one ``np.sort`` (the oracle's merge is ascending in ready time, and
  equal-ready words holding the same ``b`` finish identically in any
  tie order), then a scan over the global word sequence drains the bus;
* **hypercube / banyan** — communication is geometry-only, so the
  cycle is a broadcast add of the per-configuration comm time onto the
  per-replica jittered compute maximum.

Loops over the rank axis or the unique-configuration set are fine —
they are O(P) and O(#configs); the *replica* axis is never iterated in
Python, which the vectorization lint enforces for this module.

Randomness is the stateless counter RNG of :mod:`repro.sim.rng`: the
seed array *is* the canonical RNG state, so it feeds the request
fingerprint directly and the purity lint has nothing to object to.

Memory note: the asynchronous drain materializes a ``[replicas, P,
max_words]`` ready tensor per configuration group — at the validation
scales used here (P ≤ 64, a few hundred halo words) that is a few
megabytes per thousand replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Sequence

import numpy as np

from repro.core.parameters import Workload
from repro.errors import InvalidParameterError, SimulationError
from repro.machines.banyan import BanyanNetwork
from repro.machines.base import Architecture
from repro.machines.bus import AsynchronousBus, SynchronousBus
from repro.machines.hypercube import Hypercube
from repro.partitioning.decomposition import decomposition_for
from repro.sim.iteration import halo_volumes, neighbour_comm_time
from repro.sim.network.banyan_sim import read_phase_time
from repro.sim.rng import MAX_SEED, jitter_factor_grid
from repro.stencils.perimeter import PartitionKind
from repro.stencils.stencil import Stencil

__all__ = [
    "SIM_MODES",
    "ReplicaBatchResult",
    "ReplicaBatchSpec",
    "machine_sim_tag",
    "replica_request",
    "simulate_replicas",
]

SIM_MODES = ("barrier", "pipelined")


def _as_int_tuple(values: Sequence[int], label: str) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{label} must be a sequence of integers, got {values!r}"
        ) from None
    if not out:
        raise InvalidParameterError(f"{label} must be non-empty")
    return out


@dataclass(frozen=True)
class ReplicaBatchSpec:
    """A batch of replicas: parallel (N, P, seed) tuples plus shared knobs.

    ``grid_sides``, ``processors``, and ``seeds`` are parallel arrays —
    replica ``r`` simulates an ``n_r × n_r`` problem on ``p_r``
    processors with RNG seed ``seed_r``.  Heterogeneous batches are
    fine; replicas are grouped by unique (N, P) internally.
    """

    machine: Architecture
    stencil: Stencil
    kind: PartitionKind
    grid_sides: tuple[int, ...]
    processors: tuple[int, ...]
    seeds: tuple[int, ...]
    t_flop: float = 1e-6
    mode: str = "barrier"
    jitter: float = 0.0

    def __post_init__(self) -> None:
        lengths = {
            len(self.grid_sides),
            len(self.processors),
            len(self.seeds),
        }
        if len(lengths) != 1:
            raise InvalidParameterError(
                "grid_sides, processors, and seeds must be parallel arrays; "
                f"got lengths {len(self.grid_sides)}/{len(self.processors)}"
                f"/{len(self.seeds)}"
            )
        if not self.grid_sides:
            raise InvalidParameterError("replica batch must be non-empty")
        for n in self.grid_sides:
            if n < 1:
                raise InvalidParameterError("grid sides must be >= 1")
        for n, p in zip(self.grid_sides, self.processors):
            if p < 1:
                raise InvalidParameterError("processor counts must be >= 1")
            if p > n * n:
                raise InvalidParameterError(
                    f"cannot place {p} processors on an {n}x{n} grid"
                )
        for seed in self.seeds:
            if not 0 <= seed <= MAX_SEED:
                raise InvalidParameterError(
                    f"seeds must lie in [0, 2**64), got {seed}"
                )
        if self.mode not in SIM_MODES:
            raise InvalidParameterError(
                f"mode must be one of {SIM_MODES}, got {self.mode!r}"
            )
        if self.t_flop <= 0:
            raise InvalidParameterError("t_flop must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise InvalidParameterError(
                f"jitter must lie in [0, 1), got {self.jitter!r}"
            )

    @classmethod
    def build(
        cls,
        machine: Architecture,
        stencil: Stencil,
        kind: PartitionKind,
        grid_sides: Sequence[int] | int,
        processors: Sequence[int] | int,
        seeds: Sequence[int] | int,
        *,
        t_flop: float = 1e-6,
        mode: str = "barrier",
        jitter: float = 0.0,
    ) -> "ReplicaBatchSpec":
        """Broadcast scalars / length-1 sequences against the longest axis."""
        columns = [
            _as_int_tuple([v] if isinstance(v, int) else v, label)
            for v, label in (
                (grid_sides, "grid_sides"),
                (processors, "processors"),
                (seeds, "seeds"),
            )
        ]
        width = max(len(col) for col in columns)
        stretched = []
        for col, label in zip(columns, ("grid_sides", "processors", "seeds")):
            if len(col) == width:
                stretched.append(col)
            elif len(col) == 1:
                stretched.append(col * width)
            else:
                raise InvalidParameterError(
                    f"{label} has length {len(col)}, expected 1 or {width}"
                )
        return cls(
            machine=machine,
            stencil=stencil,
            kind=kind,
            grid_sides=stretched[0],
            processors=stretched[1],
            seeds=stretched[2],
            t_flop=float(t_flop),
            mode=mode,
            jitter=float(jitter),
        )

    @classmethod
    def monte_carlo(
        cls,
        machine: Architecture,
        stencil: Stencil,
        kind: PartitionKind,
        n: int,
        n_processors: int,
        replicas: int,
        *,
        seed: int = 0,
        t_flop: float = 1e-6,
        mode: str = "barrier",
        jitter: float = 0.0,
    ) -> "ReplicaBatchSpec":
        """One configuration, ``replicas`` consecutive seeds from ``seed``."""
        if replicas < 1:
            raise InvalidParameterError("replicas must be >= 1")
        return cls.build(
            machine,
            stencil,
            kind,
            int(n),
            int(n_processors),
            range(int(seed), int(seed) + int(replicas)),
            t_flop=t_flop,
            mode=mode,
            jitter=jitter,
        )

    @property
    def n_replicas(self) -> int:
        return len(self.seeds)


@dataclass(frozen=True)
class ReplicaBatchResult:
    """Per-replica cycle times, parallel to the spec's replica axis."""

    machine_name: str
    mode: str
    jitter: float
    grid_sides: np.ndarray
    processors: np.ndarray
    seeds: np.ndarray
    cycle_times: np.ndarray

    @property
    def n_replicas(self) -> int:
        return int(self.cycle_times.shape[0])

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The cache/service wire shape (named arrays)."""
        return {
            "grid_sides": self.grid_sides,
            "processors": self.processors,
            "seeds": self.seeds,
            "cycle_times": self.cycle_times,
        }

    def band(self) -> dict[str, float]:
        """Ensemble statistics of the cycle-time distribution."""
        cycles = self.cycle_times
        return {
            "replicas": float(cycles.shape[0]),
            "mean": float(np.mean(cycles)),
            "std": float(np.std(cycles)),
            "min": float(np.min(cycles)),
            "q05": float(np.quantile(cycles, 0.05)),
            "q95": float(np.quantile(cycles, 0.95)),
            "max": float(np.max(cycles)),
        }


# --------------------------------------------------------------------------
# Cache fingerprinting
# --------------------------------------------------------------------------


def machine_sim_tag(machine: Architecture) -> tuple:
    """Raw-field canonical encoding of a machine for *simulation* requests.

    The cache's default encoding collapses plain bus presets to their
    closed-form constants (``v·b``, ``v·c``) because every closed form
    consumes them only through those products.  The event simulator does
    not: it charges bus occupancy ``b`` and requester overhead ``c``
    separately, word by word, so two presets with one closed form can
    have different simulated timelines.  Simulation fingerprints
    therefore encode the machine's raw dataclass fields.
    """
    items = tuple(
        (f.name, repr(getattr(machine, f.name)))
        for f in dataclass_fields(machine)
    )
    return ("sim-machine", type(machine).__qualname__, items)


def replica_request(spec: ReplicaBatchSpec) -> tuple:
    """The :class:`~repro.batch.cache.SweepCache` request for a batch.

    The seed array is the canonical RNG state — the counter RNG has no
    other state — so the fingerprint covers the randomness completely
    and deterministically.
    """
    return (
        "simulate_replicas",
        machine_sim_tag(spec.machine),
        spec.stencil,
        spec.kind,
        np.asarray(spec.grid_sides, dtype=np.int64),
        np.asarray(spec.processors, dtype=np.int64),
        np.asarray(spec.seeds, dtype=np.uint64),
        ("float", repr(float(spec.t_flop))),
        spec.mode,
        ("float", repr(float(spec.jitter))),
    )


# --------------------------------------------------------------------------
# Vectorized phase kernels (bit-exact to repro.sim.network FIFO models)
# --------------------------------------------------------------------------


def _phase_completions_from_zero(
    words: np.ndarray, b: float, c: float
) -> np.ndarray:
    """Barrier-phase completions when every rank is ready at t = 0.

    The oracle's FIFO serves nonzero requests in rank order from a bus
    free at 0.0; each grant finish is the running sum of ``wb`` terms —
    ``np.cumsum`` performs the identical sequential additions (zero-word
    ranks add ``0.0`` to a non-negative accumulator, bit-exact to being
    skipped) — and the requester perceives ``+ w·c`` on top.  Zero-word
    ranks complete at their ready time, 0.0.
    """
    occupancy = np.cumsum(words * b)
    return np.where(words > 0, occupancy + words * c, 0.0)


def _barrier_write_cycles(
    t2: np.ndarray, words: np.ndarray, b: float, c: float
) -> np.ndarray:
    """Write-phase end per replica when all ranks are ready at ``t2[r]``.

    Prepending ``t2`` to the per-rank occupancy row before the cumsum
    reproduces the oracle's addition order exactly: the first grant
    starts at ``max(0, t2) = t2`` and each later one chains off the
    previous finish.
    """
    n_replicas = t2.shape[0]
    busy = np.broadcast_to(words * b, (n_replicas, words.shape[0]))
    chained = np.cumsum(np.concatenate([t2[:, None], busy], axis=1), axis=1)
    occupancy = chained[:, 1:]
    done = np.where(words[None, :] > 0, occupancy + words * c, t2[:, None])
    return done.max(axis=1)


def _fifo_write_cycles(
    ready: np.ndarray, words: np.ndarray, b: float, c: float
) -> np.ndarray:
    """Write-phase end when rank ready times differ per replica.

    Per replica, a stable argsort by ready time (ties keep rank order)
    reproduces the oracle's ``sorted(key=(ready, processor))`` FIFO
    order; the scan below runs over the *rank-slot* axis with every
    replica advanced at once, applying the oracle's
    ``finish = max(free, ready) + w·b`` grant rule per slot.
    """
    order = np.argsort(ready, axis=1, kind="stable")
    sorted_ready = np.take_along_axis(ready, order, axis=1)
    sorted_words = words[order]
    free = np.zeros(ready.shape[0])
    peak = np.zeros(ready.shape[0])
    for slot in range(order.shape[1]):  # rank slots, never the replica axis
        slot_ready = sorted_ready[:, slot]
        slot_words = sorted_words[:, slot]
        served = slot_words > 0
        finish = np.maximum(free, slot_ready) + slot_words * b
        done = np.where(served, finish + slot_words * c, slot_ready)
        free = np.where(served, finish, free)
        peak = np.maximum(peak, done)
    return peak


def _async_drain_cycles(
    t1: float,
    compute_end: np.ndarray,
    writes: np.ndarray,
    intervals: np.ndarray,
    b: float,
) -> np.ndarray:
    """Asynchronous write backlog: merged word streams through the bus.

    Rank ``p``'s word ``i`` is ready at ``t1 + (i+1)·interval[r, p]``;
    the oracle merges all words ascending by ready time and serves each
    for ``b``.  Equal-ready words finish identically in any tie order
    (same hold), so one ``np.sort`` per replica is the merge, and the
    scan runs over the global word sequence — shared by every replica
    in the configuration group — never the replica axis.
    """
    total_words = int(writes.sum())
    if total_words == 0:
        return compute_end  # drain ends at 0.0; compute always wins
    max_words = int(writes.max())
    counts = np.arange(1, max_words + 1, dtype=np.float64)
    ready = t1 + counts[None, None, :] * intervals[:, :, None]
    valid = np.arange(max_words)[None, None, :] < writes[None, :, None]
    ready = np.where(valid, ready, np.inf)
    merged = np.sort(ready.reshape(ready.shape[0], -1), axis=1)
    merged = merged[:, :total_words]
    free = np.zeros(merged.shape[0])
    for word in range(total_words):  # global word sequence, not replicas
        free = np.maximum(free, merged[:, word]) + b
    return np.maximum(compute_end, free)


# --------------------------------------------------------------------------
# The batched advance
# --------------------------------------------------------------------------


def _config_groups(
    sides: np.ndarray, procs: np.ndarray
) -> dict[tuple[int, int], list[int]]:
    """Replica row indices grouped by unique (N, P) configuration."""
    groups: dict[tuple[int, int], list[int]] = {}
    for row, key in enumerate(zip(sides.tolist(), procs.tolist())):
        groups.setdefault(key, []).append(row)
    return groups


def _advance_config(
    machine: Architecture,
    spec: ReplicaBatchSpec,
    n: int,
    p: int,
    seeds: np.ndarray,
) -> np.ndarray:
    """Advance every replica of one (N, P) configuration in lockstep."""
    workload = Workload(n=n, stencil=spec.stencil, t_flop=spec.t_flop)
    dec_kind = "strip" if spec.kind is PartitionKind.STRIP else "block"
    decomposition = decomposition_for(n, p, dec_kind)
    point_time = workload.flops_per_point * workload.t_flop
    areas = np.asarray(
        [part.area for part in decomposition.partitions], dtype=np.int64
    )
    factors = jitter_factor_grid(seeds, p, spec.jitter)
    compute = (areas * point_time)[None, :] * factors

    if p == 1:
        return np.ascontiguousarray(compute[:, 0])

    read_list, write_list = halo_volumes(decomposition, spec.stencil)
    reads = np.asarray(read_list, dtype=np.int64)
    writes = np.asarray(write_list, dtype=np.int64)

    if isinstance(machine, SynchronousBus):
        read_done = _phase_completions_from_zero(reads, machine.b, machine.c)
        if spec.mode == "barrier":
            t2 = read_done.max() + compute.max(axis=1)
            return _barrier_write_cycles(t2, writes, machine.b, machine.c)
        ready = read_done[None, :] + compute
        return _fifo_write_cycles(ready, writes, machine.b, machine.c)
    if isinstance(machine, AsynchronousBus):
        t1 = float(
            _phase_completions_from_zero(reads, machine.b, machine.c).max()
        )
        compute_end = t1 + compute.max(axis=1)
        intervals = point_time * factors
        return _async_drain_cycles(t1, compute_end, writes, intervals, machine.b)
    if isinstance(machine, Hypercube):  # covers MeshGrid subclass
        comm = neighbour_comm_time(machine, decomposition, spec.stencil)
        return comm + compute.max(axis=1)
    if isinstance(machine, BanyanNetwork):
        read_phase = read_phase_time(read_list, machine.w, p)
        return read_phase + compute.max(axis=1)
    raise SimulationError(
        f"no replica simulator for machine {machine.name!r}"
    )


def simulate_replicas(spec: ReplicaBatchSpec) -> ReplicaBatchResult:
    """Advance every replica in ``spec``; bit-equal to the scalar oracle.

    The contract (pinned by the property tests in
    ``tests/batch/test_sim.py``): for every replica ``r``,
    ``cycle_times[r]`` equals
    ``simulate_replica(machine, n_r, p_r, stencil, seed_r, ...)``
    bit for bit — across machine models, both stencils, both bus
    scheduling modes, and any jitter in [0, 1).
    """
    sides = np.asarray(spec.grid_sides, dtype=np.int64)
    procs = np.asarray(spec.processors, dtype=np.int64)
    seeds = np.asarray(spec.seeds, dtype=np.uint64)
    cycles = np.empty(sides.shape[0], dtype=np.float64)
    for (n, p), rows in _config_groups(sides, procs).items():
        idx = np.asarray(rows, dtype=np.intp)
        cycles[idx] = _advance_config(spec.machine, spec, n, p, seeds[idx])
    return ReplicaBatchResult(
        machine_name=spec.machine.name,
        mode=spec.mode,
        jitter=spec.jitter,
        grid_sides=sides,
        processors=procs,
        seeds=seeds,
        cycle_times=cycles,
    )
