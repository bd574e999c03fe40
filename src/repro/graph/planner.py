"""The sweep-graph planner: dedup, fuse, and dispatch node forests.

:func:`plan` takes any number of root :class:`~repro.graph.nodes.Node`
requests and produces an executable :class:`Plan` in three passes:

1. **dedup** — a post-order walk keyed by content fingerprint collapses
   repeated subgraphs: a sweep shared by two reductions, or the same
   allocation curve requested twice in one batch, becomes one node.
2. **cache probe** — each unique cacheable leaf gets exactly one
   :meth:`~repro.batch.SweepCache.lookup_level`, so hit/miss totals
   count requests, not fused evaluations.
3. **fuse** — uncached leaves with equal compatibility fingerprints
   (same family, machine closed form, stencil, kind, scalars — only the
   axis differs) are grouped onto one vectorized evaluation over the
   sorted union of their axes.  Every family here is elementwise in its
   axis, so slicing members back out by ``searchsorted`` is
   bit-identical to solo evaluation — the same invariant the service's
   allocation micro-batcher has always relied on, now for every family.

:meth:`Plan.execute` runs the fusion groups on the chosen
:class:`~repro.graph.executors.Executor`, stores each member slice
under its own fingerprint (never the union — the store stays
request-granular), then folds reductions in dependency order.
Planner activity lands in :class:`~repro.batch.cache.CacheStats`
counters so ``/v1/stats`` and the experiment report can show fusion
and dedup wins next to hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.batch.cache import CacheStats, SweepCache
from repro.core.isoefficiency import IsoefficiencyFit
from repro.errors import InvalidParameterError
from repro.graph.executors import Executor, get_executor
from repro.graph.families import family_for
from repro.graph.nodes import Node

__all__ = ["Plan", "PlannedNode", "plan", "evaluate"]


@dataclass
class PlannedNode:
    """One unique node plus the planner's decision about it."""

    node: Node
    index: int
    #: "cached" (served from the store during planning), "fused"
    #: (rides a sibling's evaluation), "compute" (runs its own
    #: evaluation, possibly carrying riders), or "reduce".
    status: str
    #: Which tier answered a "cached" node ("memory"/"disk").
    tier: str | None = None
    #: Fusion group id (compute/fused nodes only).
    group: int | None = None
    #: How many times this subgraph appeared across the request forest.
    instances: int = 1


@dataclass
class Plan:
    """An optimized, executable sweep graph."""

    roots: tuple[Node, ...]
    executor: Executor
    cache: SweepCache | None
    nodes: list[PlannedNode] = field(default_factory=list)
    #: Fusion groups: group id → member PlannedNodes (leaders first is
    #: meaningless — the evaluation covers the union axis).
    groups: dict[int, list[PlannedNode]] = field(default_factory=dict)
    #: Results known at plan time (cache hits), by node key.
    results: dict[str, Any] = field(default_factory=dict)
    stats: CacheStats | None = None
    executed: bool = False

    # ------------------------------------------------------------- counters

    @property
    def n_requests(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.nodes if p.status == "cached")

    @property
    def siblings_fused(self) -> int:
        return sum(len(g) - 1 for g in self.groups.values())

    @property
    def subgraphs_deduped(self) -> int:
        return sum(p.instances - 1 for p in self.nodes)

    @property
    def evaluations(self) -> int:
        """Vectorized executor calls this plan will make."""
        return len(self.groups)

    # -------------------------------------------------------------- explain

    def explain(self) -> str:
        """The optimized graph as deterministic text (``--explain``)."""
        lines = [
            f"sweep graph: {self.n_requests} request(s) -> "
            f"{self.n_nodes} node(s) ({self.subgraphs_deduped} deduped), "
            f"{self.evaluations} evaluation(s) ({self.siblings_fused} fused), "
            f"{self.cache_hits} cache hit(s) [{self.executor.name}]"
        ]
        for p in self.nodes:
            if p.status == "cached":
                verdict = f"cached ({p.tier})"
            elif p.status == "reduce":
                children = ", ".join(
                    str(self._planned(c.key).index) for c in p.node.inputs
                )
                verdict = f"reduce({children})"
            elif len(self.groups.get(p.group, [])) > 1:
                verdict = f"fused -> group {p.group}"
            else:
                verdict = "compute"
            dedup = f" x{p.instances}" if p.instances > 1 else ""
            lines.append(f"  [{p.index}] {p.node.detail}{dedup}  {verdict}")
        for gid, members in self.groups.items():
            if len(members) > 1:
                union = _union_axis([m.node for m in members])
                lines.append(
                    f"  group {gid}: {len(members)} requests fused over a "
                    f"union axis of {union.size} points"
                )
        return "\n".join(lines)

    # -------------------------------------------------------------- execute

    def _planned(self, key: str) -> PlannedNode:
        for p in self.nodes:
            if p.node.key == key:
                return p
        raise KeyError(key)  # pragma: no cover - planner invariant

    def execute(self) -> list[Any]:
        """Run the plan; returns one result per root, in request order.

        Leaf roots yield their named-array dicts; ratio reductions a
        plain ndarray; isoefficiency fits an
        :class:`~repro.core.isoefficiency.IsoefficiencyFit`.
        """
        runs = 0
        for members in self.groups.values():
            if len(members) == 1:
                node = members[0].node
                arrays = self.executor.evaluate(node.op, node.args, node.axis)
                runs += 1
                self.results[node.key] = self._store(node, arrays)
            else:
                union = _union_axis([m.node for m in members])
                arrays = self.executor.evaluate(
                    members[0].node.op, members[0].node.args, union
                )
                runs += 1
                surface = family_for(members[0].node.op).surface
                for member in members:
                    idx = np.searchsorted(union, member.node.axis)
                    sliced = {
                        name: a[idx, :] if surface else a[idx]
                        for name, a in arrays.items()
                    }
                    self.results[member.node.key] = self._store(
                        member.node, sliced
                    )
        for p in self.nodes:
            if p.status == "reduce":
                children = [self.results[c.key] for c in p.node.inputs]
                self.results[p.node.key] = _reduce(p.node, children)
        if self.stats is not None and runs:
            lock = self.cache._lock if self.cache is not None else _NULL_LOCK
            with lock:
                self.stats.count_executor_run(self.executor.name, runs)
        self.executed = True
        return [self.results[root.key] for root in self.roots]

    def _store(self, node: Node, arrays: dict[str, np.ndarray]) -> Any:
        if self.cache is None:
            return arrays
        return self.cache.store(node.key, arrays)


class _NullLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LOCK = _NullLock()


def _union_axis(nodes: Sequence[Node]) -> np.ndarray:
    """Sorted union of the members' axes (dtype shared family-wide)."""
    return np.unique(np.concatenate([n.axis for n in nodes]))


def _speedup_quotient(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> np.ndarray:
    """The ``ratio`` reduction: curve A's optimal speedup over curve B's.

    Over two allocation curves, the vectorized
    :func:`repro.core.crossover.speedup_ratio` (A/B > 1 ⇒ A wins) and
    :func:`repro.core.crossover.strip_square_ratio` (< 1 ⇒ squares win),
    bit for bit.
    """
    return a["speedup"] / b["speedup"]


def _fit_isoefficiency(sides: np.ndarray, processor_counts: Sequence[int]) -> IsoefficiencyFit:
    """The ``isoefficiency_fit`` reduction: the n² growth exponent in N.

    Over a grid-for-efficiency curve, the batched
    :func:`repro.core.isoefficiency.isoefficiency_exponent`: same
    least-squares fit, same grid sides.
    """
    log_n2 = np.log([float(s) * s for s in sides])
    log_p = np.log(np.asarray(processor_counts, dtype=float))
    slope = float(np.polyfit(log_p, log_n2, 1)[0])
    return IsoefficiencyFit(
        exponent=slope,
        processors=tuple(int(pc) for pc in processor_counts),
        problem_sizes=tuple(int(s) for s in sides),
    )


def _reduce(node: Node, children: list[Any]) -> Any:
    """Fold one reduction node over its children's results."""
    if node.op == "ratio":
        return _speedup_quotient(*children)
    if node.op == "isoefficiency_fit":
        return _fit_isoefficiency(children[0]["sides"], node.args["processor_counts"])
    raise InvalidParameterError(f"unknown reduction op {node.op!r}")


def plan(
    requests: Sequence[Node],
    cache: SweepCache | None = None,
    executor: "str | Executor" = "numpy",
    lookup: bool = True,
    stats: CacheStats | None = None,
) -> Plan:
    """Optimize a node forest into an executable :class:`Plan`.

    ``lookup=False`` skips the cache probe (results still *store* under
    their fingerprints) — the sweep service uses it for batch leaders
    whose members were each already counted as a miss by the request
    pipeline, keeping daemon-side hit/miss totals identical to the
    offline path.

    ``stats`` overrides where planner counters land; by default they go
    to ``cache.stats`` (or nowhere when there is no cache).
    """
    backend = get_executor(executor)
    out = Plan(
        roots=tuple(requests),
        executor=backend,
        cache=cache,
        # NB: SweepCache defines __len__, so an *empty* cache is falsy —
        # the identity check matters.
        stats=stats if stats is not None else (cache.stats if cache is not None else None),
    )

    # Pass 1: dedup — post-order walk, one PlannedNode per fingerprint.
    seen: dict[str, PlannedNode] = {}

    def visit(node: Node) -> None:
        known = seen.get(node.key)
        if known is not None:
            known.instances += 1
            return
        for child in node.inputs:
            visit(child)
        planned = PlannedNode(
            node=node,
            index=len(out.nodes) + 1,
            status="reduce" if node.is_reduction else "compute",
        )
        seen[node.key] = planned
        out.nodes.append(planned)

    for root in requests:
        visit(root)

    # Pass 2: cache probe — one lookup per unique cacheable leaf.
    if cache is not None and lookup:
        for p in out.nodes:
            if p.status == "compute" and p.node.request is not None:
                arrays, tier = cache.lookup_level(p.node.key)
                if arrays is not None:
                    p.status, p.tier = "cached", tier
                    out.results[p.node.key] = arrays

    # Pass 3: fuse — group remaining leaves by compatibility.
    buckets: dict[object, int] = {}
    for p in out.nodes:
        if p.status != "compute":
            continue
        bucket_key = (
            (p.node.op, p.node.compat) if p.node.is_fusable else ("solo", p.index)
        )
        gid = buckets.get(bucket_key)
        if gid is None:
            gid = len(out.groups) + 1
            buckets[bucket_key] = gid
            out.groups[gid] = []
        out.groups[gid].append(p)
        p.group = gid

    if out.stats is not None:
        lock = cache._lock if cache is not None else _NULL_LOCK
        with lock:
            out.stats.nodes_planned += out.n_nodes
            out.stats.siblings_fused += out.siblings_fused
            out.stats.subgraphs_deduped += out.subgraphs_deduped
    return out


def evaluate(
    requests: Sequence[Node],
    cache: SweepCache | None = None,
    executor: "str | Executor" = "numpy",
) -> list[Any]:
    """Plan and execute in one call; returns one result per root."""
    return plan(requests, cache=cache, executor=executor).execute()
