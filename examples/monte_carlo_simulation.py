#!/usr/bin/env python
"""A 1000-replica Monte Carlo ensemble through the sweep daemon.

The event-level simulator advances one replica at a time; the batched
tier (`repro.batch.sim`) advances a whole ensemble in lockstep NumPy
arrays, bit-equal per replica to the scalar oracle.  This script runs
the headline scenario end to end:

1. *Offline ensemble* — 1000 jittered replicas of one (machine, grid,
   P) configuration in a single `simulate_replicas` call, summarized
   as a cycle-time band.
2. *The same ensemble through the daemon* — an in-process
   `repro serve` daemon answers a `sim_sweep` request with the exact
   same bytes; repeats are memory hits, and `/v1/stats` counts the
   sim traffic.
3. *Model-vs-simulation validation* — a `sim_validate` request
   returns the analytic and simulated cycle-time columns for a sweep
   of processor counts, served from the same shared store.

Run:  python examples/monte_carlo_simulation.py
"""

import numpy as np

from repro.batch.sim import ReplicaBatchSpec, simulate_replicas
from repro.graph.families import family_for
from repro.machines.catalog import PAPER_BUS
from repro.service import AsyncSweepServer, ServiceClient
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

REPLICAS = 1000
N, P = 48, 8


def offline_ensemble() -> np.ndarray:
    spec = ReplicaBatchSpec.monte_carlo(
        PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, N, P, REPLICAS,
        jitter=0.05,
    )
    result = simulate_replicas(spec)
    band = result.band()
    print(f"offline: {REPLICAS} replicas of {N}x{N} on P={P} (paper-bus)")
    print(
        f"  cycle time mean {band['mean']:.6g} s, std {band['std']:.3g}, "
        f"90% band [{band['q05']:.6g}, {band['q95']:.6g}]"
    )
    return result.cycle_times


def served_ensemble(server: AsyncSweepServer, offline: np.ndarray) -> None:
    client = ServiceClient(server.url)
    # Consecutive seeds travel as the replicas + seed shorthand.
    request = family_for("sim_sweep").payload(
        machine="paper-bus", n=N, n_processors=P, seeds=range(REPLICAS), jitter=0.05
    )
    arrays = client.compute(request)
    identical = arrays["cycle_times"].tobytes() == offline.tobytes()
    print(f"daemon: {arrays['cycle_times'].size} replicas served "
          f"({client.last_served}); bit-identical to offline: {identical}")

    client.compute(request)
    print(f"repeat served from: {client.last_served}")
    stats = client.stats()
    print(f"daemon counters: sim={stats['counters']['sim']}, "
          f"hits={stats['counters']['hits']}")


def served_validation(server: AsyncSweepServer) -> None:
    client = ServiceClient(server.url)
    arrays = client.compute(
        family_for("sim_validate").payload("paper-bus", n=N, processor_counts=[1, 2, 4, 8, 16])
    )
    print("model vs simulation (paper-bus, 5-point squares):")
    print("  P     analytic      simulated     rel err")
    for p, a, s in zip(
        arrays["processors"], arrays["analytic"], arrays["simulated"]
    ):
        print(f"  {int(p):<4}  {a:.6g}   {s:.6g}   {(s - a) / a:+.2%}")


def main() -> None:
    offline = offline_ensemble()
    print()
    with AsyncSweepServer(port=0) as server:
        served_ensemble(server, offline)
        print()
        served_validation(server)


if __name__ == "__main__":
    main()
