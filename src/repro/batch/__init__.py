"""repro.batch — batched sweep engine over (N, P, machine, stencil) grids.

Everything the paper plots is a curve family over problem size ``n``,
processor count ``P``, and architecture.  This package evaluates those
families *densely and vectorized*: one NumPy-broadcast call per machine
instead of a Python loop per point, which is 10–100× faster on the
grids the experiments sweep and is the substrate future scaling PRs
(result caching, the sweep service, new workloads) build on.

Usage::

    import numpy as np
    from repro.batch import SweepSpec, run_sweep

    # Cycle time / speedup / efficiency surfaces for the whole catalog
    # over a dense (N, P) grid — one vectorized call per machine.
    spec = SweepSpec.across_catalog(
        grid_sides=[128, 256, 512, 1024],
        processors=np.arange(1, 257),
    )
    result = run_sweep(spec)
    s = result.speedup("paper-bus")        # shape (4, 256)
    e = result.efficiency("butterfly")     # S(n, P) / P
    best_p = np.argmax(s, axis=1) + 1      # optimal P per grid side

    # Vectorized closed forms the experiments consume directly:
    from repro.batch import optimal_speedup_curve
    from repro.machines.catalog import PAPER_BUS
    from repro.stencils.library import FIVE_POINT
    from repro.stencils.perimeter import PartitionKind

    curve = optimal_speedup_curve(
        PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [256, 1024, 4096]
    )
    curve.speedup      # == optimal_speedup(...) per n, bit for bit

The same example lives runnable in ``examples/quickstart.py``.

Design contract
---------------
Batched results match the scalar ``core``/``machines`` paths **bit for
bit**: the vectorized code transcribes the same floating-point
operations in the same order, so experiments rewired onto this engine
emit numerically identical CSV artifacts.  ``tests/batch`` enforces the
equivalence on randomized (n, P, architecture) grids.
"""

from repro.batch.curves import (
    OptimalSpeedupCurve,
    RectangleErrorCurve,
    bus_optimal_area_curve,
    closed_form_optimal_speedup_async_bus_curve,
    closed_form_optimal_speedup_sync_bus_curve,
    k_matrix,
    minimal_grid_side_curve,
    optimal_speedup_curve,
    rectangle_error_curves,
    table1_speedup_curve,
    uses_all_processors_curve,
)
from repro.batch.engine import SweepSpec, SweepResult, run_sweep
from repro.batch.analysis import (
    AllocationCurve,
    find_crossover_grid_size_batch,
    optimal_allocation_curve,
    scaled_speedup_banyan_curve,
    scaled_speedup_hypercube_curve,
)
from repro.batch.cache import (
    CacheStats,
    SweepCache,
    fingerprint,
)
from repro.batch.sim import (
    ReplicaBatchResult,
    ReplicaBatchSpec,
    machine_sim_tag,
    replica_request,
    simulate_replicas,
)

# optimal_allocation_curve binds repro.graph lazily per call to keep
# the module graph acyclic (graph.nodes imports repro.batch.cache).
# Load it eagerly here — cache/engine/analysis are fully defined by
# now — so the first curve call doesn't pay the graph's import cost
# inside a caller's timed region.  When repro.graph itself started the
# import chain, it is already (partially) in sys.modules and this is a
# no-op.
import repro.graph  # noqa: E402,F401  (eager: first-call latency)

__all__ = [
    "AllocationCurve",
    "CacheStats",
    "OptimalSpeedupCurve",
    "RectangleErrorCurve",
    "ReplicaBatchResult",
    "ReplicaBatchSpec",
    "SweepCache",
    "SweepResult",
    "SweepSpec",
    "bus_optimal_area_curve",
    "closed_form_optimal_speedup_async_bus_curve",
    "closed_form_optimal_speedup_sync_bus_curve",
    "uses_all_processors_curve",
    "find_crossover_grid_size_batch",
    "fingerprint",
    "k_matrix",
    "machine_sim_tag",
    "minimal_grid_side_curve",
    "optimal_allocation_curve",
    "optimal_speedup_curve",
    "rectangle_error_curves",
    "replica_request",
    "run_sweep",
    "scaled_speedup_banyan_curve",
    "scaled_speedup_hypercube_curve",
    "simulate_replicas",
    "table1_speedup_curve",
]
