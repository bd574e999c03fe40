"""The sweep graph is bit-equal to the scalar oracle on every backend.

Acceptance contract for :mod:`repro.graph`: a curve planned and
executed through the graph equals the scalar :mod:`repro.core` routines
bit for bit on *both* executors — the vectorized ``numpy`` backend and
the element-by-element ``oracle`` reference — across all catalog
presets, both partition kinds, and both stencils.  On top of parity,
the planner's optimizations are pinned: fused sibling slices equal solo
evaluations exactly, shared subgraphs compute once, and cache probes
count hits/misses identically to the eager layer.
"""

import zlib

import numpy as np
import pytest

from repro.batch.cache import SweepCache
from repro.batch.engine import SweepSpec, run_sweep
from repro.core.allocation import optimize_allocation
from repro.core.isoefficiency import isoefficiency_exponent
from repro.core.minimal_size import max_useful_processors as scalar_max_useful
from repro.core.minimal_size import minimal_problem_size as scalar_n2_min
from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.graph import (
    Executor,
    NumpyExecutor,
    OracleExecutor,
    executor_names,
    get_executor,
    nodes,
    plan,
)
from repro.graph.planner import evaluate
from repro.machines.bus import BusArchitecture
from repro.machines.catalog import DEFAULT_MACHINES, INTEL_IPSC, PAPER_BUS
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

MACHINE_ITEMS = sorted(DEFAULT_MACHINES.items())
BUS_ITEMS = [(n, m) for n, m in MACHINE_ITEMS if isinstance(m, BusArchitecture)]
STENCILS = [FIVE_POINT, NINE_POINT_BOX]
EXECUTORS = ["numpy", "oracle"]


def _sides(seed_key, lo=4, hi=4000, size=8):
    # crc32, not hash(): str hashing is salted per process, and this
    # suite's failures must be reproducible by rerunning the test id.
    rng = np.random.default_rng(zlib.crc32(repr(seed_key).encode()))
    return sorted(set(rng.integers(lo, hi, size=size).tolist()))


def _assert_arrays_equal(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(np.asarray(got[name]), np.asarray(want[name])), name


class TestExecutorParity:
    """Every family, every preset, both kinds/stencils, both backends."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_allocation_matches_scalar(self, executor, name, machine, kind, stencil):
        sides = _sides(("g-alloc", name, kind.value, stencil.name))
        node = nodes.allocation_curve(machine, stencil, kind, sides)
        (arrays,) = evaluate([node], executor=executor)
        for i, n in enumerate(sides):
            scalar = optimize_allocation(machine, Workload(n=n, stencil=stencil), kind)
            assert arrays["speedup"][i] == scalar.speedup, (executor, name, n)
            assert arrays["processors"][i] == scalar.processors
            assert arrays["area"][i] == scalar.area
            assert arrays["cycle_time"][i] == scalar.cycle_time
            assert arrays["efficiency"][i] == scalar.efficiency
            assert arrays["regime"][i] == scalar.regime

    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    def test_integer_allocation_backends_agree(self, name, machine, kind):
        sides = _sides(("g-int", name, kind.value), lo=8, hi=2500)
        node = nodes.allocation_curve(machine, FIVE_POINT, kind, sides, integer=True)
        (via_numpy,) = evaluate([node], executor="numpy")
        (via_oracle,) = evaluate([node], executor="oracle")
        _assert_arrays_equal(via_numpy, via_oracle)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name,machine", BUS_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_max_useful_matches_scalar(self, executor, name, machine, kind, stencil):
        sides = _sides(("g-mup", name, kind.value, stencil.name), lo=16, hi=5000)
        node = nodes.max_useful_processors(machine, stencil, kind, sides)
        (arrays,) = evaluate([node], executor=executor)
        for i, n in enumerate(sides):
            scalar = scalar_max_useful(machine, Workload(n=n, stencil=stencil), kind)
            assert arrays["max_useful"][i] == scalar, (executor, name, n)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name,machine", BUS_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_minimal_problem_size_matches_scalar(
        self, executor, name, machine, kind, stencil
    ):
        procs = [2, 3, 7, 14, 22, 30, 64]
        node = nodes.minimal_problem_size(machine, stencil, kind, procs)
        (arrays,) = evaluate([node], executor=executor)
        for i, p in enumerate(procs):
            scalar = scalar_n2_min(machine, Workload(n=2, stencil=stencil), kind, p)
            assert arrays["n2_min"][i] == scalar, (executor, name, p)

    @pytest.mark.parametrize("machine,kind", [
        (INTEL_IPSC, PartitionKind.SQUARE),
        (PAPER_BUS, PartitionKind.SQUARE),
        (PAPER_BUS, PartitionKind.STRIP),
    ])
    def test_grid_for_efficiency_backends_agree(self, machine, kind):
        node = nodes.grid_for_efficiency(machine, FIVE_POINT, kind, [4, 8, 16, 32], 0.5)
        (via_numpy,) = evaluate([node], executor="numpy")
        (via_oracle,) = evaluate([node], executor="oracle")
        _assert_arrays_equal(via_numpy, via_oracle)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_sweep_matches_eager_engine(self, executor, kind, stencil):
        spec = SweepSpec(
            grid_sides=(16, 48, 130),
            processors=(1.0, 4.0, 16.0),
            machines=(
                ("ipsc", DEFAULT_MACHINES["ipsc"]),
                ("paper-bus", DEFAULT_MACHINES["paper-bus"]),
            ),
            stencil=stencil,
            kind=kind,
        )
        (surfaces,) = evaluate([nodes.sweep(spec)], executor=executor)
        _assert_arrays_equal(surfaces, dict(run_sweep(spec).cycle_times))

    @pytest.mark.parametrize("name,machine", BUS_ITEMS)
    def test_plan_grid_backends_agree(self, name, machine):
        # The grid branch of the capacity plan, on both kernels.
        node = nodes.capacity_plan(machine, 256, [2, 5, 8, 16, 32, 64])
        (via_numpy,) = evaluate([node], executor="numpy")
        (via_oracle,) = evaluate([node], executor="oracle")
        _assert_arrays_equal(via_numpy, via_oracle)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_reductions_match_the_oracle_executor(self, executor):
        cube = DEFAULT_MACHINES["ipsc"]
        net = DEFAULT_MACHINES["butterfly"]
        sides = _sides("g-ratio", lo=32, hi=3000)
        ratio = nodes.speedup_ratio(cube, net, FIVE_POINT, PartitionKind.SQUARE, sides)
        (got,) = evaluate([ratio], executor=executor)
        (want,) = evaluate([ratio], executor="oracle")
        assert np.array_equal(got, want)

        procs = [4, 8, 16, 32, 64]
        fit = nodes.isoefficiency_fit(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, procs, 0.5
        )
        (got_fit,) = evaluate([fit], executor=executor)
        (want_fit,) = evaluate([fit], executor="oracle")
        assert got_fit.exponent == want_fit.exponent
        assert got_fit.problem_sizes == want_fit.problem_sizes
        assert got_fit.processors == want_fit.processors
        scalar = isoefficiency_exponent(
            PAPER_BUS, Workload(n=16, stencil=FIVE_POINT), PartitionKind.SQUARE,
            procs, 0.5,
        )
        assert got_fit.exponent == scalar.exponent


class TestFusion:
    """Fused sibling slices are bit-identical to solo evaluations."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fused_allocation_slices_equal_solo(self, executor):
        axes = ([64, 128, 300, 700], [100, 300, 512], [64, 512, 2048])
        batch = [
            nodes.allocation_curve(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, sides
            )
            for sides in axes
        ]
        p = plan(batch, executor=executor)
        assert p.evaluations == 1
        assert p.siblings_fused == 2
        fused = p.execute()
        for node, sides, arrays in zip(batch, axes, fused):
            (solo,) = evaluate([nodes.allocation_curve(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, sides
            )], executor=executor)
            _assert_arrays_equal(arrays, solo)

    def test_fused_sweep_slices_equal_solo(self):
        def spec(sides):
            return SweepSpec(
                grid_sides=tuple(sides),
                processors=(1.0, 8.0, 64.0),
                machines=(("flex32", DEFAULT_MACHINES["flex32"]),),
            )

        batch = [nodes.sweep(spec([16, 64, 256])), nodes.sweep(spec([32, 64, 512]))]
        p = plan(batch)
        assert p.evaluations == 1
        a, b = p.execute()
        _assert_arrays_equal(a, dict(run_sweep(spec([16, 64, 256])).cycle_times))
        _assert_arrays_equal(b, dict(run_sweep(spec([32, 64, 512])).cycle_times))

    def test_incompatible_requests_do_not_fuse(self):
        a = nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64])
        b = nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.STRIP, [64])
        c = nodes.allocation_curve(INTEL_IPSC, FIVE_POINT, PartitionKind.SQUARE, [64])
        p = plan([a, b, c])
        assert p.evaluations == 3
        assert p.siblings_fused == 0

    def test_mixed_families_fuse_per_family(self):
        batch = [
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64]),
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [128]),
            nodes.max_useful_processors(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64]
            ),
            nodes.max_useful_processors(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [128]
            ),
        ]
        p = plan(batch)
        assert p.evaluations == 2
        assert p.siblings_fused == 2


class TestDedupAndCache:
    def test_shared_subgraph_computes_once(self):
        # The strip/square ratio's square child is the same node as a
        # direct square allocation request — one evaluation serves both.
        sides = [64, 256, 1024]
        ratio = nodes.strip_square_ratio(PAPER_BUS, FIVE_POINT, sides)
        direct = nodes.allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, sides
        )
        p = plan([ratio, direct])
        assert p.n_nodes == 3  # strip leaf, square leaf (shared), ratio
        assert p.subgraphs_deduped == 1
        ratio_arr, alloc = p.execute()
        assert np.array_equal(
            ratio_arr,
            p.results[ratio.inputs[0].key]["speedup"] / alloc["speedup"],
        )

    def test_identical_requests_collapse_to_one_node(self):
        sides = [64, 128]
        twice = [
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, sides),
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, sides),
        ]
        p = plan(twice)
        assert p.n_nodes == 1 and p.subgraphs_deduped == 1
        a, b = p.execute()
        _assert_arrays_equal(a, b)

    def test_cache_probe_hits_and_planner_counters(self):
        cache = SweepCache()
        node = nodes.allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64, 256]
        )
        (cold,) = evaluate([node], cache=cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        warm_plan = plan([node], cache=cache)
        assert warm_plan.cache_hits == 1 and warm_plan.evaluations == 0
        (warm,) = warm_plan.execute()
        _assert_arrays_equal(warm, cold)
        assert cache.stats.hits == 1
        assert cache.stats.nodes_planned == 2
        assert cache.stats.executor_runs == {"numpy": 1}

    def test_graph_results_share_entries_with_eager_layer(self):
        from repro.batch import optimal_allocation_curve

        cache = SweepCache()
        optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64, 256], cache=cache
        )
        p = plan(
            [nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64, 256])],
            cache=cache,
        )
        assert p.cache_hits == 1  # the eager store serves the graph probe

    def test_lookup_false_skips_probe_but_still_stores(self):
        cache = SweepCache()
        node = nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64])
        evaluate([node], cache=cache)
        p = plan([node], cache=cache, lookup=False)
        assert p.cache_hits == 0 and p.evaluations == 1
        assert cache.stats.hits == 0 and cache.stats.misses == 1


class TestExplain:
    def test_explain_shows_fusion_dedup_and_hits(self):
        cache = SweepCache()
        warmed = nodes.allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [512]
        )
        evaluate([warmed], cache=cache)
        batch = [
            warmed,
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64]),
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [128]),
            nodes.strip_square_ratio(PAPER_BUS, FIVE_POINT, [64]),
        ]
        text = plan(batch, cache=cache).explain()
        assert text.startswith("sweep graph: 4 request(s) ->")
        assert "cached (memory)" in text
        assert "fused -> group" in text
        assert "reduce(" in text
        assert "union axis" in text

    def test_explain_is_deterministic_and_execution_free(self):
        batch = [
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64]),
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [128]),
        ]
        p = plan(batch)
        assert p.explain() == plan(batch).explain()
        assert not p.executed and not p.results


class TestValidationAndRegistry:
    def test_builders_reject_bad_axes_like_the_eager_layer(self):
        with pytest.raises(InvalidParameterError):
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [])
        with pytest.raises(InvalidParameterError):
            nodes.allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [0])
        with pytest.raises(InvalidParameterError):
            nodes.allocation_curve(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64], max_processors=0.5
            )
        with pytest.raises(InvalidParameterError):
            nodes.grid_for_efficiency(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [4], 1.5
            )
        with pytest.raises(InvalidParameterError):
            nodes.grid_for_efficiency(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [1], 0.5
            )
        with pytest.raises(InvalidParameterError):
            nodes.isoefficiency_fit(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [4], 0.5
            )
        with pytest.raises(InvalidParameterError):
            nodes.capacity_plan(PAPER_BUS, 256, [])
        with pytest.raises(InvalidParameterError):
            nodes.minimal_problem_size(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [0]
            )
        # Every family's axis passes the same declared checks: empty and
        # 2-D axes are rejected by the bus thresholds too.
        for builder in (nodes.max_useful_processors, nodes.minimal_problem_size):
            for bad in ([], [[4]]):
                with pytest.raises(InvalidParameterError):
                    builder(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, bad)

    def test_unknown_executor_names_the_known_ones(self):
        with pytest.raises(InvalidParameterError, match="numpy"):
            get_executor("cuda")
        assert "numpy" in executor_names() and "oracle" in executor_names()

    def test_instances_pass_through_and_custom_backends_register(self):
        assert isinstance(get_executor(NumpyExecutor()), NumpyExecutor)
        assert isinstance(get_executor("oracle"), OracleExecutor)

        class Tracing(OracleExecutor):
            name = "tracing"
            calls = 0

            def evaluate(self, op, args, axis):
                type(self).calls += 1
                return super().evaluate(op, args, axis)

        from repro.graph import register_executor

        register_executor("tracing", Tracing)
        try:
            node = nodes.allocation_curve(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64]
            )
            evaluate([node], executor="tracing")
            assert Tracing.calls == 1
        finally:
            from repro.graph import executors as _executors

            _executors._REGISTRY.pop("tracing", None)

    def test_unknown_ops_are_rejected_by_both_backends(self):
        for backend in (NumpyExecutor(), OracleExecutor()):
            with pytest.raises(InvalidParameterError):
                backend.evaluate("nonsense", {}, np.array([1.0]))


class TestExecutorSubclassContract:
    def test_base_evaluate_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Executor().evaluate("sweep", {}, np.array([1.0]))
