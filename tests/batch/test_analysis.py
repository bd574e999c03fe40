"""The array-first analysis layer matches the scalar core oracle exactly.

Acceptance contract for ``repro.batch.analysis``: allocation area,
speedup, n²_min, max useful processors, crossovers, and isoefficiency
exponents agree with the scalar :mod:`repro.core` routines bit for bit
(the transcriptions reuse the same floating-point operations in the
same order) across all four machine families, both partition kinds,
and both stencils.

Each family is evaluated the one offline way, as a graph node planned
on the NumPy executor, so these sweeps pin the parity twins that
executor runs: the kernels ``_compute_max_useful``,
``_compute_minimal_problem_size`` and ``_compute_grid_for_efficiency``,
and the planner's reductions ``_speedup_quotient`` (both ratios) and
``_fit_isoefficiency``.
"""

import zlib

import numpy as np
import pytest

from repro.batch import (
    find_crossover_grid_size_batch,
    optimal_allocation_curve,
    scaled_speedup_banyan_curve,
    scaled_speedup_hypercube_curve,
)
from repro.core.allocation import optimize_allocation
from repro.core.crossover import (
    find_crossover_grid_size,
    speedup_ratio,
    strip_square_ratio,
)
from repro.core.isoefficiency import grid_for_efficiency, isoefficiency_exponent
from repro.core.minimal_size import max_useful_processors, minimal_problem_size
from repro.core.parameters import Workload
from repro.core.scaling import scaled_speedup_banyan, scaled_speedup_hypercube
from repro.errors import InvalidParameterError
from repro.graph import evaluate, nodes
from repro.machines.bus import BusArchitecture
from repro.machines.catalog import (
    BBN_BUTTERFLY,
    DEFAULT_MACHINES,
    INTEL_IPSC,
    PAPER_BUS,
)
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

MACHINE_ITEMS = sorted(DEFAULT_MACHINES.items())
BUS_ITEMS = [(n, m) for n, m in MACHINE_ITEMS if isinstance(m, BusArchitecture)]
STENCILS = [FIVE_POINT, NINE_POINT_BOX]


def _evaluate(node):
    """One family node planned on the NumPy executor."""
    return evaluate([node])[0]


def _sides(seed_key, lo=4, hi=4000, size=10):
    # crc32, not hash(): str hashing is salted per process, and this
    # suite's failures must be reproducible by rerunning the test id.
    rng = np.random.default_rng(zlib.crc32(repr(seed_key).encode()))
    return sorted(set(rng.integers(lo, hi, size=size).tolist()))


class TestAllocationCurve:
    """optimal_allocation_curve == optimize_allocation, element by element."""

    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_continuous_matches_scalar(self, name, machine, kind, stencil):
        sides = _sides((name, kind.value, stencil.name))
        curve = optimal_allocation_curve(machine, stencil, kind, sides)
        for i, n in enumerate(sides):
            scalar = optimize_allocation(machine, Workload(n=n, stencil=stencil), kind)
            assert curve.speedup[i] == scalar.speedup
            assert curve.processors[i] == scalar.processors
            assert curve.area[i] == scalar.area
            assert curve.cycle_time[i] == scalar.cycle_time
            assert curve.efficiency[i] == scalar.efficiency
            assert curve.regime[i] == scalar.regime

    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("max_processors", [None, 1, 16, 1000])
    def test_integer_rounding_matches_scalar(self, name, machine, kind, max_processors):
        sides = _sides(("int", name, kind.value, max_processors), lo=8, hi=2500)
        curve = optimal_allocation_curve(
            machine,
            FIVE_POINT,
            kind,
            sides,
            max_processors=max_processors,
            integer=True,
        )
        for i, n in enumerate(sides):
            scalar = optimize_allocation(
                machine,
                Workload(n=n, stencil=FIVE_POINT),
                kind,
                max_processors=max_processors,
                integer=True,
            )
            assert curve.area[i] == scalar.area, (name, kind, n)
            assert curve.speedup[i] == scalar.speedup
            assert curve.cycle_time[i] == scalar.cycle_time
            assert curve.processors[i] == scalar.processors
            assert curve.regime[i] == scalar.regime

    @pytest.mark.parametrize("n", [455, 525, 2325])
    def test_exact_cycle_time_tie_breaks_identically(self, n):
        # On the c-dominated FLEX/32 bus the floor- and ceil-bracketed
        # strip areas can tie *exactly* on cycle time; both paths must
        # then pick the same (floor-derived, first-listed) candidate.
        machine = DEFAULT_MACHINES["flex32"]
        curve = optimal_allocation_curve(
            machine, FIVE_POINT, PartitionKind.STRIP, [n], integer=True
        )
        scalar = optimize_allocation(
            machine, Workload(n=n, stencil=FIVE_POINT), PartitionKind.STRIP, integer=True
        )
        assert curve.area[0] == scalar.area
        assert curve.cycle_time[0] == scalar.cycle_time
        assert curve.processors[0] == scalar.processors

    def test_rejects_bad_axes(self):
        with pytest.raises(InvalidParameterError):
            optimal_allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [])
        with pytest.raises(InvalidParameterError):
            optimal_allocation_curve(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [0])
        with pytest.raises(InvalidParameterError):
            optimal_allocation_curve(
                PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [64], max_processors=0.5
            )


class TestMinimalSizeCurves:
    @pytest.mark.parametrize("name,machine", BUS_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_max_useful_processors(self, name, machine, kind, stencil):
        sides = _sides(("mup", name, kind.value, stencil.name), lo=16, hi=5000)
        curve = _evaluate(nodes.max_useful_processors(machine, stencil, kind, sides))["max_useful"]
        for i, n in enumerate(sides):
            scalar = max_useful_processors(
                machine, Workload(n=n, stencil=stencil), kind
            )
            assert curve[i] == scalar

    @pytest.mark.parametrize("name,machine", BUS_ITEMS)
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("stencil", STENCILS)
    def test_minimal_problem_size(self, name, machine, kind, stencil):
        procs = [2, 3, 7, 14, 22, 30, 64]
        curve = _evaluate(nodes.minimal_problem_size(machine, stencil, kind, procs))["n2_min"]
        for i, p in enumerate(procs):
            scalar = minimal_problem_size(
                machine, Workload(n=2, stencil=stencil), kind, p
            )
            assert curve[i] == scalar


class TestCrossoverBatch:
    def test_matches_scalar_bisection(self):
        def scalar_metric(n: int) -> float:
            return 1.0 / strip_square_ratio(
                PAPER_BUS, Workload(n=n, stencil=FIVE_POINT)
            )

        def batch_metric(ns: np.ndarray) -> np.ndarray:
            return 1.0 / _evaluate(nodes.strip_square_ratio(PAPER_BUS, FIVE_POINT, ns))

        for threshold in (1.5, 2.0, 3.0):
            scalar = find_crossover_grid_size(scalar_metric, threshold=threshold)
            batch = find_crossover_grid_size_batch(batch_metric, threshold=threshold)
            assert batch.n == scalar.n
            assert batch.value_after == scalar.value_after
            assert batch.value_before == scalar.value_before

    def test_machine_ratio_curve_matches_scalar(self):
        cube = DEFAULT_MACHINES["ipsc"]
        net = DEFAULT_MACHINES["butterfly"]
        sides = _sides("ratio", lo=32, hi=3000)
        curve = _evaluate(nodes.speedup_ratio(cube, net, FIVE_POINT, PartitionKind.SQUARE, sides))
        for i, n in enumerate(sides):
            scalar = speedup_ratio(
                cube, net, Workload(n=n, stencil=FIVE_POINT), PartitionKind.SQUARE
            )
            assert curve[i] == scalar

    def test_immediate_and_unreachable_thresholds(self):
        metric = lambda ns: np.asarray(ns, dtype=float)
        hit = find_crossover_grid_size_batch(metric, threshold=1.0, n_lo=2, n_hi=64)
        assert hit.n == 2 and np.isnan(hit.value_before)
        with pytest.raises(InvalidParameterError):
            find_crossover_grid_size_batch(metric, threshold=1e9, n_lo=2, n_hi=64)
        with pytest.raises(InvalidParameterError):
            find_crossover_grid_size_batch(metric, threshold=1.0, n_lo=8, n_hi=8)


class TestIsoefficiencyGrid:
    CONFIGS = [
        (INTEL_IPSC, PartitionKind.SQUARE),
        (BBN_BUTTERFLY, PartitionKind.SQUARE),
        (PAPER_BUS, PartitionKind.SQUARE),
        (PAPER_BUS, PartitionKind.STRIP),
    ]

    @pytest.mark.parametrize("machine,kind", CONFIGS)
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.8])
    def test_grid_sides_match_scalar(self, machine, kind, target):
        procs = [4, 8, 16, 32, 64]
        batch = _evaluate(nodes.grid_for_efficiency(machine, FIVE_POINT, kind, procs, target))["sides"]
        for i, p in enumerate(procs):
            scalar = grid_for_efficiency(
                machine, Workload(n=16, stencil=FIVE_POINT), kind, p, target
            )
            assert int(batch[i]) == scalar, (machine, kind, p, target)

    @pytest.mark.parametrize("machine,kind", CONFIGS)
    def test_exponent_matches_scalar(self, machine, kind):
        procs = [4, 8, 16, 32, 64]
        batch = _evaluate(nodes.isoefficiency_fit(machine, FIVE_POINT, kind, procs, 0.5))
        scalar = isoefficiency_exponent(
            machine, Workload(n=16, stencil=FIVE_POINT), kind, procs, 0.5
        )
        assert batch.exponent == scalar.exponent
        assert batch.problem_sizes == scalar.problem_sizes
        assert batch.processors == scalar.processors

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            nodes.grid_for_efficiency(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [4], 1.5)
        with pytest.raises(InvalidParameterError):
            nodes.grid_for_efficiency(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [1], 0.5)
        with pytest.raises(InvalidParameterError):
            nodes.isoefficiency_fit(PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, [4], 0.5)

    def test_unreachable_efficiency_raises(self):
        with pytest.raises(InvalidParameterError, match="no grid up to"):
            _evaluate(nodes.grid_for_efficiency(
                PAPER_BUS,
                FIVE_POINT,
                PartitionKind.STRIP,
                [4, 4096],
                0.9,
                n_max=1 << 12,
            ))


class TestScaledCurves:
    def test_hypercube_matches_scalar(self):
        cube = DEFAULT_MACHINES["ipsc"]
        sides = [2**e for e in range(6, 14)]
        curve = scaled_speedup_hypercube_curve(cube, FIVE_POINT, 1e-6, sides, 64.0)
        for i, n in enumerate(sides):
            assert curve[i] == scaled_speedup_hypercube(cube, FIVE_POINT, 1e-6, n, 64.0)

    def test_banyan_matches_scalar_including_odd_sizes(self):
        net = DEFAULT_MACHINES["butterfly"]
        sides = [65, 100, 333, 1023, 4097]  # non-power-of-two log2 args
        curve = scaled_speedup_banyan_curve(net, FIVE_POINT, 1e-6, sides, 50.0)
        for i, n in enumerate(sides):
            assert curve[i] == scaled_speedup_banyan(net, FIVE_POINT, 1e-6, n, 50.0)

    def test_validation(self):
        net = DEFAULT_MACHINES["butterfly"]
        with pytest.raises(InvalidParameterError):
            scaled_speedup_hypercube_curve(
                DEFAULT_MACHINES["ipsc"], FIVE_POINT, 1e-6, [64], 0.0
            )
        with pytest.raises(InvalidParameterError):
            scaled_speedup_banyan_curve(net, FIVE_POINT, 1e-6, [4], 64.0)
