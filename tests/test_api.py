"""Public API surface: the README quickstart must work as written."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", ["repro.batch", "repro.graph", "repro.service"])
    def test_subpackage_names_resolve(self, module):
        package = importlib.import_module(module)
        for name in package.__all__:
            assert hasattr(package, name), f"{module}.{name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestQuickstart:
    def test_readme_example(self):
        """The exact snippet from the package docstring and README."""
        from repro import (
            FIVE_POINT,
            PAPER_BUS,
            PartitionKind,
            Workload,
            optimize_allocation,
        )

        w = Workload(n=256, stencil=FIVE_POINT)
        alloc = optimize_allocation(
            PAPER_BUS, w, PartitionKind.SQUARE, max_processors=16
        )
        assert 1 <= alloc.processors <= 16
        assert alloc.speedup > 1.0

    def test_error_hierarchy(self):
        assert issubclass(repro.InvalidParameterError, repro.ReproError)
        assert issubclass(repro.DecompositionError, repro.ReproError)
        assert issubclass(repro.ConvergenceError, repro.ReproError)
        assert issubclass(repro.InvalidParameterError, ValueError)

    def test_optimal_speedup_headline(self):
        """The paper's headline comparison is reachable in three lines."""
        from repro import FIVE_POINT, Hypercube, PAPER_BUS, PartitionKind, Workload
        from repro import optimal_speedup

        w = Workload(n=1024, stencil=FIVE_POINT)
        cube = Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)
        s_cube = optimal_speedup(cube, w, PartitionKind.SQUARE).speedup
        s_bus = optimal_speedup(PAPER_BUS, w, PartitionKind.SQUARE).speedup
        assert s_cube > 10 * s_bus
