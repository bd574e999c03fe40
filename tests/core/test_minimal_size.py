"""Minimal problem size / Figure-7 thresholds: closed form vs optimizer."""

import pytest

from repro.batch import minimal_grid_side_curve
from repro.core.minimal_size import (
    max_useful_processors,
    minimal_grid_side,
    minimal_grid_size_numeric,
    minimal_problem_size,
    uses_all_processors,
)
from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.machines.bus import AsynchronousBus, SynchronousBus
from repro.machines.catalog import PAPER_BUS, PAPER_BUS_ASYNC
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

STRIP = PartitionKind.STRIP
SQUARE = PartitionKind.SQUARE


class TestAnchors:
    """Section 6.1: 256x256 squares -> 14 procs (5-pt) / 22 procs (9-pt)."""

    def test_five_point_anchor(self):
        w = Workload(n=256, stencil=FIVE_POINT)
        assert max_useful_processors(PAPER_BUS, w, SQUARE) == pytest.approx(
            14.0, abs=0.1
        )

    def test_nine_point_anchor(self):
        w = Workload(n=256, stencil=NINE_POINT_BOX)
        assert max_useful_processors(PAPER_BUS, w, SQUARE) == pytest.approx(
            22.2, abs=0.2
        )

    def test_uses_all_processors_consistent_with_anchor(self):
        w = Workload(n=256, stencil=FIVE_POINT)
        assert uses_all_processors(PAPER_BUS, w, SQUARE, 14)
        assert not uses_all_processors(PAPER_BUS, w, SQUARE, 15)


class TestScalingLaws:
    def test_strips_quadratic_in_n(self):
        r = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, 8, STRIP) / minimal_grid_side(
            PAPER_BUS, 1, 5.0, 1e-6, 4, STRIP
        )
        assert r == pytest.approx(4.0)

    def test_squares_three_halves_in_n(self):
        r = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, 16, SQUARE) / minimal_grid_side(
            PAPER_BUS, 1, 5.0, 1e-6, 4, SQUARE
        )
        assert r == pytest.approx(8.0)

    def test_async_strips_halve_the_threshold(self):
        sync = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, 8, STRIP)
        asyn = minimal_grid_side(PAPER_BUS_ASYNC, 1, 5.0, 1e-6, 8, STRIP)
        assert asyn == pytest.approx(sync / 2.0)

    def test_async_squares_match_sync(self):
        sync = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, 8, SQUARE)
        asyn = minimal_grid_side(PAPER_BUS_ASYNC, 1, 5.0, 1e-6, 8, SQUARE)
        assert asyn == pytest.approx(sync)

    def test_strips_always_need_bigger_problems(self):
        for n_procs in (4, 8, 16, 24):
            strip = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, n_procs, STRIP)
            square = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, n_procs, SQUARE)
            assert strip >= square

    def test_minimal_problem_size_is_squared_side(self):
        w = Workload(n=2, stencil=FIVE_POINT)
        side = minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, 8, STRIP)
        assert minimal_problem_size(PAPER_BUS, w, STRIP, 8) == pytest.approx(side**2)


class TestNumericAgreement:
    @pytest.mark.parametrize("n_procs", [2, 4, 6, 8])
    @pytest.mark.parametrize("kind", [STRIP, SQUARE], ids=str)
    @pytest.mark.parametrize("stencil", [FIVE_POINT, NINE_POINT_BOX], ids=lambda s: s.name)
    @pytest.mark.parametrize("machine", [PAPER_BUS, PAPER_BUS_ASYNC], ids=["sync", "async"])
    def test_closed_form_matches_golden_section(self, machine, stencil, kind, n_procs):
        """Every E-FIG7 configuration with N <= 8: the batched closed
        form the figure prints agrees with the optimizer to a grid line."""
        w = Workload(n=2, stencil=stencil)
        (closed,) = minimal_grid_side_curve(
            machine, w.k(kind), stencil.flops_per_point, w.t_flop, [n_procs], kind
        )
        numeric = minimal_grid_size_numeric(machine, w, kind, n_procs)
        assert abs(numeric - closed) <= max(2.0, 0.02 * closed)


class TestValidation:
    def test_rejects_nonpositive_processors(self):
        with pytest.raises(InvalidParameterError):
            minimal_grid_side(PAPER_BUS, 1, 5.0, 1e-6, 0, STRIP)
        w = Workload(n=8, stencil=FIVE_POINT)
        with pytest.raises(InvalidParameterError):
            uses_all_processors(PAPER_BUS, w, STRIP, 0)
