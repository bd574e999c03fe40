"""Speedup laws: closed forms, fixed-machine limits, paper ratios."""

import math

import numpy as np
import pytest

from repro.core.parameters import Workload
from repro.core.speedup import (
    closed_form_optimal_speedup_async_bus,
    closed_form_optimal_speedup_sync_bus,
    fixed_machine_speedup,
    optimal_speedup,
    speedup_at_processors,
    speedup_curve,
)
from repro.errors import InvalidParameterError
from repro.machines.bus import AsynchronousBus, SynchronousBus
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

STRIP = PartitionKind.STRIP
SQUARE = PartitionKind.SQUARE


class TestBasics:
    def test_one_processor_speedup_is_one(self, sync_bus, workload_256):
        assert speedup_at_processors(sync_bus, workload_256, SQUARE, 1) == 1.0

    def test_rejects_sub_one(self, sync_bus, workload_256):
        with pytest.raises(InvalidParameterError):
            speedup_at_processors(sync_bus, workload_256, SQUARE, 0.5)

    def test_curve_matches_scalar(self, sync_bus, workload_256):
        procs = np.array([1.0, 4.0, 16.0])
        curve = speedup_curve(sync_bus, workload_256, SQUARE, procs)
        for p, s in zip(procs, curve):
            assert s == pytest.approx(
                speedup_at_processors(sync_bus, workload_256, SQUARE, float(p))
            )


class TestFixedMachineLimit:
    """The 'folk theorem': speedup -> N as the problem grows (Section 1)."""

    @pytest.mark.parametrize("kind", [STRIP, SQUARE], ids=str)
    def test_speedup_approaches_n(self, sync_bus, kind):
        n_procs = 16
        speedups = [
            fixed_machine_speedup(
                sync_bus, Workload(n=n, stencil=FIVE_POINT), kind, n_procs
            )
            for n in (256, 1024, 4096, 16384)
        ]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > 0.9 * n_procs
        assert all(s < n_procs for s in speedups)


class TestClosedForms:
    def test_sync_strip_matches_numeric(self, sync_bus, workload_big):
        closed = closed_form_optimal_speedup_sync_bus(sync_bus, workload_big, STRIP)
        numeric = optimal_speedup(sync_bus, workload_big, STRIP).speedup
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_sync_square_matches_numeric(self, sync_bus, workload_big):
        closed = closed_form_optimal_speedup_sync_bus(sync_bus, workload_big, SQUARE)
        numeric = optimal_speedup(sync_bus, workload_big, SQUARE).speedup
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_async_strip_matches_numeric(self, async_bus, workload_big):
        closed = closed_form_optimal_speedup_async_bus(async_bus, workload_big, STRIP)
        numeric = optimal_speedup(async_bus, workload_big, STRIP).speedup
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_async_square_matches_numeric(self, async_bus, workload_big):
        closed = closed_form_optimal_speedup_async_bus(async_bus, workload_big, SQUARE)
        numeric = optimal_speedup(async_bus, workload_big, SQUARE).speedup
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_sync_square_closed_form_requires_c_zero(self, workload_big):
        bus = SynchronousBus(b=1e-6, c=1e-6)
        with pytest.raises(InvalidParameterError, match="c = 0"):
            closed_form_optimal_speedup_sync_bus(bus, workload_big, SQUARE)

    def test_strip_closed_form_supports_c(self, workload_big):
        bus = SynchronousBus(b=1e-6, c=1e-5)
        closed = closed_form_optimal_speedup_sync_bus(bus, workload_big, STRIP)
        numeric = optimal_speedup(bus, workload_big, STRIP).speedup
        assert closed == pytest.approx(numeric, rel=1e-6)


class TestPaperRatios:
    def test_async_over_sync_strip_is_sqrt2(self, sync_bus, async_bus, workload_big):
        s = closed_form_optimal_speedup_sync_bus(sync_bus, workload_big, STRIP)
        a = closed_form_optimal_speedup_async_bus(async_bus, workload_big, STRIP)
        assert a / s == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_async_over_sync_square_is_1_5(self, sync_bus, async_bus, workload_big):
        s = closed_form_optimal_speedup_sync_bus(sync_bus, workload_big, SQUARE)
        a = closed_form_optimal_speedup_async_bus(async_bus, workload_big, SQUARE)
        assert a / s == pytest.approx(1.5, rel=1e-9)

    def test_squares_beat_strips(self, sync_bus, workload_big):
        sq = optimal_speedup(sync_bus, workload_big, SQUARE).speedup
        st = optimal_speedup(sync_bus, workload_big, STRIP).speedup
        assert sq > st

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_read_only_accounting_scales_square_speedup_by_a_constant(
        self, sync_bus, n
    ):
        """Halving the charged volume scales the square optimum by
        2^(2/3) at every n: the (n²)^(1/3) law is accounting-independent."""
        w = Workload(n=n, stencil=FIVE_POINT)
        ro = SynchronousBus(b=sync_bus.b, c=0.0, volume_mode="read_only")
        ratio = (
            optimal_speedup(ro, w, SQUARE).speedup
            / optimal_speedup(sync_bus, w, SQUARE).speedup
        )
        assert abs(ratio - 2 ** (2 / 3)) < 1e-9

    @pytest.mark.parametrize("n", [256, 1024])
    def test_nine_point_stencil_uses_more_processors(self, sync_bus, n):
        """More flops per point for the same halo admits more processors."""
        five = optimal_speedup(sync_bus, Workload(n=n, stencil=FIVE_POINT), SQUARE)
        nine = optimal_speedup(sync_bus, Workload(n=n, stencil=NINE_POINT_BOX), SQUARE)
        assert nine.processors > five.processors

    def test_communication_twice_computation_at_square_optimum(
        self, sync_bus, workload_big
    ):
        """Section 6.1: at the c=0 square optimum comm = 2 x comp."""
        s_hat = sync_bus.optimal_square_side(workload_big)
        comp = workload_big.compute_time(s_hat**2)
        total = sync_bus.cycle_time(workload_big, SQUARE, s_hat**2)
        assert (total - comp) / comp == pytest.approx(2.0, rel=1e-9)


class TestOptimalSpeedupResult:
    def test_unlimited_exceeds_capped(self, sync_bus, workload_big):
        free = optimal_speedup(sync_bus, workload_big, SQUARE).speedup
        capped = optimal_speedup(sync_bus, workload_big, SQUARE, 16).speedup
        assert free > capped

    def test_regime_reported(self, sync_bus, workload_256):
        res = optimal_speedup(sync_bus, workload_256, SQUARE, max_processors=8)
        assert res.regime == "all"
