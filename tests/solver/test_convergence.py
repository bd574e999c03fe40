"""Convergence criteria, schedules, and dissemination cost models."""

import numpy as np
import pytest

from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.machines.banyan import BanyanNetwork
from repro.machines.bus import SynchronousBus
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import MeshGrid
from repro.solver.convergence import (
    CheckSchedule,
    InfNormCriterion,
    SumSquaresCriterion,
    checked_cycle_time,
    convergence_check_flops,
    dissemination_time,
)
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind


class TestCriteria:
    def test_inf_norm(self):
        c = InfNormCriterion(tol=0.5)
        old = np.zeros((2, 2))
        new = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert c.measure(old, new) == pytest.approx(0.4)
        assert c.is_converged(0.4)
        assert not c.is_converged(0.6)

    def test_sum_squares(self):
        c = SumSquaresCriterion(tol=1.0)
        old = np.zeros((2, 2))
        new = np.full((2, 2), 0.5)
        assert c.measure(old, new) == pytest.approx(1.0)

    def test_tolerance_validation(self):
        with pytest.raises(InvalidParameterError):
            InfNormCriterion(tol=0.0)
        with pytest.raises(InvalidParameterError):
            SumSquaresCriterion(tol=-1.0)


class TestSchedule:
    def test_every_iteration(self):
        s = CheckSchedule(1)
        assert all(s.should_check(i) for i in range(1, 10))

    def test_period_m(self):
        s = CheckSchedule(3)
        assert [i for i in range(1, 10) if s.should_check(i)] == [3, 6, 9]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CheckSchedule(0)


class TestCheckCost:
    def test_five_point_check_is_sixty_percent(self):
        """3 flops/point vs E=5: ~50-60% extra, Section 4's magnitude."""
        w = Workload(n=64, stencil=FIVE_POINT)
        area = 1000.0
        ratio = convergence_check_flops(w, area) / (5.0 * area)
        assert ratio == pytest.approx(0.6)

    def test_rejects_nonpositive_area(self):
        w = Workload(n=64, stencil=FIVE_POINT)
        with pytest.raises(InvalidParameterError):
            convergence_check_flops(w, 0.0)


class TestDissemination:
    def test_single_processor_is_free(self):
        cube = Hypercube(alpha=1e-6, beta=1e-5)
        assert dissemination_time(cube, 1) == 0.0

    def test_hypercube_grows_logarithmically(self):
        cube = Hypercube(alpha=1e-6, beta=1e-5)
        t16 = dissemination_time(cube, 16)
        t256 = dissemination_time(cube, 256)
        assert t256 == pytest.approx(2 * t16)

    def test_mesh_hardware_is_free(self):
        mesh = MeshGrid(alpha=1e-6, beta=1e-5, convergence_hardware=True)
        assert dissemination_time(mesh, 64) == 0.0

    def test_mesh_without_hardware_pays(self):
        mesh = MeshGrid(alpha=1e-6, beta=1e-5, convergence_hardware=False)
        assert dissemination_time(mesh, 64) > 0.0

    def test_bus_linear_in_processors(self):
        bus = SynchronousBus(b=1e-6, c=1e-6)
        assert dissemination_time(bus, 20) == pytest.approx(
            2 * dissemination_time(bus, 10)
        )

    def test_banyan_uses_network_reads(self):
        net = BanyanNetwork(w=1e-7)
        assert dissemination_time(net, 16) == pytest.approx(2 * 2 * 1e-7 * 4)


class TestCheckedCycle:
    def test_scheduling_amortizes_cost(self):
        bus = SynchronousBus(b=6.1e-6, c=0.0)
        w = Workload(n=64, stencil=FIVE_POINT)
        base = bus.cycle_time(w, PartitionKind.SQUARE, 256.0)
        every = checked_cycle_time(bus, w, PartitionKind.SQUARE, 256.0, CheckSchedule(1))
        sparse = checked_cycle_time(
            bus, w, PartitionKind.SQUARE, 256.0, CheckSchedule(10)
        )
        assert every > sparse > base
        assert (sparse - base) == pytest.approx((every - base) / 10.0)

    def test_overhead_falls_with_the_period(self):
        """The overhead of checking every m iterations falls with m and
        is negligible (< 5%) by m = 50 (n=256, A=4096)."""
        bus = SynchronousBus(b=6.1e-6, c=0.0)
        w = Workload(n=256, stencil=FIVE_POINT)
        area = 4096.0
        base = bus.cycle_time(w, PartitionKind.SQUARE, area)
        overheads = [
            checked_cycle_time(bus, w, PartitionKind.SQUARE, area, CheckSchedule(m))
            / base
            - 1.0
            for m in (1, 2, 5, 10, 50)
        ]
        assert all(b < a for a, b in zip(overheads, overheads[1:]))
        assert overheads[-1] < 0.05
