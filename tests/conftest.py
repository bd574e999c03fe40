"""Shared fixtures: canonical workloads and machines, and the lint report."""

from __future__ import annotations

import copy

import pytest

from repro.core.parameters import Workload
from repro.machines.banyan import BanyanNetwork
from repro.machines.bus import AsynchronousBus, SynchronousBus
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import MeshGrid
from repro.stencils.library import FIVE_POINT


@pytest.fixture
def workload_256() -> Workload:
    """The paper's anchor problem: 256x256, 5-point, 1 us/flop."""
    return Workload(n=256, stencil=FIVE_POINT)


@pytest.fixture
def workload_big() -> Workload:
    """Large enough that the bus optimum is interior for both shapes."""
    return Workload(n=4096, stencil=FIVE_POINT)


@pytest.fixture
def sync_bus() -> SynchronousBus:
    """The Figure-7 calibrated bus (c = 0)."""
    return SynchronousBus(b=6.1e-6, c=0.0)


@pytest.fixture
def async_bus() -> AsynchronousBus:
    return AsynchronousBus(b=6.1e-6, c=0.0)


@pytest.fixture
def hypercube() -> Hypercube:
    return Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)


@pytest.fixture
def mesh() -> MeshGrid:
    return MeshGrid(alpha=1e-6, beta=1e-5, packet_words=16)


@pytest.fixture
def banyan() -> BanyanNetwork:
    return BanyanNetwork(w=2e-7)


@pytest.fixture(scope="session")
def _lint_report_once():
    from repro.analyze import lint_tree

    return lint_tree()


@pytest.fixture
def lint_report(_lint_report_once):
    """The shipped tree's lint report, computed once per session.

    Each test gets a deep copy, so no test can change what the next
    one reads.
    """
    return copy.deepcopy(_lint_report_once)
