"""The family table: every family's kernels agree, and a family is one declaration.

:mod:`repro.graph.families` declares each request family once; node
building, both executors, the wire codec and daemon dispatch derive from
that declaration.  Two contracts are pinned here:

* for every registered family, the numpy kernel equals the scalar oracle
  bit for bit (dtype, shape and bytes);
* a family declared and registered in *this file* builds, evaluates on
  both executors, and is served over ``/v1/compute`` by an in-process
  daemon — no other file changes.
"""

import json

import numpy as np
import pytest

from repro.batch.engine import SweepSpec
from repro.errors import InvalidParameterError
from repro.graph import families, nodes
from repro.graph.executors import NumpyExecutor, OracleExecutor
from repro.graph.families import Family, Param, axis_values, family_for, kinds, register_family
from repro.graph.planner import evaluate
from repro.graph.planner import plan as plan_graph
from repro.machines.catalog import DEFAULT_MACHINES, FLEX32, PAPER_BUS
from repro.service import ServiceCore
from repro.service.frame import decode_frame
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

STRIP, SQUARE = PartitionKind.STRIP, PartitionKind.SQUARE
IPSC = DEFAULT_MACHINES["ipsc"]

#: One representative node per built-in family.
SAMPLES = {
    "allocation_curve": lambda: nodes.allocation_curve(
        FLEX32, NINE_POINT_BOX, STRIP, [8, 64, 300, 1500], integer=True
    ),
    "max_useful": lambda: nodes.max_useful_processors(
        PAPER_BUS, FIVE_POINT, SQUARE, [16, 256, 999]
    ),
    "n2_min": lambda: nodes.minimal_problem_size(FLEX32, NINE_POINT_BOX, STRIP, [2, 16, 77]),
    "grid_for_efficiency": lambda: nodes.grid_for_efficiency(
        PAPER_BUS, FIVE_POINT, SQUARE, [2, 8, 32], 0.6
    ),
    "sweep": lambda: nodes.sweep(
        SweepSpec.across_catalog([32, 100], [1.0, 4.0, 9.0], machines=["ipsc", "flex32"])
    ),
    "plan": lambda: nodes.capacity_plan(PAPER_BUS, 256),
    "sim_sweep": lambda: nodes.sim_sweep(
        PAPER_BUS, FIVE_POINT, SQUARE, 24, 4, [0, 7, 2**64 - 1], jitter=0.2
    ),
    "sim_validate": lambda: nodes.sim_validate(IPSC, FIVE_POINT, STRIP, 24, [1, 2, 4, 8]),
}


def _assert_bit_equal(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name in want:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("op", kinds())
def test_numpy_kernel_equals_the_oracle_bit_for_bit(op):
    assert op in SAMPLES, f"family {op!r} has no sample node here"
    node = SAMPLES[op]()
    assert node.op == op
    got = NumpyExecutor().evaluate(node.op, node.args, node.axis)
    _assert_bit_equal(got, OracleExecutor().evaluate(node.op, node.args, node.axis))


def test_plan_with_a_grid_equals_the_oracle_bit_for_bit():
    node = nodes.capacity_plan("flex32", 64, [2, 4, 8, 16])
    got = NumpyExecutor().evaluate(node.op, node.args, node.axis)
    _assert_bit_equal(got, OracleExecutor().evaluate(node.op, node.args, node.axis))
    assert not node.is_fusable


#: Builder arguments per built-in family, machines and stencils by
#: catalog name: every wire form each family sends.
WIRE_ARGS = {
    "allocation_curve": [
        dict(machine="flex32", stencil="9-point-box", kind="strip",
             grid_sides=[8, 64, 300], max_processors=16.0, integer=True),
    ],
    "max_useful": [
        dict(machine="paper-bus", stencil="5-point", kind="square", grid_sides=[16, 256]),
    ],
    "n2_min": [
        dict(machine="flex32", stencil="9-point-box", kind="strip", n_processors=[2, 16, 77]),
    ],
    "grid_for_efficiency": [
        dict(machine="paper-bus", stencil="5-point", kind="square",
             processor_counts=[2, 8, 32], target_efficiency=0.6),
    ],
    "sweep": [
        dict(spec=SweepSpec.across_catalog([32, 100], [1, 4, 9], machines=["ipsc", "flex32"])),
    ],
    "plan": [dict(machine="paper-bus", n=256), dict(machine="flex32", n=64, grid=[2, 4, 8])],
    "sim_sweep": [
        # A unit-step range travels as the replicas + seed shorthand ...
        dict(machine="paper-bus", stencil="5-point", kind="square", n=24, n_processors=4,
             seeds=range(3, 10), jitter=0.2),
        # ... any other seed axis as an explicit list.
        dict(machine="paper-bus", stencil="5-point", kind="square", n=24, n_processors=4,
             seeds=[0, 7, 2**64 - 1], mode="pipelined"),
    ],
    "sim_validate": [
        dict(machine="ipsc", stencil="5-point", kind="strip", n=24,
             processor_counts=[1, 2, 4, 8]),
    ],
}


@pytest.mark.parametrize("op", kinds())
def test_payload_parses_back_to_the_same_node(op):
    assert op in WIRE_ARGS, f"family {op!r} has no wire arguments here"
    family = family_for(op)
    for args in WIRE_ARGS[op]:
        payload = family.payload(**args)
        json.dumps(payload)  # the payload is plain JSON
        assert family.node(**family.parse(payload)).key == family.node(**args).key


def test_consecutive_seeds_travel_as_the_shorthand():
    sim = family_for("sim_sweep")
    args = dict(machine="paper-bus", n=24, n_processors=4)
    shorthand = sim.payload(**args, seeds=range(5, 100_005))
    assert (shorthand["replicas"], shorthand["seed"]) == (100_000, 5)
    assert "seeds" not in shorthand
    assert sim.payload(**args, seeds=range(0, 10, 2))["seeds"] == [0, 2, 4, 6, 8]


def test_a_sweep_travels_only_with_catalog_machines():
    from repro.machines.bus import SynchronousBus

    sweep = family_for("sweep")
    custom = SynchronousBus(b=1e-6, c=0.0)
    for machines in ({"paper-bus": custom}, {"my-bus": custom}):
        spec = SweepSpec.across_catalog([64], [1, 4], machines=machines)
        with pytest.raises(InvalidParameterError, match="catalog preset|unknown machine"):
            sweep.payload(spec)


def test_payload_sends_presets_by_name_and_refuses_anything_else():
    import dataclasses

    from repro.machines.bus import SynchronousBus

    alloc = family_for("allocation_curve")
    by_name = alloc.payload("paper-bus", "5-point", "square", [64])
    assert alloc.payload(PAPER_BUS, FIVE_POINT, SQUARE, [64]) == by_name
    heavier = dataclasses.replace(FIVE_POINT, flops_per_point=99.0)
    custom = SynchronousBus(b=1e-6, c=0.0)
    for machine, stencil in ((custom, "5-point"), ("paper-bus", heavier)):
        with pytest.raises(InvalidParameterError, match="catalog preset|library stencil"):
            alloc.payload(machine, stencil, "square", [64])
    spec = SweepSpec.across_catalog([64], [1, 4], machines=["paper-bus"], stencil=heavier)
    with pytest.raises(InvalidParameterError, match="library stencil"):
        family_for("sweep").payload(spec)


def test_payload_refuses_too_many_replicas_before_anything_is_sent(monkeypatch):
    monkeypatch.setattr(families, "MAX_REPLICAS", 4)
    sim = family_for("sim_sweep")
    args = dict(machine="paper-bus", n=24, n_processors=4)
    assert sim.payload(**args, seeds=range(4))["replicas"] == 4
    for seeds in (range(5), [0, 1, 2, 3, 9]):
        with pytest.raises(InvalidParameterError, match="at most 4 replicas"):
            sim.payload(**args, seeds=seeds)
        with pytest.raises(InvalidParameterError, match="at most 4 replicas"):
            nodes.sim_sweep(PAPER_BUS, FIVE_POINT, SQUARE, 24, 4, seeds)


def test_unknown_ops_are_rejected_by_both_executors():
    for executor in (NumpyExecutor(), OracleExecutor()):
        with pytest.raises(InvalidParameterError, match="unknown request kind"):
            executor.evaluate("frobnicate", {}, np.arange(3.0))


# --------------------------------------------------------------------------
# A toy family, declared and registered here
# --------------------------------------------------------------------------


# Kernels take the builder's arguments, the evaluation axis standing in
# for ``x``.
def _numpy_toy(x, scale):
    return {"y": x * x * scale}


def _oracle_toy(x, scale):
    return {"y": np.array([float(v) * float(v) * scale for v in x])}


TOY = Family(
    op="toy_square",
    params=(
        Param("x", axis_values("x", float), integers=True),
        Param("scale", lambda v: float(v), 1.0),
    ),
    axis="x",
    request="toy_square",
    detail=lambda args, axis: f"scale={args['scale']:g} x_axis={axis.size}",
    numpy=_numpy_toy,
    oracle=_oracle_toy,
)


@pytest.fixture()
def toy(monkeypatch):
    # Registered for one test only, so the registry the rest of the
    # suite sees (and parametrizes over) stays the built-in one.
    monkeypatch.setattr(families, "_FAMILIES", dict(families._FAMILIES))
    return register_family(TOY)


class TestToyFamily:
    def test_builds_and_evaluates_on_both_executors(self, toy):
        node = toy.node([3, 1, 2], scale=0.5)
        assert node.detail == "toy_square[scale=0.5 x_axis=3]"
        assert node.request[0] == "toy_square" and node.compat is not None
        for executor in ("numpy", "oracle"):
            (arrays,) = evaluate([node], executor=executor)
            np.testing.assert_array_equal(arrays["y"], [4.5, 0.5, 2.0])

    def test_compatible_toys_fuse(self, toy):
        plan = plan_graph([toy.node([1, 2]), toy.node([2, 5]), toy.node([2, 5], scale=2.0)])
        assert plan.siblings_fused == 1

    def test_served_over_v1_compute(self, toy):
        core = ServiceCore()
        body = json.dumps(toy.payload([1, 2, 3], 2.0)).encode()
        response = core.handle_request("POST", "/v1/compute", body)
        assert response.status == 200
        arrays, meta = decode_frame(response.body_bytes())
        assert meta["served"] == "computed"
        np.testing.assert_array_equal(arrays["y"], [2.0, 8.0, 18.0])
        health = json.loads(core.handle_request("GET", "/healthz", b"").body_bytes())
        assert "toy_square" in health["kinds"]
        again = core.handle_request("POST", "/v1/compute", body)
        assert decode_frame(again.body_bytes())[1]["served"] == "memory"

    def test_bad_toy_requests_are_400s(self, toy):
        core = ServiceCore()
        for payload in ({"kind": "toy_square"}, {"kind": "toy_square", "x": ["a"]},
                        {"kind": "toy_square", "x": [0]}):
            response = core.handle_request("POST", "/v1/compute", json.dumps(payload).encode())
            assert response.status == 400, payload

    def test_a_registered_op_cannot_be_declared_twice(self, toy):
        with pytest.raises(InvalidParameterError, match="already registered"):
            register_family(TOY)


def test_unknown_kinds_are_400s_from_the_daemon():
    core = ServiceCore()
    response = core.handle_request("POST", "/v1/compute", b'{"kind": "toy_square"}')
    assert response.status == 400
    assert "unknown request kind" in json.loads(response.body_bytes())["error"]
    assert "toy_square" not in kinds()
    assert family_for("plan").op == "plan"
