"""Integer axes on the wire: ``LO:HI[:STEP]`` strings beside JSON lists.

An ascending progression travels as the string the command line's
``--grid`` takes; the daemon reads it back as a ``range`` and builds the
same axis array a list gives, so keys, stored entries and served bytes
cannot tell the two forms apart.  Any other axis travels as the list it
always did.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.batch import SweepSpec
from repro.errors import InvalidParameterError
from repro.graph import families
from repro.graph.families import (
    MAX_AXIS_POINTS,
    MAX_REPLICAS,
    axis_range,
    family_for,
    parse_axis,
)
from repro.service import ServiceCore
from repro.service.schema import allocation_payload

#: One payload per integer wire field: (family, field, builder arguments
#: without the axis, the axis argument's name, the axis).
INTEGER_FIELDS = {
    "allocation_curve": ("grid_sides", dict(machine="paper-bus", stencil="5-point",
                         kind="square", integer=True), "grid_sides", range(64, 512, 16)),
    "max_useful": ("grid_sides", dict(machine="paper-bus", stencil="9-point-box",
                   kind="strip"), "grid_sides", range(100, 400, 7)),
    "n2_min": ("processors", dict(machine="paper-bus", stencil="5-point",
               kind="square"), "n_processors", range(2, 200, 6)),
    "grid_for_efficiency": ("processors", dict(machine="paper-bus", stencil="5-point",
                            kind="square", target_efficiency=0.5),
                            "processor_counts", range(2, 40, 2)),
    "plan": ("grid", dict(machine="paper-bus", n=256), "grid", range(2, 64)),
    "sim_validate": ("processors", dict(machine="ipsc", n=24), "processor_counts",
                     range(1, 13)),
}


def _served(payload: dict) -> tuple[str, dict[str, np.ndarray]]:
    """The stored key and the arrays a fresh daemon serves for ``payload``."""
    core = ServiceCore()
    arrays, _served, key = core.compute_with_key(json.loads(json.dumps(payload)))
    return key, arrays


def _assert_bit_identical(ours: dict, theirs: dict) -> None:
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name].dtype == theirs[name].dtype, name
        assert ours[name].tobytes() == theirs[name].tobytes(), name


@pytest.mark.parametrize("op", sorted(INTEGER_FIELDS))
def test_a_progression_travels_as_a_string_and_serves_the_list_bytes(op):
    field, args, name, axis = INTEGER_FIELDS[op]
    family = family_for(op)
    from_range = family.payload(**args, **{name: axis})
    from_list = family.payload(**args, **{name: list(axis)})
    assert from_range == from_list
    assert from_range[field] == f"{axis[0]}:{axis[-1]}" + (
        "" if axis.step == 1 else f":{axis.step}"
    )
    as_list = {**from_range, field: list(axis)}
    key, arrays = _served(from_range)
    list_key, list_arrays = _served(as_list)
    assert key == list_key
    _assert_bit_identical(arrays, list_arrays)


def test_a_sweep_grid_travels_as_a_string_and_serves_the_list_bytes():
    sweep = family_for("sweep")
    spec = SweepSpec.across_catalog(range(64, 400, 8), [1, 4, 16], machines=["paper-bus", "ipsc"])
    payload = sweep.payload(spec)
    assert payload["grid_sides"] == "64:392:8"
    key, arrays = _served(payload)
    list_key, list_arrays = _served({**payload, "grid_sides": list(range(64, 400, 8))})
    assert key == list_key
    _assert_bit_identical(arrays, list_arrays)


def test_a_seed_string_serves_the_seed_list_bytes():
    base = {"kind": "sim_sweep", "machine": "paper-bus", "n": 16, "n_processors": 4,
            "jitter": 0.1}
    key, arrays = _served({**base, "seeds": "3:40:3"})
    list_key, list_arrays = _served({**base, "seeds": list(range(3, 41, 3))})
    assert key == list_key
    _assert_bit_identical(arrays, list_arrays)


def test_a_seed_range_is_checked_by_its_ends():
    sim = family_for("sim_sweep")
    args = dict(machine="paper-bus", stencil="5-point", kind="square", n=16, n_processors=4)
    top = range(2**64 - 5, 2**64, 2)
    assert sim.node(**args, seeds=top).key == sim.node(**args, seeds=list(top)).key
    np.testing.assert_array_equal(
        sim.node(**args, seeds=top).axis, np.asarray(list(top), dtype=np.uint64)
    )
    for bad in (range(-2, 3), range(2**64 - 1, 2**64 + 1)):
        with pytest.raises(InvalidParameterError, match="seeds must lie"):
            sim.node(**args, seeds=bad)


def test_other_axes_travel_as_the_same_list_bytes():
    # Each expected body is what the payload was before axes could
    # travel as strings: not a progression, or a progression whose
    # string is no shorter than its list.
    def body(op, *args, **kwargs):
        return json.dumps(family_for(op).payload(*args, **kwargs))

    tail = '"t_flop": 1e-06, "max_processors": null, "integer": true}'
    head = '{"kind": "allocation_curve", "machine": "paper-bus", "stencil": "5-point", ' \
        '"partition": "square", '
    assert body("allocation_curve", "paper-bus", "5-point", "square", [8, 16, 32],
                integer=True) == head + '"grid_sides": [8, 16, 32], ' + tail
    assert body("allocation_curve", "paper-bus", "5-point", "square", [64, 128, 256],
                integer=True) == head + '"grid_sides": [64, 128, 256], ' + tail
    assert body("plan", "paper-bus", 256, [8, 16, 32]) == (
        '{"kind": "plan", "machine": "paper-bus", "n": 256, "grid": [8, 16, 32]}'
    )
    assert body(
        "sweep", SweepSpec.across_catalog([64, 100, 128], [1, 4], machines=["paper-bus"])
    ) == (
        '{"kind": "sweep", "grid_sides": [64, 100, 128], "processors": [1.0, 4.0], '
        '"machines": ["paper-bus"], "stencil": "5-point", "partition": "square", '
        '"t_flop": 1e-06}'
    )
    assert body("sim_validate", "ipsc", n=24, processor_counts=[8, 4, 2, 1]) == (
        '{"kind": "sim_validate", "machine": "ipsc", "stencil": "5-point", '
        '"partition": "square", "n": 24, "processors": [8, 4, 2, 1], '
        '"t_flop": 1e-06, "mode": "barrier"}'
    )


@pytest.mark.parametrize("spec", ["5:1", "1:2:0", "a:b", "1:2:3:4", "", f"1:{MAX_AXIS_POINTS + 1}"])
@pytest.mark.parametrize("op", sorted(INTEGER_FIELDS))
def test_malformed_and_over_long_strings_are_400s(op, spec):
    field, args, name, axis = INTEGER_FIELDS[op]
    payload = {**family_for(op).payload(**args, **{name: axis}), field: spec}
    response = ServiceCore().handle_request("POST", "/v1/compute", json.dumps(payload).encode())
    assert response.status == 400, response.body_bytes()
    assert field in json.loads(response.body_bytes())["error"]


def test_an_over_long_axis_is_refused_before_it_is_built():
    core = ServiceCore()
    for spec in (f"1:{MAX_AXIS_POINTS + 1}", "1:10000000000", "0:99999999999999999999999:3"):
        body = json.dumps({**allocation_payload("paper-bus", "5-point", "square", [64]),
                           "grid_sides": spec}).encode()
        tracemalloc.start()
        try:
            response = core.handle_request("POST", "/v1/compute", body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert response.status == 400
        assert str(MAX_AXIS_POINTS) in json.loads(response.body_bytes())["error"]
        assert peak < 2**20  # a built axis would take megabytes
    # The bound admits every caller's axes, seed ensembles included.
    assert len(axis_range(f"1:{MAX_AXIS_POINTS}", "grid_sides")) == MAX_AXIS_POINTS
    assert MAX_AXIS_POINTS >= MAX_REPLICAS


def test_the_bound_holds_on_the_wire_only(monkeypatch):
    monkeypatch.setattr(families, "MAX_AXIS_POINTS", 4)
    # --grid names as many points as it did before the wire took strings.
    assert parse_axis("1:6") == [1, 2, 3, 4, 5, 6]
    # A progression past the bound travels as the list it always did,
    # and the daemon serves it; one within the bound still goes as a string.
    curve = family_for("allocation_curve")
    args = dict(machine="paper-bus", stencil="5-point", kind="square", integer=True)
    long_axis = curve.payload(**args, grid_sides=range(64, 512, 16))
    assert long_axis["grid_sides"] == list(range(64, 512, 16))
    assert ServiceCore().handle_request(
        "POST", "/v1/compute", json.dumps(long_axis).encode()
    ).status == 200
    assert curve.payload(**args, grid_sides=[8, 16, 24, 32])["grid_sides"] == "8:32:8"


def test_a_wide_span_list_is_sent_without_listing_its_span():
    # Three values spanning 2**40: the progression check must not build
    # the span, and the body is the list, byte for byte.
    tracemalloc.start()
    try:
        for processors in ([1, 2, 2**40], [1, 2, 2**30], list(range(1, 2**62, 2**52)) + [2**62]):
            payload = family_for("sim_validate").payload("ipsc", n=24, processor_counts=processors)
            assert json.dumps(payload["processors"]) == json.dumps(processors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert json.dumps(family_for("sim_validate").payload(
        "ipsc", n=24, processor_counts=[1, 2, 2**40]
    )) == (
        '{"kind": "sim_validate", "machine": "ipsc", "stencil": "5-point", '
        '"partition": "square", "n": 24, "processors": [1, 2, 1099511627776], '
        '"t_flop": 1e-06, "mode": "barrier"}'
    )


def test_the_benchmark_curve_request_is_a_few_hundred_bytes():
    # A 500-point grid-side axis, as the repository benchmark sends it.
    for start in (16, 1038):
        payload = allocation_payload(
            "paper-bus", "5-point", "square", list(range(start, start + 4 * 500, 4)),
            integer=True,
        )
        assert len(json.dumps(payload).encode()) < 200
