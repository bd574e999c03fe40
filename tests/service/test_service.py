"""The sweep service: wire fidelity, coalescing, batching, bounds."""

import errno
import json
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.batch import SweepCache, optimal_allocation_curve, run_sweep, SweepSpec
from repro.errors import ReproError
from repro.graph.executors import NumpyExecutor
from repro.graph.families import family_for
from repro.machines.catalog import DEFAULT_MACHINES, FLEX32, PAPER_BUS
from repro.service import (
    AsyncSweepServer,
    ServiceClient,
    ServiceCore,
    ServiceError,
)
from repro.service.frame import decode_frame
from repro.service.schema import allocation_payload
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

SQUARE = PartitionKind.SQUARE
SIDES = list(range(64, 512, 16))
PLAN, SWEEP, SIM_SWEEP, SIM_VALIDATE = (
    family_for(op) for op in ("plan", "sweep", "sim_sweep", "sim_validate")
)


# Every service behaviour below must hold whether the daemon keeps its
# cache in memory only or, as ``repro serve --cache-dir`` runs it, with
# the frame-file disk tier underneath.
@pytest.fixture(params=["memory", "disk"])
def server(request, tmp_path):
    cache_dir = str(tmp_path / "cache") if request.param == "disk" else None
    with AsyncSweepServer(port=0, cache_dir=cache_dir) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class _ParkFirstEvaluation:
    """Patch ``NumpyExecutor.evaluate``: the first call parks on an event.

    While ``failing`` is set every later evaluation raises instead of
    computing — a kernel failing mid-batch.
    """

    def __init__(self, monkeypatch, failing: bool = False) -> None:
        self.failing = failing
        self.parked = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        original = NumpyExecutor.evaluate
        gate = self

        def evaluate(executor, op, args, axis):
            gate.calls += 1
            if gate.calls == 1:
                gate.parked.set()
                assert gate.release.wait(10.0), "parked evaluation never released"
            elif gate.failing:
                raise RuntimeError("injected kernel failure")
            return original(executor, op, args, axis)

        monkeypatch.setattr(NumpyExecutor, "evaluate", evaluate)


def _join_all(threads, timeout: float = 30.0) -> None:
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), f"{t.name} did not finish"


def _waiting_in_core() -> int:
    """How many threads wait inside the service core.

    A thread counts once it blocks in a :mod:`threading` ``wait`` called
    straight from ``repro/service/server.py``: it is parked on one of the
    core's events, so its admission is settled and whatever it waits on
    can no longer retire before it looks.
    """
    server_file = os.path.join("repro", "service", "server.py")
    waiting = 0
    for frame in sys._current_frames().values():
        if frame.f_code.co_name != "wait":
            continue
        while frame is not None and frame.f_code.co_filename.endswith("threading.py"):
            frame = frame.f_back
        if frame is not None and frame.f_code.co_filename.endswith(server_file):
            waiting += 1
    return waiting


def _assert_batching_state_empty(core) -> None:
    """No round running or pending, no member or waiter left over."""
    with core._batch_lock:
        assert core._groups == {}
    assert _waiting_in_core() == 0


def _wait_for_bucket(server, members: int) -> None:
    """Block until ``members`` requests wait in the pending rounds."""
    deadline = time.monotonic() + 10.0
    while True:
        with server._batch_lock:
            waiting = sum(
                len(rounds[-1].nodes)
                for rounds in server._groups.values()
                if len(rounds) == 2
            )
        if waiting == members:
            return
        assert waiting < members and time.monotonic() < deadline, waiting
        time.sleep(0.001)


def _wait_until_waiting(count: int) -> None:
    """Block until ``count`` threads wait inside the service core."""
    deadline = time.monotonic() + 10.0
    while (waiting := _waiting_in_core()) != count:
        assert time.monotonic() < deadline, waiting
        time.sleep(0.001)


def _fire_group_commit_round(server, gate, request, los):
    """One parked evaluation, then every other request in one bucket.

    Once the bucket is full, a twin of the parked request and a twin of
    the last rider follow.  Returns ``[(lo, result)]`` for every request
    after asserting the round took exactly two evaluations: the parked
    one and one fused evaluation led by the bucket's first member, every
    other member a ``batched`` rider and both twins ``coalesced``.
    """
    stats = ServiceClient(server.url)
    runs_before = stats.stats()["planner"]["executor_runs"]
    results = []
    lock = threading.Lock()

    def fire(lo):
        c = ServiceClient(server.url)
        result = request(c, lo)
        with lock:
            results.append((lo, result, c.last_served))
        c.close()

    def start(lo):
        thread = threading.Thread(target=fire, args=(lo,), daemon=True)
        thread.start()
        return thread

    head = start(los[0])
    assert gate.parked.wait(10.0)
    threads = [head, *(start(lo) for lo in los[1:])]
    _wait_for_bucket(server, len(los) - 1)
    threads += [start(los[0]), start(los[-1])]
    _wait_until_waiting(len(los) + 1)  # the bucket's members and both twins
    gate.release.set()
    _join_all(threads)
    _assert_batching_state_empty(server)
    runs_after = stats.stats()["planner"]["executor_runs"]
    stats.close()
    assert runs_after.get("numpy", 0) - runs_before.get("numpy", 0) == 2
    assert gate.calls == 2
    served = Counter(outcome for _, _, outcome in results)
    assert served == {"computed": 2, "batched": len(los) - 2, "coalesced": 2}
    labels = {lo: sorted(o for other, _, o in results if other == lo) for lo in los}
    assert labels[los[0]] == ["coalesced", "computed"]
    assert labels[los[-1]] == ["batched", "coalesced"]
    # Every fused slice was stored under its own fingerprint.
    for lo in los:
        verifier = ServiceClient(server.url)
        request(verifier, lo)
        assert verifier.last_served in ("memory", "disk"), lo
        verifier.close()
    assert gate.calls == 2
    return [(lo, result) for lo, result, _ in results]


class TestHealthAndStats:
    def test_health(self, client):
        assert client.health()["status"] == "ok"

    def test_stats_counters_present(self, client):
        stats = client.stats()
        assert stats["counters"]["requests"] == 0
        assert stats["cache"]["misses"] == 0
        assert "dedup_ratio" in stats

    def test_stats_surface_planner_counters(self, client):
        client.allocation_curve("paper-bus", "5-point", "square", SIDES)
        stats = client.stats()
        assert stats["planner"]["nodes_planned"] >= 1
        assert stats["planner"]["executor_runs"] == {"numpy": 1}
        assert "siblings_fused" in stats["planner"]
        assert "subgraphs_deduped" in stats["planner"]


class TestAllocationRequests:
    def test_served_curve_is_bit_identical(self, client):
        curve = client.allocation_curve(
            "paper-bus", "5-point", "square", SIDES, integer=True
        )
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        )
        np.testing.assert_array_equal(curve.speedup, direct.speedup)
        np.testing.assert_array_equal(curve.cycle_time, direct.cycle_time)
        np.testing.assert_array_equal(curve.processors, direct.processors)
        np.testing.assert_array_equal(curve.area, direct.area)
        assert curve.regime == direct.regime
        assert client.last_served == "computed"

    def test_repeat_is_a_memory_hit(self, client):
        client.allocation_curve("paper-bus", "5-point", "square", SIDES)
        client.allocation_curve("paper-bus", "5-point", "square", SIDES)
        assert client.last_served == "memory"

    @staticmethod
    def _twin_node():
        # The *read_only twin* of paper-bus: doubled constants, the same
        # closed form, hence the same cache key.
        from repro.core.parameters import DEFAULT_T_FLOP
        from repro.graph import nodes as graph_nodes
        from repro.machines.bus import SynchronousBus

        twin = SynchronousBus(b=2 * PAPER_BUS.b, c=0.0, volume_mode="read_only")
        sides_arr = np.asarray(SIDES, dtype=float)
        return graph_nodes.allocation_curve(
            twin, FIVE_POINT, SQUARE, sides_arr, DEFAULT_T_FLOP, None, True
        )

    @staticmethod
    def _assert_is_the_paper_bus_curve(curve):
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        )
        np.testing.assert_array_equal(curve.speedup, direct.speedup)
        np.testing.assert_array_equal(curve.cycle_time, direct.cycle_time)
        assert curve.regime == direct.regime

    def test_closed_form_presets_share_entries(self, server, client):
        # Warm the daemon's own store with the twin; the daemon must then
        # serve the paper-bus request from it — cross-preset dedup at the
        # service layer.
        from repro.graph.planner import evaluate

        evaluate([self._twin_node()], cache=server.cache)
        curve = client.allocation_curve(
            "paper-bus", "5-point", "square", SIDES, integer=True
        )
        assert client.last_served == "memory"  # no recompute
        self._assert_is_the_paper_bus_curve(curve)

    def test_closed_form_presets_share_entries_from_a_warmed_store(self, tmp_path):
        # The same dedup across processes: warm a store directory
        # offline with the twin, then start a daemon on it.
        from repro.graph.planner import evaluate

        store = tmp_path / "store"
        evaluate([self._twin_node()], cache=SweepCache(store))
        with AsyncSweepServer(port=0, cache_dir=str(store)) as server:
            client = ServiceClient(server.url)
            curve = client.allocation_curve(
                "paper-bus", "5-point", "square", SIDES, integer=True
            )
            assert client.last_served == "disk"  # no recompute
            client.close()
        self._assert_is_the_paper_bus_curve(curve)

    def test_unknown_machine_is_a_400(self, client):
        with pytest.raises(ServiceError, match="unknown machine"):
            client.allocation_curve("cray-1", "5-point", "square", SIDES)

    def test_invalid_axes_are_rejected_not_served(self, client):
        with pytest.raises(ServiceError, match=">= 1"):
            client.allocation_curve("paper-bus", "5-point", "square", [-5, 10])
        with pytest.raises(ServiceError, match=">= 1"):
            client.allocation_curve("paper-bus", "5-point", "square", [0])
        with pytest.raises(ServiceError, match=">= 1"):
            client.compute(PLAN.payload("paper-bus", 0))
        # Nothing bogus was cached or computed along the way.
        assert client.stats()["cache"]["misses"] == 0

    def test_unknown_kind_is_a_400(self, client):
        with pytest.raises(ServiceError, match="unknown request kind"):
            client.compute({"kind": "frobnicate"})


def _post_compute(payload) -> tuple[int, dict]:
    response = ServiceCore().handle_request(
        "POST", "/v1/compute", json.dumps(payload).encode()
    )
    return response.status, json.loads(response.body_bytes())


_ALLOCATION = {"kind": "allocation_curve", "machine": "paper-bus",
               "stencil": "5-point", "partition": "square", "grid_sides": [64, 128]}


class TestMalformedRequests:
    # Every field is coerced once, through its family's declared schema,
    # so a malformed value is the client's error (400), never a crash.
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "plan", "machine": "paper-bus", "n": "abc"},
            {**_ALLOCATION, "t_flop": None},
            {**_ALLOCATION, "t_flop": "x"},
            {**_ALLOCATION, "t_flop": -1.0},
            {"kind": "sim_sweep", "machine": "paper-bus", "n": 16,
             "n_processors": 4, "replicas": "many"},
            {"kind": "sweep", "grid_sides": [64], "processors": ["a"],
             "machines": ["paper-bus"]},
            [_ALLOCATION],
        ],
        ids=["plan-n", "t_flop-null", "t_flop-text", "t_flop-negative",
             "replicas-text", "sweep-processors", "list-body"],
    )
    def test_malformed_fields_are_400s(self, payload):
        status, body = _post_compute(payload)
        assert status == 400, body
        assert body["status"] == "error"

    def test_replica_expansion_is_bounded_before_it_happens(self):
        from repro.graph.families import MAX_REPLICAS

        payload = {"kind": "sim_sweep", "machine": "paper-bus", "n": 16,
                   "n_processors": 4, "replicas": 10**12}
        started = time.monotonic()
        status, body = _post_compute(payload)
        assert status == 400
        assert str(MAX_REPLICAS) in body["error"]
        assert time.monotonic() - started < 5.0  # refused, not expanded
        too_many = {**payload, "replicas": None, "seeds": [0] * (MAX_REPLICAS + 1)}
        status, body = _post_compute(too_many)
        assert status == 400 and str(MAX_REPLICAS) in body["error"]
        # The bound admits every caller's ensemble size.
        assert MAX_REPLICAS >= 1000


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(self, server):
        outcomes: list[str] = []
        lock = threading.Lock()

        def fire():
            c = ServiceClient(server.url)
            c.allocation_curve(
                "paper-bus", "9-point-box", "strip", list(range(32, 1500, 2)),
                integer=True,
            )
            with lock:
                outcomes.append(c.last_served)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts = Counter(outcomes)
        assert counts["computed"] == 1
        assert sum(counts.values()) == 8
        # Everyone else was deduplicated: coalesced on the in-flight
        # entry or served from the store the one compute filled.
        assert counts["coalesced"] + counts["memory"] + counts["disk"] == 7

    def test_micro_batch_compatible_axes_one_compute(self, server, monkeypatch):
        # Group commit, made deterministic: the first request's
        # evaluation parks, every rider lands in the pending bucket, and
        # the release runs exactly one fused evaluation for all of them.
        gate = _ParkFirstEvaluation(monkeypatch)
        results = _fire_group_commit_round(
            server,
            gate,
            lambda c, lo: c.allocation_curve(
                "flex32", "5-point", "square", list(range(lo, lo + 200))
            ),
            [100 + 17 * i for i in range(6)],
        )
        for lo, curve in results:
            direct = optimal_allocation_curve(
                FLEX32, FIVE_POINT, SQUARE, list(range(lo, lo + 200))
            )
            for name, value in direct.to_arrays().items():
                np.testing.assert_array_equal(curve.to_arrays()[name], value)

    def test_micro_batch_compatible_sweeps_one_compute(self, server, monkeypatch):
        # The batcher is not allocation-only: compatible *sweep* requests
        # (same processors/machines/stencil/kind, different grid axes)
        # ride one fused evaluation too.
        gate = _ParkFirstEvaluation(monkeypatch)
        results = _fire_group_commit_round(
            server,
            gate,
            lambda c, lo: c.compute(
                SWEEP.payload(
                    SweepSpec.across_catalog(
                        list(range(lo, lo + 120)), [1.0, 4.0, 16.0], machines=["ipsc", "paper-bus"]
                    )
                )
            ),
            [64 + 13 * i for i in range(6)],
        )
        for lo, surfaces in results:
            direct = run_sweep(
                SweepSpec.across_catalog(
                    list(range(lo, lo + 120)),
                    [1.0, 4.0, 16.0],
                    machines=["ipsc", "paper-bus"],
                )
            )
            for name in ("ipsc", "paper-bus"):
                np.testing.assert_array_equal(surfaces[name], direct.cycle_time(name))

    def test_failing_fused_evaluation_fails_every_rider(self, server, monkeypatch):
        gate = _ParkFirstEvaluation(monkeypatch, failing=True)
        sides = [[lo + k for k in range(50)] for lo in (100, 300, 500, 700)]
        first, riders = sides[0], sides[1:]
        outcomes: dict[tuple[int, str], object] = {}

        def start(axis: list[int], role: str) -> threading.Thread:
            def fire() -> None:
                c = ServiceClient(server.url)
                try:
                    outcome = c.allocation_curve("ipsc", "5-point", "square", axis)
                except ServiceError as exc:
                    outcome = exc
                outcomes[axis[0], role] = outcome
                c.close()

            thread = threading.Thread(target=fire, daemon=True)
            thread.start()
            return thread

        head = start(first, "member")
        assert gate.parked.wait(10.0)
        threads = [head, *(start(axis, "member") for axis in riders)]
        _wait_for_bucket(server, len(riders))
        # Twins of the bucket's leader and of its last rider.
        threads += [start(riders[0], "twin"), start(riders[-1], "twin")]
        _wait_until_waiting(len(riders) + 2)
        gate.release.set()
        _join_all(threads)
        assert not isinstance(outcomes[first[0], "member"], ServiceError)
        failed = [(axis[0], "member") for axis in riders]
        failed += [(riders[0][0], "twin"), (riders[-1][0], "twin")]
        for key in failed:
            error = outcomes[key]
            assert isinstance(error, ServiceError), key
            assert "injected kernel failure" in str(error), key
        assert gate.calls == 2
        # The group's state was released, so the next request for it
        # runs instead of queueing behind a round nobody leads.
        _assert_batching_state_empty(server)
        gate.failing = False
        c = ServiceClient(server.url, timeout=10.0)
        curve = c.allocation_curve("ipsc", "5-point", "square", riders[0])
        assert c.last_served == "computed"
        direct = optimal_allocation_curve(
            DEFAULT_MACHINES["ipsc"], FIVE_POINT, SQUARE, riders[0]
        )
        np.testing.assert_array_equal(curve.speedup, direct.speedup)
        c.close()
        _assert_batching_state_empty(server)

    def test_batched_slices_equal_direct_computation(self, server):
        barrier = threading.Barrier(4)

        def fire(lo: int):
            barrier.wait()
            ServiceClient(server.url).allocation_curve(
                "flex32", "9-point-box", "square", list(range(lo, lo + 150))
            )

        threads = [threading.Thread(target=fire, args=(64 + 31 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        verifier = ServiceClient(server.url)
        for i in range(4):
            lo = 64 + 31 * i
            served = verifier.allocation_curve(
                "flex32", "9-point-box", "square", list(range(lo, lo + 150))
            )
            assert verifier.last_served in ("memory", "disk")
            direct = optimal_allocation_curve(
                FLEX32, NINE_POINT_BOX, SQUARE, list(range(lo, lo + 150))
            )
            np.testing.assert_array_equal(served.speedup, direct.speedup)
            np.testing.assert_array_equal(served.cycle_time, direct.cycle_time)
            assert served.regime == direct.regime


class TestGroupCommitCore:
    def test_lone_cold_request_never_sleeps(self, monkeypatch):
        # A cold request with no compatible evaluation running is
        # computed at once: no fixed batching window on the compute path.
        from repro.service import server as server_module

        sleeps: list[float] = []
        monkeypatch.setattr(server_module.time, "sleep", sleeps.append)
        core = ServiceCore()
        body = json.dumps(
            allocation_payload("paper-bus", "5-point", "square", SIDES)
        ).encode()
        response = core.handle_request("POST", "/v1/compute", body)
        assert response.status == 200
        assert decode_frame(response.body_bytes())[1]["served"] == "computed"
        assert sleeps == []

    def test_memory_response_answers_only_warm_frame_hits(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path))
        body = json.dumps(
            allocation_payload("paper-bus", "5-point", "square", SIDES)
        ).encode()
        assert core.memory_response("POST", "/v1/compute", body) is None
        cold = core.handle_request("POST", "/v1/compute", body)
        warm = core.memory_response("POST", "/v1/compute", body)
        assert warm is not None and warm.body_bytes() != cold.body_bytes()
        assert warm.body_bytes() == core.handle_request(
            "POST", "/v1/compute", body
        ).body_bytes()
        assert core.memory_response("GET", "/v1/compute", body) is None
        core.cache = SweepCache(str(tmp_path))  # the entry is on disk only
        assert core.memory_response("POST", "/v1/compute", body) is None
        assert core.cache.stats.misses == 0

    def test_bucket_timing_out_behind_a_stuck_round_fails_and_cleans_up(
        self, monkeypatch
    ):
        gate = _ParkFirstEvaluation(monkeypatch)
        core = ServiceCore(compute_timeout_s=1.0)
        axes = [[lo + k for k in range(40)] for lo in (100, 300, 500)]
        outcomes: dict[tuple[int, str], object] = {}

        def start(axis: list[int], role: str) -> threading.Thread:
            def fire() -> None:
                payload = allocation_payload("paper-bus", "5-point", "square", axis)
                try:
                    outcomes[axis[0], role] = core.compute_arrays(payload)[1]
                except ReproError as exc:
                    outcomes[axis[0], role] = exc

            thread = threading.Thread(target=fire, daemon=True)
            thread.start()
            return thread

        head = start(axes[0], "member")
        assert gate.parked.wait(10.0)
        threads = []
        for members, axis in enumerate(axes[1:], start=1):
            threads.append(start(axis, "member"))
            _wait_for_bucket(core, members)
        threads.append(start(axes[-1], "twin"))  # a twin of the bucket's rider
        _join_all(threads)
        # The bucket behind the stuck round gave up; nobody is left
        # waiting on a round that will never be led.
        for key in [(axis[0], "member") for axis in axes[1:]] + [(axes[-1][0], "twin")]:
            assert isinstance(outcomes[key], ReproError), key
            assert "timed out" in str(outcomes[key]), key
        with core._batch_lock:  # only the stuck round, holding only its own node
            rounds = [[len(r.nodes) for r in group] for group in core._groups.values()]
        assert rounds == [[1]]
        assert _waiting_in_core() == 0
        gate.release.set()
        _join_all([head])
        assert outcomes[axes[0][0], "member"] == "computed"
        _assert_batching_state_empty(core)
        payload = allocation_payload("paper-bus", "5-point", "square", axes[1])
        assert core.compute_arrays(payload)[1] == "computed"

    def test_stress_every_request_is_served_once_and_state_drains(self):
        # More threads than cores and a short switch interval: a member
        # lost between bucket and handoff would hang, a doubled one
        # would be served twice, and a group left marked running would
        # queue its next request forever.  Every job is submitted twice
        # back to back, so twins race each other into the same rounds.
        core = ServiceCore()
        jobs = [
            (stencil, [lo + 7 * k for k in range(24)])
            for stencil in ("5-point", "9-point-box")
            for lo in range(64, 64 + 40 * 3, 3)
            for _twice in range(2)
        ]
        served: list[tuple[tuple[str, list[int]], tuple[dict, str]]] = []
        lock = threading.Lock()
        cursor = iter(jobs)

        def worker() -> None:
            while True:
                with lock:
                    job = next(cursor, None)
                if job is None:
                    return
                stencil, axis = job
                payload = allocation_payload("flex32", stencil, "square", axis)
                result = core.compute_arrays(payload)
                with lock:
                    served.append((job, result))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            _join_all(threads, timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert len(served) == len(jobs)
        labels = Counter(label for _, (_, label) in served)
        assert set(labels) <= {"computed", "batched", "coalesced", "memory"}
        counters = core.stats_payload()["counters"]
        assert counters["requests"] == len(jobs)
        assert counters["hits"] == labels["memory"]
        for label in ("computed", "batched", "coalesced"):
            assert counters[label] == labels[label], label
        assert (
            counters["hits"] + counters["computed"] + counters["batched"]
            + counters["coalesced"] == counters["requests"]
        )
        assert core.cache.stats_snapshot()["executor_runs"] == {
            "numpy": labels["computed"]
        }
        _assert_batching_state_empty(core)
        stencils = {"5-point": FIVE_POINT, "9-point-box": NINE_POINT_BOX}
        for (stencil, axis), (arrays, _) in served:
            direct = optimal_allocation_curve(FLEX32, stencils[stencil], SQUARE, axis)
            for name, value in direct.to_arrays().items():
                np.testing.assert_array_equal(arrays[name], value)


class TestPlanAndSweep:
    def test_plan_arrays(self, client):
        plan = client.compute(PLAN.payload("paper-bus", 256))
        assert plan["max_useful"].shape[1] == 2
        assert plan["default_sides"].shape == (3,)
        # The Section-6.1 anchor: ~14 processors on 256x256 squares.
        stencils = [str(s) for s in plan["stencils"]]
        row = stencils.index("5-point")
        assert round(plan["max_useful"][row, 1].item(), 1) == 14.0

    def test_plan_grid_mode(self, client):
        plan = client.compute(PLAN.payload("paper-bus", 256, grid=[2, 4, 8, 16]))
        assert plan["grid_strip"].shape == (4,)
        assert plan["grid_square"].shape == (4,)

    def test_plan_rejects_non_bus(self, client):
        with pytest.raises(ServiceError, match="not a bus"):
            client.compute(PLAN.payload("ipsc", 256))

    def test_distinct_plans_never_wait_for_each_other(self, monkeypatch):
        # A plan is not fusable, so it is a group-commit group of its
        # own: a second, different plan computes while the first is
        # still evaluating, instead of riding its bucket.
        gate = _ParkFirstEvaluation(monkeypatch)
        core = ServiceCore()
        results = {}

        def fire(n):
            results[n] = core.compute_arrays(PLAN.payload("paper-bus", n))

        first = threading.Thread(target=fire, args=(256,))
        first.start()
        assert gate.parked.wait(10.0)
        second = threading.Thread(target=fire, args=(128,))
        second.start()
        second.join(10.0)
        finished_while_parked = not second.is_alive()
        gate.release.set()
        _join_all([first, second])
        assert finished_while_parked
        arrays, served = results[128]
        assert served == "computed" and arrays["n"].tolist() == [128]
        assert core.stats_payload()["counters"]["computed"] == 2
        _assert_batching_state_empty(core)

    def test_sweep_surfaces_match_run_sweep(self, client):
        spec = SweepSpec.across_catalog(
            [64, 128, 256], [1.0, 4.0, 16.0], machines=["ipsc", "paper-bus"]
        )
        surfaces = client.compute(SWEEP.payload(spec))
        direct = run_sweep(spec)
        for name in ("ipsc", "paper-bus"):
            np.testing.assert_array_equal(surfaces[name], direct.cycle_time(name))


class TestSimRequests:
    def test_sim_sweep_is_bit_identical_to_offline(self, client):
        from repro.batch.sim import ReplicaBatchSpec, simulate_replicas

        served = client.compute(
            SIM_SWEEP.payload(
                machine="paper-bus", n=32, n_processors=4, seeds=range(5, 21), jitter=0.1
            )
        )
        spec = ReplicaBatchSpec.monte_carlo(
            PAPER_BUS, FIVE_POINT, SQUARE, 32, 4, 16, seed=5, jitter=0.1
        )
        offline = simulate_replicas(spec).to_arrays()
        assert sorted(served) == sorted(offline)
        for name in offline:
            np.testing.assert_array_equal(served[name], offline[name])
            assert served[name].dtype == offline[name].dtype
        assert client.last_served == "computed"

    def test_sim_sweep_explicit_seeds(self, client):
        from repro.batch.sim import ReplicaBatchSpec, simulate_replicas

        seeds = [3, 99, 2**63, 2**64 - 1]
        served = client.compute(
            SIM_SWEEP.payload(machine="ipsc", n=24, n_processors=9, seeds=seeds, jitter=0.25)
        )
        spec = ReplicaBatchSpec.build(
            DEFAULT_MACHINES["ipsc"], FIVE_POINT, SQUARE, 24, 9, seeds,
            jitter=0.25,
        )
        offline = simulate_replicas(spec).to_arrays()
        np.testing.assert_array_equal(served["cycle_times"], offline["cycle_times"])
        np.testing.assert_array_equal(served["seeds"], offline["seeds"])

    def test_sim_validate_matches_offline(self, client):
        from repro.sim.validate import validation_arrays

        served = client.compute(
            SIM_VALIDATE.payload("paper-bus", n=24, processor_counts=[1, 2, 4, 8])
        )
        offline = validation_arrays(PAPER_BUS, FIVE_POINT, 24, [1, 2, 4, 8], SQUARE)
        assert sorted(served) == sorted(offline)
        for name in offline:
            np.testing.assert_array_equal(served[name], offline[name])

    def test_repeat_sim_is_a_memory_hit(self, client):
        request = SIM_SWEEP.payload(machine="flex32", n=20, n_processors=4, seeds=range(8))
        client.compute(request)
        client.compute(request)
        assert client.last_served == "memory"

    def test_sim_counter_and_kinds_surface(self, client):
        assert "sim_sweep" in client.health()["kinds"]
        assert "sim_validate" in client.health()["kinds"]
        client.compute(
            SIM_SWEEP.payload(machine="paper-bus", n=16, n_processors=4, seeds=range(4))
        )
        client.compute(SIM_VALIDATE.payload("paper-bus", n=16, processor_counts=[1, 2]))
        assert client.stats()["counters"]["sim"] == 2

    def test_bad_sim_requests_are_400s(self, client):
        def sim(machine, n, seeds=range(2), **knobs):
            return SIM_SWEEP.payload(machine=machine, n=n, n_processors=4, seeds=seeds, **knobs)

        with pytest.raises(ServiceError, match="unknown machine"):
            client.compute(sim("cray-1", 16))
        with pytest.raises(ServiceError, match=">= 1"):
            client.compute(sim("paper-bus", 0))
        with pytest.raises(ServiceError, match="seeds"):
            client.compute(sim("paper-bus", 16, seeds=[]))
        with pytest.raises(ServiceError, match="jitter"):
            client.compute(sim("paper-bus", 16, jitter=1.5))
        with pytest.raises(ServiceError, match="mode"):
            client.compute(sim("paper-bus", 16, mode="warp"))
        with pytest.raises(ServiceError, match="processors"):
            client.compute(SIM_VALIDATE.payload("paper-bus", n=16, processor_counts=[]))
        # Nothing bogus was cached or computed along the way.
        assert client.stats()["cache"]["misses"] == 0


class TestRemovedStoreRoutes:
    def test_store_entries_have_no_route(self, client):
        # Entries are reached only through the compute requests they
        # answer: a GET of a would-be key is an unknown path, and PUT is
        # no method the daemon speaks.
        path = "/v1/cache/" + "a" * 64
        status, _ctype, body = client._request(path)
        assert status == 404
        assert json.loads(body)["error"] == f"no route {path}"
        status, _ctype, body = client._request(
            path, b"REPROFR1", method="PUT", content_type="application/x-repro-frame"
        )
        assert status == 501
        assert json.loads(body)["error"] == "unsupported method PUT"


class TestDiskFailureDegrades:
    def test_full_disk_still_answers_and_counts_the_error(self, tmp_path, monkeypatch):
        def enospc(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with AsyncSweepServer(port=0, cache_dir=str(tmp_path)) as srv:
            c = ServiceClient(srv.url)
            monkeypatch.setattr(os, "replace", enospc)
            curve = c.allocation_curve("paper-bus", "5-point", "square", SIDES)
            direct = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES)
            np.testing.assert_array_equal(curve.speedup, direct.speedup)
            assert c.stats()["cache"]["disk_errors"] == 1
            again = c.allocation_curve("paper-bus", "5-point", "square", SIDES)
            np.testing.assert_array_equal(again.speedup, direct.speedup)
            c.close()


class TestBoundedServerCache:
    def test_eviction_keeps_store_under_bound(self, tmp_path):
        bound_mb = 0.0015  # ~1.5 KiB: one ~1.1 KiB allocation entry, never two
        with AsyncSweepServer(
            port=0, cache_dir=str(tmp_path), max_cache_mb=bound_mb
        ) as srv:
            c = ServiceClient(srv.url)
            for lo in (64, 128, 256, 512):
                c.allocation_curve(
                    "paper-bus", "5-point", "square", list(range(lo, lo + 8))
                )
            entries = list(tmp_path.glob(f"*{SweepCache.ENTRY_SUFFIX}"))
            assert entries, "nothing was stored: the bound check would be vacuous"
            total = sum(p.stat().st_size for p in entries)
            assert total <= int(bound_mb * 2**20)
            assert c.stats()["cache"]["disk_evictions"] > 0

    def test_responses_survive_eviction_pressure(self, tmp_path):
        with AsyncSweepServer(
            port=0, cache_dir=str(tmp_path), max_cache_mb=0.002
        ) as srv:
            c = ServiceClient(srv.url)
            curve = c.allocation_curve(
                "paper-bus", "5-point", "square", list(range(64, 72))
            )
            direct = optimal_allocation_curve(
                PAPER_BUS, FIVE_POINT, SQUARE, list(range(64, 72))
            )
            np.testing.assert_array_equal(curve.speedup, direct.speedup)


class TestUnreachableServer:
    def test_connection_error_is_a_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()
