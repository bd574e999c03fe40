"""The sweep service: wire fidelity, coalescing, batching, bounds."""

import errno
import os
import threading
from collections import Counter

import numpy as np
import pytest

from repro.batch import SweepCache, optimal_allocation_curve, run_sweep, SweepSpec
from repro.machines.catalog import DEFAULT_MACHINES, FLEX32, PAPER_BUS
from repro.service import (
    AsyncSweepServer,
    RemoteSweepCache,
    ServiceClient,
    ServiceError,
    SweepServer,
)
from repro.service.schema import decode_arrays, encode_arrays
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

SQUARE = PartitionKind.SQUARE
SIDES = list(range(64, 512, 16))

BACKENDS = {"thread": SweepServer, "asyncio": AsyncSweepServer}


# The whole suite runs against BOTH transports: every behaviour below —
# wire fidelity, coalescing, micro-batching, bounds, the shared-store
# tier — is a property of the shared ServiceCore, and the backends must
# be indistinguishable through it.
@pytest.fixture(params=sorted(BACKENDS))
def server(request):
    with BACKENDS[request.param](port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestSchema:
    def test_arrays_round_trip_bit_exact(self):
        arrays = {
            "floats": np.array([1.0, -0.0, 1e-300, np.pi]),
            "ints": np.arange(7, dtype=np.int64),
            "strings": np.asarray(["one", "interior", "all"]),
            "matrix": np.arange(6.0).reshape(2, 3),
        }
        decoded = decode_arrays(encode_arrays(arrays))
        assert set(decoded) == set(arrays)
        for name in arrays:
            assert decoded[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(decoded[name], arrays[name])
        # -0.0 keeps its sign bit through the wire.
        assert np.signbit(decoded["floats"][1])


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

    def test_closed_form_presets_share_entries(self, server, client):
        # Warm the daemon's store with the *read_only twin* of paper-bus
        # (doubled constants, same closed form) through the shared-store
        # tier; the daemon must then serve the paper-bus request itself
        # from cache — cross-preset dedup at the service layer.
        from repro.batch.analysis import _allocation_request, _compute_allocation_curve
        from repro.core.parameters import DEFAULT_T_FLOP
        from repro.machines.bus import SynchronousBus

        twin = SynchronousBus(b=2 * PAPER_BUS.b, c=0.0, volume_mode="read_only")
        sides_arr = np.asarray(SIDES, dtype=float)
        remote = RemoteSweepCache(server.url)
        remote.get_or_compute(
            _allocation_request(
                twin, FIVE_POINT, SQUARE, sides_arr, DEFAULT_T_FLOP, None, True
            ),
            lambda: _compute_allocation_curve(
                twin, FIVE_POINT, SQUARE, sides_arr, DEFAULT_T_FLOP, None, True
            ).to_arrays(),
        )
        curve = client.allocation_curve(
            "paper-bus", "5-point", "square", SIDES, integer=True
        )
        assert client.last_served in ("memory", "disk")  # no recompute
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        )
        np.testing.assert_array_equal(curve.speedup, direct.speedup)
        np.testing.assert_array_equal(curve.cycle_time, direct.cycle_time)
        assert curve.regime == direct.regime

    def test_unknown_machine_is_a_400(self, client):
        with pytest.raises(ServiceError, match="unknown machine"):
            client.allocation_curve("cray-1", "5-point", "square", SIDES)

    def test_invalid_axes_are_rejected_not_served(self, client):
        with pytest.raises(ServiceError, match=">= 1"):
            client.allocation_curve("paper-bus", "5-point", "square", [-5, 10])
        with pytest.raises(ServiceError, match=">= 1"):
            client.allocation_curve("paper-bus", "5-point", "square", [0])
        with pytest.raises(ServiceError, match=">= 1"):
            client.plan("paper-bus", 0)
        # Nothing bogus was cached or computed along the way.
        assert client.stats()["cache"]["misses"] == 0

    def test_unknown_kind_is_a_400(self, client):
        with pytest.raises(ServiceError, match="unknown request kind"):
            client.compute({"kind": "frobnicate"})


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

    def test_micro_batch_compatible_axes_one_compute(self, server):
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def fire(lo: int):
            barrier.wait()
            c = ServiceClient(server.url)
            c.allocation_curve(
                "flex32", "5-point", "square", list(range(lo, lo + 200))
            )
            with lock:
                outcomes.append(c.last_served)

        threads = [
            threading.Thread(target=fire, args=(100 + 17 * i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts = Counter(outcomes)
        assert counts["computed"] >= 1
        assert counts["batched"] >= 1  # at least one rider merged onto it

    def test_micro_batch_compatible_sweeps_one_compute(self, server):
        # Satellite of the planner rewrite: the micro-batcher is no
        # longer allocation-only — compatible *sweep* requests (same
        # processors/machines/stencil/kind, different grid axes) ride
        # one fused evaluation too.
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def fire(lo: int):
            barrier.wait()
            c = ServiceClient(server.url)
            c.sweep(
                list(range(lo, lo + 120)), [1.0, 4.0, 16.0], ["ipsc", "paper-bus"]
            )
            with lock:
                outcomes.append(c.last_served)

        threads = [
            threading.Thread(target=fire, args=(64 + 13 * i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts = Counter(outcomes)
        assert counts["computed"] >= 1
        assert counts["batched"] >= 1  # at least one rider merged onto it

        # Every batched slice is bit-identical to a direct evaluation.
        verifier = ServiceClient(server.url)
        for i in range(6):
            lo = 64 + 13 * i
            sides = list(range(lo, lo + 120))
            surfaces = verifier.sweep(sides, [1.0, 4.0, 16.0], ["ipsc", "paper-bus"])
            assert verifier.last_served in ("memory", "disk")
            direct = run_sweep(
                SweepSpec.across_catalog(
                    sides, [1.0, 4.0, 16.0], machines=["ipsc", "paper-bus"]
                )
            )
            for name in ("ipsc", "paper-bus"):
                np.testing.assert_array_equal(surfaces[name], direct.cycle_time(name))

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


class TestPlanAndSweep:
    def test_plan_arrays(self, client):
        plan = client.plan("paper-bus", 256)
        assert plan["max_useful"].shape[1] == 2
        assert plan["default_sides"].shape == (3,)
        # The Section-6.1 anchor: ~14 processors on 256x256 squares.
        stencils = [str(s) for s in plan["stencils"]]
        row = stencils.index("5-point")
        assert round(plan["max_useful"][row, 1].item(), 1) == 14.0

    def test_plan_grid_mode(self, client):
        plan = client.plan("paper-bus", 256, grid=[2, 4, 8, 16])
        assert plan["grid_strip"].shape == (4,)
        assert plan["grid_square"].shape == (4,)

    def test_plan_rejects_non_bus(self, client):
        with pytest.raises(ServiceError, match="not a bus"):
            client.plan("ipsc", 256)

    def test_sweep_surfaces_match_run_sweep(self, client):
        surfaces = client.sweep(
            [64, 128, 256], [1.0, 4.0, 16.0], ["ipsc", "paper-bus"]
        )
        spec = SweepSpec.across_catalog(
            [64, 128, 256], [1.0, 4.0, 16.0], machines=["ipsc", "paper-bus"]
        )
        direct = run_sweep(spec)
        for name in ("ipsc", "paper-bus"):
            np.testing.assert_array_equal(surfaces[name], direct.cycle_time(name))


class TestSimRequests:
    def test_sim_sweep_is_bit_identical_to_offline(self, client):
        from repro.batch.sim import ReplicaBatchSpec, simulate_replicas

        served = client.sim_sweep(
            "paper-bus", 32, 4, replicas=16, seed=5, jitter=0.1
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
        served = client.sim_sweep("ipsc", 24, 9, seeds=seeds, jitter=0.25)
        spec = ReplicaBatchSpec.build(
            DEFAULT_MACHINES["ipsc"], FIVE_POINT, SQUARE, 24, 9, seeds,
            jitter=0.25,
        )
        offline = simulate_replicas(spec).to_arrays()
        np.testing.assert_array_equal(served["cycle_times"], offline["cycle_times"])
        np.testing.assert_array_equal(served["seeds"], offline["seeds"])

    def test_sim_validate_matches_offline(self, client):
        from repro.sim.validate import validation_arrays

        served = client.sim_validate("paper-bus", 24, [1, 2, 4, 8])
        offline = validation_arrays(PAPER_BUS, FIVE_POINT, 24, [1, 2, 4, 8], SQUARE)
        assert sorted(served) == sorted(offline)
        for name in offline:
            np.testing.assert_array_equal(served[name], offline[name])

    def test_repeat_sim_is_a_memory_hit(self, client):
        client.sim_sweep("flex32", 20, 4, replicas=8)
        client.sim_sweep("flex32", 20, 4, replicas=8)
        assert client.last_served == "memory"

    def test_sim_counter_and_kinds_surface(self, client):
        assert "sim_sweep" in client.health()["kinds"]
        assert "sim_validate" in client.health()["kinds"]
        client.sim_sweep("paper-bus", 16, 4, replicas=4)
        client.sim_validate("paper-bus", 16, [1, 2])
        assert client.stats()["counters"]["sim"] == 2

    def test_bad_sim_requests_are_400s(self, client):
        with pytest.raises(ServiceError, match="unknown machine"):
            client.sim_sweep("cray-1", 16, 4, replicas=2)
        with pytest.raises(ServiceError, match=">= 1"):
            client.sim_sweep("paper-bus", 0, 4, replicas=2)
        with pytest.raises(ServiceError, match="seeds"):
            client.sim_sweep("paper-bus", 16, 4, seeds=[])
        with pytest.raises(ServiceError, match="jitter"):
            client.sim_sweep("paper-bus", 16, 4, replicas=2, jitter=1.5)
        with pytest.raises(ServiceError, match="mode"):
            client.sim_sweep("paper-bus", 16, 4, replicas=2, mode="warp")
        with pytest.raises(ServiceError, match="processors"):
            client.sim_validate("paper-bus", 16, [])
        # Nothing bogus was cached or computed along the way.
        assert client.stats()["cache"]["misses"] == 0


class TestSharedStoreTier:
    def test_cache_put_then_get_round_trip(self, client):
        key = "f" * 64
        arrays = {"x": np.linspace(0, 1, 17), "names": np.asarray(["a", "b"])}
        client.cache_put(key, arrays)
        back = client.cache_get(key)
        np.testing.assert_array_equal(back["x"], arrays["x"])
        np.testing.assert_array_equal(back["names"], arrays["names"])

    def test_cache_get_missing_is_none(self, client):
        assert client.cache_get("0" * 64) is None

    def test_malformed_keys_are_rejected(self, client):
        with pytest.raises(ServiceError):
            client.cache_put("../../etc/passwd", {"x": np.zeros(1)})

    def test_remote_sweep_cache_shares_across_processes_worth_of_instances(
        self, server
    ):
        first = RemoteSweepCache(server.url)
        value = first.get_or_compute(("req", 1), lambda: {"x": np.arange(4.0)})
        assert first.stats.misses == 1
        second = RemoteSweepCache(server.url)  # a different "process"
        served = second.get_or_compute(
            ("req", 1), lambda: pytest.fail("must be served remotely")
        )
        np.testing.assert_array_equal(served["x"], value["x"])
        # The remote tier counts as the disk level in local stats, so
        # multi-process reports aggregate true hit totals.
        assert second.stats.snapshot()["disk_hits"] == 1
        assert second.stats.snapshot()["misses"] == 0


class TestDiskFailureDegrades:
    def test_full_disk_still_answers_and_counts_the_error(self, tmp_path, monkeypatch):
        def enospc(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with SweepServer(port=0, cache_dir=str(tmp_path), batch_window_s=0.0) as srv:
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
        with SweepServer(port=0, cache_dir=str(tmp_path), max_cache_mb=bound_mb) as srv:
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
        with SweepServer(
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
