"""Sim nodes in the sweep graph: parity, fusion, dedup, cache sharing.

The graph layer's contract extends to the simulation families:
``sim_sweep``/``sim_validate`` planned and executed through either
backend equal the scalar oracle bit for bit, fused sibling slices equal
solo evaluations exactly, and a ``sim_sweep`` node shares its cache
entry with any store keyed by :func:`repro.batch.sim.replica_request`.
"""

import numpy as np
import pytest

from repro.batch.cache import SweepCache
from repro.batch.sim import ReplicaBatchSpec, replica_request, simulate_replicas
from repro.graph import nodes, plan
from repro.graph.planner import evaluate
from repro.machines.catalog import DEFAULT_MACHINES
from repro.sim.replica import simulate_replica
from repro.sim.validate import validation_arrays
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX
from repro.stencils.perimeter import PartitionKind

MACHINE_ITEMS = sorted(DEFAULT_MACHINES.items())
EXECUTORS = ["numpy", "oracle"]


def _assert_arrays_equal(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(np.asarray(got[name]), np.asarray(want[name])), name


class TestSimSweepNodes:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    def test_matches_scalar_replicas(self, executor, name, machine):
        seeds = [3, 11, 12, 40]
        node = nodes.sim_sweep(
            machine, FIVE_POINT, PartitionKind.SQUARE, 20, 4, seeds, jitter=0.1
        )
        (arrays,) = evaluate([node], executor=executor)
        for i, seed in enumerate(seeds):
            scalar = simulate_replica(
                machine, 20, 4, FIVE_POINT, seed,
                kind=PartitionKind.SQUARE, jitter=0.1,
            )
            assert arrays["cycle_times"][i] == scalar.cycle_time, (executor, name)
            assert arrays["seeds"][i] == seed
            assert arrays["grid_sides"][i] == 20
            assert arrays["processors"][i] == 4

    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    def test_backends_agree(self, name, machine):
        node = nodes.sim_sweep(
            machine, NINE_POINT_BOX, PartitionKind.STRIP, 16, 4,
            [0, 5, 9], mode="barrier", jitter=0.2,
        )
        (via_numpy,) = evaluate([node], executor="numpy")
        (via_oracle,) = evaluate([node], executor="oracle")
        _assert_arrays_equal(via_numpy, via_oracle)

    def test_fused_slices_equal_solo(self):
        machine = DEFAULT_MACHINES["paper-bus"]

        def build(seeds):
            return nodes.sim_sweep(
                machine, FIVE_POINT, PartitionKind.SQUARE, 24, 6, seeds,
                jitter=0.05,
            )

        a, b = build([0, 2, 4]), build([1, 2, 8])
        p = plan([a, b])
        assert p.evaluations == 1  # same config: one fused evaluation
        assert p.siblings_fused == 1
        fused_a, fused_b = p.execute()
        (solo_a,) = evaluate([build([0, 2, 4])])
        (solo_b,) = evaluate([build([1, 2, 8])])
        _assert_arrays_equal(dict(fused_a), dict(solo_a))
        _assert_arrays_equal(dict(fused_b), dict(solo_b))

    def test_different_configs_do_not_fuse(self):
        machine = DEFAULT_MACHINES["paper-bus"]
        a = nodes.sim_sweep(
            machine, FIVE_POINT, PartitionKind.SQUARE, 24, 6, [0, 1]
        )
        b = nodes.sim_sweep(
            machine, FIVE_POINT, PartitionKind.SQUARE, 24, 8, [0, 1]
        )
        c = nodes.sim_sweep(
            machine, FIVE_POINT, PartitionKind.SQUARE, 24, 6, [0, 1], jitter=0.1
        )
        p = plan([a, b, c])
        assert p.evaluations == 3
        assert p.siblings_fused == 0

    def test_duplicate_requests_dedup(self):
        machine = DEFAULT_MACHINES["butterfly"]
        a = nodes.sim_sweep(machine, FIVE_POINT, PartitionKind.SQUARE, 16, 4, [7])
        b = nodes.sim_sweep(machine, FIVE_POINT, PartitionKind.SQUARE, 16, 4, [7])
        p = plan([a, b])
        assert p.n_nodes == 1
        assert p.subgraphs_deduped == 1

    def test_cache_shared_with_offline_path(self, tmp_path):
        machine = DEFAULT_MACHINES["flex32"]
        cache = SweepCache(cache_dir=tmp_path)
        spec = ReplicaBatchSpec.build(
            machine, FIVE_POINT, PartitionKind.SQUARE, 20, 4, [0, 1, 2],
            jitter=0.1,
        )
        offline = cache.get_or_compute(
            replica_request(spec), lambda: simulate_replicas(spec).to_arrays()
        )
        node = nodes.sim_sweep(
            machine, FIVE_POINT, PartitionKind.SQUARE, 20, 4, [0, 1, 2],
            jitter=0.1,
        )
        p = plan([node], cache=cache)
        assert p.cache_hits == 1  # warmed by the offline store
        (arrays,) = p.execute()
        np.testing.assert_array_equal(
            np.asarray(arrays["cycle_times"]), offline["cycle_times"]
        )

    def test_full_range_seeds_stay_exact(self):
        # A list mixing small ints with seeds past 2**63 must not take a
        # float64 detour (which would round 2**64 - 1 up and out of range).
        seeds = [3, 2**63, 2**64 - 1]
        node = nodes.sim_sweep(
            DEFAULT_MACHINES["paper-bus"], FIVE_POINT,
            PartitionKind.SQUARE, 16, 4, seeds,
        )
        assert node.axis.dtype == np.uint64
        assert [int(s) for s in node.axis.tolist()] == seeds
        (arrays,) = evaluate([node])
        np.testing.assert_array_equal(
            arrays["seeds"], np.asarray(seeds, dtype=np.uint64)
        )

    def test_negative_seed_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            nodes.sim_sweep(
                DEFAULT_MACHINES["paper-bus"], FIVE_POINT,
                PartitionKind.SQUARE, 16, 4, [-1],
            )


class TestSimValidateNodes:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name,machine", MACHINE_ITEMS)
    def test_matches_validation_arrays(self, executor, name, machine):
        procs = [1, 2, 4, 8]
        node = nodes.sim_validate(
            machine, FIVE_POINT, PartitionKind.SQUARE, 24, procs
        )
        (arrays,) = evaluate([node], executor=executor)
        want = validation_arrays(
            machine, FIVE_POINT, 24, procs, PartitionKind.SQUARE
        )
        _assert_arrays_equal(dict(arrays), want)

    def test_fused_slices_equal_solo(self):
        machine = DEFAULT_MACHINES["ipsc"]

        def build(procs):
            return nodes.sim_validate(
                machine, FIVE_POINT, PartitionKind.SQUARE, 30, procs
            )

        a, b = build([1, 2, 5]), build([2, 3, 6])
        p = plan([a, b])
        assert p.evaluations == 1
        fused_a, fused_b = p.execute()
        (solo_a,) = evaluate([build([1, 2, 5])])
        (solo_b,) = evaluate([build([2, 3, 6])])
        _assert_arrays_equal(dict(fused_a), dict(solo_a))
        _assert_arrays_equal(dict(fused_b), dict(solo_b))

    def test_closed_form_twins_stay_distinct(self):
        """Two bus presets the cache's closed-form encoding merges must
        build *distinct* sim nodes: simulation charges b and c raw."""
        from repro.batch.cache import fingerprint
        from repro.machines.bus import SynchronousBus

        rw = SynchronousBus(b=1e-5, c=2e-5, volume_mode="read_write")
        ro = SynchronousBus(b=2e-5, c=4e-5, volume_mode="read_only")
        assert fingerprint(rw) == fingerprint(ro)  # premise
        a = nodes.sim_sweep(rw, FIVE_POINT, PartitionKind.SQUARE, 16, 4, [0])
        b = nodes.sim_sweep(ro, FIVE_POINT, PartitionKind.SQUARE, 16, 4, [0])
        assert a.key != b.key
        assert a.compat != b.compat
        va = nodes.sim_validate(rw, FIVE_POINT, PartitionKind.SQUARE, 16, [2, 4])
        vb = nodes.sim_validate(ro, FIVE_POINT, PartitionKind.SQUARE, 16, [2, 4])
        assert va.key != vb.key
