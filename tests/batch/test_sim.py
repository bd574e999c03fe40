"""Lockstep replica batches: bit-exact parity with the scalar oracle.

The contract under test is the tentpole invariant: for any valid
(N, P, machine, seed) replica, :func:`repro.batch.sim.simulate_replicas`
produces *exactly* the float the event-level oracle
:func:`repro.sim.replica.simulate_replica` produces — same decomposition,
same RNG draws, same arbitration, down to the last ulp.  Equality here
is ``==``, never ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import SweepCache, fingerprint
from repro.batch.sim import (
    SIM_MODES,
    ReplicaBatchSpec,
    machine_sim_tag,
    replica_request,
    simulate_replicas,
)
from repro.errors import InvalidParameterError
from repro.machines.bus import SynchronousBus
from repro.machines.catalog import DEFAULT_MACHINES
from repro.partitioning.decomposition import decomposition_for
from repro.sim.iteration import halo_volumes
from repro.sim.replica import simulate_replica
from repro.stencils.stencil import Stencil
from repro.sim.rng import MAX_SEED
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX, NINE_POINT_STAR
from repro.stencils.perimeter import PartitionKind

MACHINE_NAMES = sorted(DEFAULT_MACHINES)
STENCILS = {"five": FIVE_POINT, "nine-star": NINE_POINT_STAR, "nine-box": NINE_POINT_BOX}


def _assert_matches_oracle(spec: ReplicaBatchSpec) -> None:
    result = simulate_replicas(spec)
    for i in range(len(spec.seeds)):
        oracle = simulate_replica(
            spec.machine,
            spec.grid_sides[i],
            spec.processors[i],
            spec.stencil,
            spec.seeds[i],
            kind=spec.kind,
            t_flop=spec.t_flop,
            mode=spec.mode,
            jitter=spec.jitter,
        )
        assert result.cycle_times[i] == oracle.cycle_time, (
            f"replica {i}: n={spec.grid_sides[i]} p={spec.processors[i]} "
            f"seed={spec.seeds[i]} machine={spec.machine.name}"
        )


class TestParityWithOracle:
    @given(
        name=st.sampled_from(MACHINE_NAMES),
        stencil=st.sampled_from(sorted(STENCILS)),
        kind=st.sampled_from([PartitionKind.SQUARE, PartitionKind.STRIP]),
        mode=st.sampled_from(list(SIM_MODES)),
        jitter=st.sampled_from([0.0, 0.05, 0.3]),
        configs=st.lists(
            st.tuples(
                st.integers(min_value=4, max_value=24),  # n
                st.integers(min_value=1, max_value=9),  # p (capped below)
                st.integers(min_value=0, max_value=MAX_SEED),  # seed
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_event_level(
        self, name, stencil, kind, mode, jitter, configs
    ):
        """Core property: batched == oracle for any valid (N, P, machine, seed).

        Heterogeneous batches on purpose: each replica picks its own
        (n, p, seed), so config grouping and scatter-back are exercised,
        including degenerate members (P = 1, single-replica batches).
        """
        spec = ReplicaBatchSpec.build(
            DEFAULT_MACHINES[name],
            STENCILS[stencil],
            kind,
            [n for n, _, _ in configs],
            [min(p, n) for n, p, _ in configs],
            [s for _, _, s in configs],
            mode=mode,
            jitter=jitter,
        )
        _assert_matches_oracle(spec)

    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_single_replica_batch(self, name):
        spec = ReplicaBatchSpec.build(
            DEFAULT_MACHINES[name], FIVE_POINT, PartitionKind.SQUARE,
            16, 4, 42, jitter=0.1,
        )
        assert len(spec.seeds) == 1
        _assert_matches_oracle(spec)

    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_serial_replicas(self, name):
        """P = 1 is pure jittered compute on every machine."""
        spec = ReplicaBatchSpec.build(
            DEFAULT_MACHINES[name], FIVE_POINT, PartitionKind.SQUARE,
            12, 1, [0, 1, 2], jitter=0.2,
        )
        _assert_matches_oracle(spec)

    @pytest.mark.parametrize("mode", SIM_MODES)
    @pytest.mark.parametrize("name", ["paper-bus", "paper-bus-async", "butterfly"])
    def test_zero_word_transfers(self, name, mode):
        """A one-sided stencil gives the top strip zero reads and the
        bottom strip zero writes; the vectorized phases must treat
        zero-word requests as completing at their ready time without
        occupying the bus."""
        upwind = Stencil("upwind", ((-1, 0),))
        dec = decomposition_for(6, 3, "strip")
        reads, writes = halo_volumes(dec, upwind)
        assert 0 in reads and 0 in writes  # premise of the test
        spec = ReplicaBatchSpec.build(
            DEFAULT_MACHINES[name], upwind, PartitionKind.STRIP,
            [6, 6, 8], [3, 6, 4], [7, 8, 9], mode=mode, jitter=0.15,
        )
        _assert_matches_oracle(spec)

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_monte_carlo_ensemble(self, mode):
        spec = ReplicaBatchSpec.monte_carlo(
            DEFAULT_MACHINES["flex32"], NINE_POINT_STAR, PartitionKind.SQUARE,
            20, 6, 25, seed=100, mode=mode, jitter=0.1,
        )
        assert len(spec.seeds) == 25
        assert spec.seeds[0] == 100
        _assert_matches_oracle(spec)


class TestSpecValidation:
    def test_mismatched_axis_lengths_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReplicaBatchSpec.build(
                DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
                [8, 16], [2, 4, 8], 0,
            )

    def test_processors_beyond_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReplicaBatchSpec.build(
                DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
                4, 17, 0,
            )

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReplicaBatchSpec.build(
                DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
                8, 4, MAX_SEED + 1,
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReplicaBatchSpec.build(
                DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
                8, 4, 0, mode="speculative",
            )

    def test_jitter_band_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReplicaBatchSpec.build(
                DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
                8, 4, 0, jitter=1.0,
            )

    def test_band_summary(self):
        spec = ReplicaBatchSpec.monte_carlo(
            DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
            16, 4, 50, jitter=0.1,
        )
        band = simulate_replicas(spec).band()
        assert band["replicas"] == 50
        assert band["min"] <= band["q05"] <= band["mean"] <= band["q95"] <= band["max"]
        assert band["std"] > 0.0


class TestFingerprints:
    def test_request_is_deterministic_and_seed_sensitive(self):
        base = dict(
            machine=DEFAULT_MACHINES["paper-bus"],
            stencil=FIVE_POINT,
            kind=PartitionKind.SQUARE,
        )
        a = ReplicaBatchSpec.build(grid_sides=16, processors=4, seeds=0, **base)
        b = ReplicaBatchSpec.build(grid_sides=16, processors=4, seeds=0, **base)
        c = ReplicaBatchSpec.build(grid_sides=16, processors=4, seeds=1, **base)
        assert fingerprint(replica_request(a)) == fingerprint(replica_request(b))
        assert fingerprint(replica_request(a)) != fingerprint(replica_request(c))

    def test_sim_tag_keeps_closed_form_twins_apart(self):
        """The cache's closed-form bus canonicalization merges a
        read_write bus with the read_only bus at doubled constants —
        correct for analytic surfaces, *wrong* for simulation, which
        charges ``b`` and ``c`` per word directly.  The sim tag must
        keep them distinct or the cache would serve one machine's
        timeline for the other."""
        rw = SynchronousBus(b=1e-5, c=2e-5, volume_mode="read_write")
        ro = SynchronousBus(b=2e-5, c=4e-5, volume_mode="read_only")
        # Premise: the generic canonicalization really does merge them.
        assert fingerprint(rw) == fingerprint(ro)
        assert machine_sim_tag(rw) != machine_sim_tag(ro)

        def req(m):
            return replica_request(
                ReplicaBatchSpec.build(
                    m, FIVE_POINT, PartitionKind.SQUARE, 12, 4, 0
                )
            )

        assert fingerprint(req(rw)) != fingerprint(req(ro))
        # And the timelines genuinely differ, so the split matters.
        rw_t = simulate_replicas(
            ReplicaBatchSpec.build(rw, FIVE_POINT, PartitionKind.SQUARE, 12, 4, 0)
        ).cycle_times
        ro_t = simulate_replicas(
            ReplicaBatchSpec.build(ro, FIVE_POINT, PartitionKind.SQUARE, 12, 4, 0)
        ).cycle_times
        assert rw_t[0] != ro_t[0]


def _served(spec: ReplicaBatchSpec, cache: SweepCache) -> dict:
    """One-configuration ``spec`` through its ``sim_sweep`` node and ``cache``."""
    from repro.graph import evaluate, nodes

    node = nodes.sim_sweep(
        spec.machine, spec.stencil, spec.kind, spec.grid_sides[0], spec.processors[0],
        spec.seeds, t_flop=spec.t_flop, mode=spec.mode, jitter=spec.jitter,
    )
    return evaluate([node], cache=cache)[0]


class TestCachedPath:
    def test_cache_round_trip_is_bit_exact(self, tmp_path):
        cache = SweepCache(cache_dir=tmp_path)
        spec = ReplicaBatchSpec.monte_carlo(
            DEFAULT_MACHINES["butterfly"], FIVE_POINT, PartitionKind.SQUARE,
            16, 4, 10, jitter=0.05,
        )
        cold = _served(spec, cache)
        warm = _served(spec, cache)
        np.testing.assert_array_equal(cold["cycle_times"], warm["cycle_times"])
        np.testing.assert_array_equal(cold["seeds"], warm["seeds"])
        stats = cache.stats_snapshot()
        assert stats["memory_hits"] + stats["disk_hits"] >= 1

    def test_cache_respects_jitter_in_key(self, tmp_path):
        cache = SweepCache(cache_dir=tmp_path)
        mk = lambda j: ReplicaBatchSpec.monte_carlo(  # noqa: E731
            DEFAULT_MACHINES["paper-bus"], FIVE_POINT, PartitionKind.SQUARE,
            16, 4, 5, jitter=j,
        )
        a = _served(mk(0.0), cache)
        b = _served(mk(0.2), cache)
        assert not np.array_equal(a["cycle_times"], b["cycle_times"])


class TestKernelsAgainstEventLevel:
    """The private lockstep scans equal the event-level bus kernels
    directly — the kernel-by-kernel decomposition of the replica
    invariant, so a drift localizes to one scan instead of a whole
    replica trace."""

    B, C = 6.1e-6, 2.0e-6

    def test_phase_completions_from_zero_equals_sync_bus_phase(self):
        from repro.batch.sim import _phase_completions_from_zero
        from repro.sim.network.bus_sim import BlockRequest, sync_bus_phase

        words = np.array([3.0, 0.0, 5.0, 2.0, 0.0, 7.0])
        requests = [
            BlockRequest(p, int(w), 0.0) for p, w in enumerate(words.tolist())
        ]
        oracle = sync_bus_phase(requests, self.B, self.C)
        batched = _phase_completions_from_zero(words, self.B, self.C)
        for p in range(words.size):
            assert batched[p] == oracle[p]

    def test_barrier_write_cycles_equals_sync_bus_phase(self):
        from repro.batch.sim import _barrier_write_cycles
        from repro.sim.network.bus_sim import BlockRequest, sync_bus_phase

        words = np.array([4.0, 0.0, 6.0, 1.0])
        t2 = np.array([0.0125, 0.031, 0.0004])  # one barrier time per replica
        batched = _barrier_write_cycles(t2, words, self.B, self.C)
        for r, ready in enumerate(t2.tolist()):
            requests = [
                BlockRequest(p, int(w), ready)
                for p, w in enumerate(words.tolist())
            ]
            oracle = sync_bus_phase(requests, self.B, self.C)
            assert batched[r] == max(oracle.values())

    def test_fifo_write_cycles_equals_sync_bus_phase(self):
        from repro.batch.sim import _fifo_write_cycles
        from repro.sim.network.bus_sim import BlockRequest, sync_bus_phase

        words = np.array([2.0, 5.0, 0.0, 3.0])
        ready = np.array(
            [
                [0.004, 0.001, 0.003, 0.001],  # ties keep rank order
                [0.010, 0.010, 0.010, 0.010],
                [0.000, 0.020, 0.005, 0.015],
            ]
        )
        batched = _fifo_write_cycles(ready, words, self.B, self.C)
        for r in range(ready.shape[0]):
            requests = [
                BlockRequest(p, int(words[p]), ready[r, p].item())
                for p in range(words.size)
            ]
            oracle = sync_bus_phase(requests, self.B, self.C)
            assert batched[r] == max(oracle.values())

    def test_async_drain_cycles_equals_async_write_drain(self):
        from repro.batch.sim import _async_drain_cycles
        from repro.sim.network.bus_sim import WordStream, async_write_drain

        t1 = 0.002
        writes = np.array([3.0, 0.0, 5.0])
        intervals = np.array(
            [
                [1.1e-5, 0.0, 0.9e-5],
                [2.3e-5, 0.0, 1.7e-5],
            ]
        )
        compute_end = np.array([0.0021, 0.0029])
        batched = _async_drain_cycles(
            t1, compute_end, writes, intervals, self.B
        )
        for r in range(intervals.shape[0]):
            streams = [
                WordStream(p, int(writes[p]), t1, intervals[r, p].item())
                for p in range(writes.size)
            ]
            drain = async_write_drain(streams, self.B)
            assert batched[r] == max(compute_end[r].item(), drain)

    def test_async_drain_zero_words_is_compute_bound(self):
        from repro.batch.sim import _async_drain_cycles
        from repro.sim.network.bus_sim import async_write_drain

        compute_end = np.array([0.5, 0.7])
        batched = _async_drain_cycles(
            0.1, compute_end, np.zeros(3), np.zeros((2, 3)), self.B
        )
        assert async_write_drain([], self.B) == 0.0
        np.testing.assert_array_equal(batched, compute_end)
