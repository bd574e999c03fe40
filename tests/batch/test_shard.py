"""Sharded evaluation equals unsharded evaluation exactly."""

import numpy as np
import pytest

from repro.batch import (
    SweepCache,
    SweepSpec,
    axis_chunks,
    optimal_allocation_curve,
    run_sweep,
    run_sweep_sharded,
    sharded_allocation_arrays,
    sharded_allocation_curve,
)
from repro.errors import InvalidParameterError
from repro.machines.catalog import PAPER_BUS
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

SQUARE = PartitionKind.SQUARE
SIDES = list(range(64, 400))  # wide enough to actually shard


class TestAxisChunks:
    def test_covers_axis_in_order(self):
        chunks = axis_chunks(1000, jobs=4)
        flat = []
        for sl in chunks:
            flat.extend(range(sl.start, sl.stop))
        assert flat == list(range(1000))
        assert 1 < len(chunks) <= 4

    def test_small_axes_collapse_to_one_chunk(self):
        assert axis_chunks(10, jobs=8) == [slice(0, 10)]

    def test_rejects_empty_axis(self):
        with pytest.raises(InvalidParameterError):
            axis_chunks(0, jobs=2)


class TestShardedAllocation:
    def test_matches_unsharded_bitwise(self):
        sharded = sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, jobs=2
        )
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        )
        np.testing.assert_array_equal(sharded.speedup, direct.speedup)
        np.testing.assert_array_equal(sharded.area, direct.area)
        np.testing.assert_array_equal(sharded.cycle_time, direct.cycle_time)
        np.testing.assert_array_equal(sharded.processors, direct.processors)
        assert sharded.regime == direct.regime

    def test_single_job_short_circuits(self):
        one = sharded_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, [64, 128], jobs=1)
        direct = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, [64, 128])
        np.testing.assert_array_equal(one.speedup, direct.speedup)

    def test_rejects_bad_jobs(self):
        with pytest.raises(InvalidParameterError):
            sharded_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, [64], jobs=0)

    def test_sharded_result_is_cached_whole(self, tmp_path):
        cache = SweepCache(tmp_path)
        sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2, cache=cache
        )
        assert cache.stats.misses == 1
        # The warm repeat is served without sharding (or computing).
        again = sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2, cache=cache
        )
        assert cache.stats.memory_hits == 1
        direct = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES)
        np.testing.assert_array_equal(again.speedup, direct.speedup)

    def test_unsharded_and_sharded_share_cache_keys(self, tmp_path):
        cache = SweepCache(tmp_path)
        optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2, cache=cache
        )
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1


class TestShardedAllocationArrays:
    def test_raw_fanout_equals_curve_arrays(self):
        arrays = sharded_allocation_arrays(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, jobs=2
        )
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        ).to_arrays()
        assert set(arrays) == set(direct)
        for name in direct:
            np.testing.assert_array_equal(arrays[name], direct[name])

    def test_raw_fanout_never_touches_the_cache(self, tmp_path):
        cache = SweepCache(tmp_path)
        from repro.batch import configure_default_cache, clear_default_cache

        configure_default_cache(tmp_path)
        try:
            sharded_allocation_arrays(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2)
        finally:
            clear_default_cache()
        assert len(list(tmp_path.glob(f"*{SweepCache.ENTRY_SUFFIX}"))) == 0
        assert cache.stats.requests == 0


class TestShardedCorruption:
    def test_corrupt_disk_entry_recomputes_on_the_shard_path(self, tmp_path):
        cache = SweepCache(tmp_path)
        first = sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2, cache=cache
        )
        for path in tmp_path.glob(f"*{SweepCache.ENTRY_SUFFIX}"):
            path.write_bytes(b"torn write: not a frame")
        fresh = SweepCache(tmp_path)
        again = sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2, cache=fresh
        )
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        np.testing.assert_array_equal(again.speedup, first.speedup)
        # ... and the recompute rewrote a servable entry.
        rewarmed = SweepCache(tmp_path)
        sharded_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, jobs=2, cache=rewarmed
        )
        assert rewarmed.stats.disk_hits == 1


class TestShardedSweep:
    def test_matches_unsharded_bitwise(self):
        spec = SweepSpec.across_catalog(
            SIDES, [1.0, 2.0, 8.0, 64.0], machines=["ipsc", "paper-bus"]
        )
        sharded = run_sweep_sharded(spec, jobs=2)
        direct = run_sweep(spec)
        for name in ("ipsc", "paper-bus"):
            np.testing.assert_array_equal(
                sharded.cycle_time(name), direct.cycle_time(name)
            )
        np.testing.assert_array_equal(sharded.serial_times, direct.serial_times)
