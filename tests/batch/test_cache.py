"""The content-addressed sweep cache: keys, levels, stats, correctness."""

import builtins
import dataclasses
import errno
import os
import threading
import time

import numpy as np
import pytest

from repro.batch import (
    CacheStats,
    SweepCache,
    SweepSpec,
    fingerprint,
    optimal_allocation_curve,
)
from repro.batch.cache import _MEMO_ATTR, _canonical
from repro.batch.analysis import AllocationCurve, _compute_allocation_curve
from repro.batch.frame import decode_frame, frame_bytes
from repro.batch.sim import ReplicaBatchSpec
from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import InvalidParameterError
from repro.machines.bus import AsynchronousBus, SynchronousBus
from repro.graph import evaluate as graph_evaluate
from repro.graph import nodes as graph_nodes
from repro.machines.catalog import DEFAULT_MACHINES, PAPER_BUS, PAPER_BUS_ASYNC
from repro.stencils.library import ALL_STENCILS, FIVE_POINT, NINE_POINT_BOX
from repro.stencils.library import by_name as by_stencil_name
from repro.stencils.perimeter import PartitionKind

SQUARE = PartitionKind.SQUARE
SUFFIX = SweepCache.ENTRY_SUFFIX
SIDES = list(range(64, 512, 16))


class TestFingerprint:
    def test_stable_across_calls(self):
        req = ("op", PAPER_BUS, FIVE_POINT, SQUARE, np.arange(5.0))
        assert fingerprint(req) == fingerprint(req)

    def test_distinguishes_machine_parameters(self):
        a = fingerprint(("op", PAPER_BUS))
        b = fingerprint(("op", PAPER_BUS_ASYNC))
        c = fingerprint(("op", type(PAPER_BUS)(b=PAPER_BUS.b * 2, c=0.0)))
        assert len({a, b, c}) == 3

    def test_distinguishes_stencil_kind_and_axis(self):
        base = ("op", PAPER_BUS, FIVE_POINT, SQUARE, np.arange(5.0))
        variants = [
            ("op", PAPER_BUS, NINE_POINT_BOX, SQUARE, np.arange(5.0)),
            ("op", PAPER_BUS, FIVE_POINT, PartitionKind.STRIP, np.arange(5.0)),
            ("op", PAPER_BUS, FIVE_POINT, SQUARE, np.arange(6.0)),
        ]
        digests = {fingerprint(base)} | {fingerprint(v) for v in variants}
        assert len(digests) == 4

    def test_rejects_objects_with_default_repr(self):
        # The default object.__repr__ embeds the memory address, so two
        # identical requests would fingerprint differently across runs —
        # the nondeterminism the fingerprint-purity lint rule guards.
        class Opaque:
            pass

        with pytest.raises(InvalidParameterError, match="cannot fingerprint"):
            fingerprint(("op", Opaque()))

    def test_accepts_objects_with_stable_repr(self):
        class Labelled:
            def __repr__(self) -> str:
                return "Labelled(7)"

        assert fingerprint(("op", Labelled())) == fingerprint(("op", Labelled()))


#: Allocation-request fingerprints (square partitions, sides 64/128/256,
#: default t_flop) for every catalog machine x library stencil, recorded
#: before canonical encodings were memoized.  Existing stores are keyed
#: by these digests; a change here orphans every warm store.
GOLDEN_ALLOCATION_KEYS = {
    ("butterfly", "5-point"): "e8095e133abd18c80757fe7cdeb4ee3856360da72a016b14ac9ffea3237ea0ab",
    ("butterfly", "9-point-box"): "b33805d61915b116c73616be5b95eb3e861ac6a937dfbc81dbffa588005b4e7d",
    ("butterfly", "9-point-star"): "fd47c74dcb70b0826b3ef46ef54c580d5a7ae8cbb29f360bcccb521fde2f77db",
    ("butterfly", "13-point"): "2bc04de2823b8a9360aae8fcd17bd4227870f0e3e9b20d80de4a419fd02c02d6",
    ("fem", "5-point"): "6b362a70a1afeae215ba855467d4131d89a672612d69bbaba266ec15e43e5ba4",
    ("fem", "9-point-box"): "2c63e31ee2efa151062aecb2831246b9c7e4fc81692dcd52b3ffd81fd5a01098",
    ("fem", "9-point-star"): "c892bdfe098f76890ffad57df3a51a4968ad7e66fa2c2108603cb3c3a8baa27e",
    ("fem", "13-point"): "943840cc14777bf5c9e992aeb70f4636bbd9e520154082617b6b048ea0d1a239",
    ("flex32", "5-point"): "b2c9eedf27ecf5ab191da4dd0ac836e457645603f155692c83ac3100d167e672",
    ("flex32", "9-point-box"): "5687464b00907acde1829b2e6c0ef5fab5adb6d807f0af92437995a06b3a0dc1",
    ("flex32", "9-point-star"): "bad7a1525621caee5899dd1be1194270f936625616944323d873c772c5f5d33c",
    ("flex32", "13-point"): "2344ab614f00a91488d2a72f5b82742bd8387da74956116860c53dc3c7f89654",
    ("flex32-async", "5-point"): "28bbe9558ff7a0bf9a2f0183ea33539be4c880312da9581c9b841ce7993f258e",
    ("flex32-async", "9-point-box"): "da23740245ead7d5cf8e1075a05aa828fedc7157537945b8fc4635fde29b470f",
    ("flex32-async", "9-point-star"): "3ab1ecead4d50dacd503694d6f202e27dd067c135005bb6b3c428e4a43ec4547",
    ("flex32-async", "13-point"): "e19de174f406037eb3a15250b084955de3f3f34546fbca51250f574f1c5df4cb",
    ("ipsc", "5-point"): "7a6b96a944789cafd46de01d74d13e07a277eb7d031d439410110a3708d577c6",
    ("ipsc", "9-point-box"): "f86c644a6de3afb0642f5e14496a2836d62c34a51247846adef1b367302b9955",
    ("ipsc", "9-point-star"): "d4020ecfe354dd2595b26f42fb9f5464f7d1063e81f5148e5f21253f5ba3f90e",
    ("ipsc", "13-point"): "1d671a65454365bf8f3b58cd8495bbab050efc852452e01f0f0fa32086ea829c",
    ("paper-bus", "5-point"): "3a894cf18c3e1028da3034874e244887fd55b4de3f6fcb1ad85c2d5dab61698a",
    ("paper-bus", "9-point-box"): "f102147ac351fbf1ccf91e66bed10ef8a8f280e03b24bcf907bad08abf998283",
    ("paper-bus", "9-point-star"): "eb5f4f6077fbd4872bb85267265ee28cc7c1cac1b7fd51e676d78ed1d871ac6f",
    ("paper-bus", "13-point"): "f2228fc0952ac53f3999e2ccc7be1c67711e5fe14f6991f3a59887e9890000fe",
    ("paper-bus-async", "5-point"): "8b55a49d143fda43465879cafbdb32a100d49071f91d5e0a011f3560fe5b76a2",
    ("paper-bus-async", "9-point-box"): "1c9659af65ec68e6cfd99f43bde98506287c243443908bd3a23dbc261de8d1d4",
    ("paper-bus-async", "9-point-star"): "9976de85287c5f9f54c5a38add90f8918afdf3b6f4c16209315268bf84e100ec",
    ("paper-bus-async", "13-point"): "b47a26362ab70f7f6f018169f163851052830aac74e5ee0a47f46f8754beba72",
    ("rp3", "5-point"): "a4a6f82efb2de98fde28a2ec48cb6e119c4addb6538b950433dfef49119f3a12",
    ("rp3", "9-point-box"): "fbc89ac5ab1d39a2e0d5cc4aa282fc061bfc6a13435b34790c22737a38f5ad5c",
    ("rp3", "9-point-star"): "4968b98b2b67ec9dd1e65ec81c90b5e6c6c1b0b93abcebcb3b1b7e08896f5fd3",
    ("rp3", "13-point"): "5ed6c8d6161b9dc27b93d0645c93a19b9e9df2ffde41f890bea21b23ffa798b1",
}
GOLDEN_SWEEP_KEY = "a009c5f3f52350485576abeb43860e386cd34da51f5d11df35ed600eb0865b58"
GOLDEN_REPLICA_KEY = "b0002b5f4e1a82409ef903cad2a98377d62ef0d02216385c8b0372b4cddb310f"


class TestCanonicalMemo:
    @staticmethod
    def _allocation_key(machine, stencil):
        return graph_nodes.allocation_curve(machine, stencil, SQUARE, [64, 128, 256]).key

    def test_golden_allocation_fingerprints(self):
        assert len(GOLDEN_ALLOCATION_KEYS) == len(DEFAULT_MACHINES) * len(ALL_STENCILS)
        for (machine_name, stencil_name), golden in GOLDEN_ALLOCATION_KEYS.items():
            machine = DEFAULT_MACHINES[machine_name]
            stencil = by_stencil_name(stencil_name)
            # A fresh copy carries no memo; the catalog instance may.
            fresh = self._allocation_key(
                dataclasses.replace(machine), dataclasses.replace(stencil)
            )
            assert fresh == golden, (machine_name, stencil_name)
            assert self._allocation_key(machine, stencil) == golden
            assert self._allocation_key(machine, stencil) == golden

    def test_golden_nested_spec_fingerprints(self):
        spec = SweepSpec.across_catalog([64, 128, 256], [1.0, 4.0, 16.0])
        for _ in range(2):
            assert graph_nodes.sweep(spec).key == GOLDEN_SWEEP_KEY
        replicas = ReplicaBatchSpec(
            PAPER_BUS, FIVE_POINT, SQUARE, (64, 128), (4, 16), (1, 2)
        )
        for _ in range(2):
            assert fingerprint(("sim", replicas)) == GOLDEN_REPLICA_KEY

    def test_memoized_encoding_equals_fresh_encoding(self):
        for obj in (*DEFAULT_MACHINES.values(), *ALL_STENCILS):
            memoized = _canonical(obj)
            assert vars(obj)[_MEMO_ATTR] is memoized
            copy = dataclasses.replace(obj)
            assert _MEMO_ATTR not in vars(copy)
            assert _canonical(copy) == memoized

    def test_replace_does_not_reuse_the_old_memo(self):
        base = fingerprint(("op", NINE_POINT_BOX))
        renamed = dataclasses.replace(NINE_POINT_BOX, name="9-point-box-renamed")
        assert _MEMO_ATTR not in vars(renamed)
        assert fingerprint(("op", renamed)) != base
        assert "9-point-box-renamed" in repr(vars(renamed)[_MEMO_ATTR])
        assert fingerprint(("op", NINE_POINT_BOX)) == base

    def test_mutable_dataclasses_are_not_memoized(self):
        @dataclasses.dataclass
        class Knobs:
            width: int

        knobs = Knobs(3)
        before = fingerprint(("op", knobs))
        assert _MEMO_ATTR not in vars(knobs)
        knobs.width = 4
        assert fingerprint(("op", knobs)) != before


#: ``(key, compat)`` of one node per family besides the allocation
#: curves above, recorded before the families moved to one declaration
#: table.  Both halves are load-bearing: ``key`` names the stored entry,
#: ``compat`` decides which cold requests fuse.
GOLDEN_FAMILY_FINGERPRINTS = {
    "allocation_curve": (
        "4aa61897f141533ab44751652ddab161d53105774753b7c4442bd93d1973b003",
        "f37c5fb5b8fab06422fcb3c4a0c5bdd819d14fc8948c0a4935455eb70f410db1",
    ),
    "max_useful": (
        "6c0f639677b0a2c46f94f7829203d138481c183b5a456de2986a39a47b40982c",
        "2baa527afcb8957840e008f878940f44e8b0f74bfbd0f1e4732c6e7137abc078",
    ),
    "n2_min": (
        "5d21863942410b6cb2b5a18e275380f401276ac501f9f48c3b70aa538a56fe34",
        "3149a3179e1147a86cbd1bae42719490844a7a62f6c9bc96d73e0b47bb070f61",
    ),
    "grid_for_efficiency": (
        "6716827df57d5001cd81b4767f874a56f56926926ea5aa977e76e5d8e5602933",
        "d7d80f9ae700de2c80ed009d8c1fed9f54a93782e0c3b0c46a3cced9b16f6373",
    ),
    "sweep": (
        "2337119ca444f59a8d2f9e7af74b8dc3ec4f209bdc4d08e305eff557291dbf56",
        "fc523e95fdcf30bb79a1f20941f0fde2c426a6fe89eea73f8c50b23826862cf1",
    ),
    "sim_sweep": (
        "633352780db20ce0ca361719252faf20b6ae7e2c8759d8a89ac3acdf1886f8e3",
        "f26279e3f66100aaa2874f467c3eda7049de40b7d3eb5602bcece3f9d2d84806",
    ),
    "sim_validate": (
        "c829b4adea6b54e5886974c054fe6796f7e913f20b6940660666b0082ad96008",
        "81f9b72dbd73f20e0347177b96d3506276260833b732d7d84b9f21198f7644ee",
    ),
}

#: The key a daemon stores each wire request under, recorded the same
#: way: a store warmed before the change must keep serving after it.
GOLDEN_WIRE_KEYS = {
    "allocation_curve": "f2cdaebc37c635819c065299c78ec23dda8417ce8578697a4a395d19190b2aeb",
    "plan": "fb2858e4fafbea5f1c721ea549a5765e34fb6d9973080b92df2fd3ef772625c8",
    "plan_grid": "ab6896d80e786ecc20ec76c8b8e4f7ab0ec04d95b8bea7469972d2894151f12e",
    "sweep": "2337119ca444f59a8d2f9e7af74b8dc3ec4f209bdc4d08e305eff557291dbf56",
    "sim_sweep": "56f9f3facc9deccedca95b40d5aa9e944f5a017ba44c7c5cb16dd6e1c25fd66f",
    "sim_seeds": "2f72bf58c441650aa5a70518b166babd036a1b2b7c553764011ca125ef9a7f15",
    "sim_validate": "84f92b7a9c4dbcd72de29702f69ef050f8ee9d10938cd147bd89f90e401b4c7d",
}


def _family_nodes():
    strip = PartitionKind.STRIP
    return {
        "allocation_curve": graph_nodes.allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, [64, 128, 256], max_processors=64, integer=True
        ),
        "max_useful": graph_nodes.max_useful_processors(
            PAPER_BUS, FIVE_POINT, SQUARE, [64, 128, 256]
        ),
        "n2_min": graph_nodes.minimal_problem_size(
            PAPER_BUS, NINE_POINT_BOX, strip, [4, 16, 64]
        ),
        "grid_for_efficiency": graph_nodes.grid_for_efficiency(
            PAPER_BUS, FIVE_POINT, SQUARE, [4, 16], 0.5
        ),
        "sweep": graph_nodes.sweep(
            SweepSpec.across_catalog(
                [64, 128, 256], [1.0, 4.0, 16.0], machines=["paper-bus", "flex32"]
            )
        ),
        "sim_sweep": graph_nodes.sim_sweep(
            PAPER_BUS, FIVE_POINT, SQUARE, 32, 4, [0, 1, 2], jitter=0.1
        ),
        "sim_validate": graph_nodes.sim_validate(
            DEFAULT_MACHINES["ipsc"], FIVE_POINT, strip, 24, [1, 2, 4, 8]
        ),
    }


def _wire_payloads():
    from repro.graph.families import family_for

    def payload(op, *args, **kwargs):
        return family_for(op).payload(*args, **kwargs)

    return {
        "allocation_curve": payload(
            "allocation_curve", "ipsc", "9-point-box", "strip", [64, 128, 256], integer=True
        ),
        "plan": payload("plan", "paper-bus", 256),
        "plan_grid": payload("plan", "paper-bus", 256, [8, 16, 32]),
        "sweep": payload(
            "sweep",
            SweepSpec.across_catalog([64, 128, 256], [1, 4, 16], machines=["paper-bus", "flex32"]),
        ),
        "sim_sweep": payload(
            "sim_sweep", machine="paper-bus", n=32, n_processors=4, seeds=range(8), jitter=0.1
        ),
        "sim_seeds": payload(
            "sim_sweep", machine="paper-bus", n=32, n_processors=4, seeds=[5, 2**64 - 1]
        ),
        "sim_validate": payload("sim_validate", "ipsc", n=24, processor_counts=[1, 2, 4, 8]),
    }


class TestFamilyFingerprints:
    def test_every_family_keeps_its_key_and_compat(self):
        built = _family_nodes()
        assert set(built) == set(GOLDEN_FAMILY_FINGERPRINTS)
        for name, node in built.items():
            assert (node.key, node.compat) == GOLDEN_FAMILY_FINGERPRINTS[name], name

    def test_every_wire_request_keeps_its_stored_key(self):
        from repro.service import ServiceCore

        core = ServiceCore()
        for name, payload in _wire_payloads().items():
            _arrays, _served, key = core.compute_with_key(payload)
            assert key == GOLDEN_WIRE_KEYS[name], name


class TestSweepCacheLevels:
    def test_memory_hit_returns_identical_arrays(self, tmp_path):
        cache = SweepCache(tmp_path)
        c1 = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
        )
        c2 = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
        )
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        np.testing.assert_array_equal(c1.speedup, c2.speedup)
        np.testing.assert_array_equal(c1.area, c2.area)
        assert c1.regime == c2.regime

    def test_disk_hit_after_restart(self, tmp_path):
        cold = SweepCache(tmp_path)
        c1 = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cold
        )
        warm = SweepCache(tmp_path)  # fresh memory, same directory
        c2 = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=warm
        )
        assert warm.stats.disk_hits == 1 and warm.stats.misses == 0
        np.testing.assert_array_equal(c1.cycle_time, c2.cycle_time)
        assert c1.regime == c2.regime  # string arrays survive the frame round trip
        # Whether assembled from the read-only ``<U`` view a decoded frame
        # holds or from an in-memory array, ``regime`` is a tuple of
        # built-in ``str`` equal to the kernel's own.
        direct = _compute_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, np.asarray(SIDES, dtype=float),
            DEFAULT_T_FLOP, None, True,
        )
        arrays, _meta = decode_frame(frame_bytes(direct.to_arrays()))
        view = arrays["regime"]
        assert view.dtype.kind == "U" and not view.flags.writeable
        for regime in (view, np.array(direct.regime)):
            curve = AllocationCurve.from_arrays({**arrays, "regime": regime}, SQUARE)
            assert type(curve.regime) is tuple
            assert all(type(r) is str for r in curve.regime)
            assert curve.regime == direct.regime
        for curve in (c1, c2):
            assert all(type(r) is str for r in curve.regime)
            assert curve.regime == direct.regime

    def test_lookup_memory_never_reads_disk_or_counts_a_miss(self, tmp_path):
        key = "e" * 64
        SweepCache(tmp_path).store(key, {"x": np.arange(4.0)})
        warm = SweepCache(tmp_path)  # the entry is on disk only
        assert warm.lookup_memory(key) is None
        assert warm.lookup_memory("f" * 64) is None
        assert warm.stats.misses == 0 and warm.stats.disk_hits == 0
        arrays, level = warm.lookup_level(key)  # promotes it to memory
        assert level == "disk"
        hit = warm.lookup_memory(key)
        assert hit is arrays
        assert warm.stats.memory_hits == 1 and warm.stats.misses == 0

    def test_memory_only_cache(self):
        cache = SweepCache()  # no directory at all
        optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        assert cache.stats.snapshot() == {
            "memory_hits": 1,
            "disk_hits": 0,
            "misses": 1,
            "memory_evictions": 0,
            "disk_evictions": 0,
            "disk_errors": 0,
            # Each eager call plans a one-node graph; the repeat is a
            # memory hit, so only the first ran the numpy executor.
            "nodes_planned": 2,
            "siblings_fused": 0,
            "subgraphs_deduped": 0,
            "executor_runs": {"numpy": 1},
        }

    def test_different_requests_do_not_collide(self, tmp_path):
        cache = SweepCache(tmp_path)
        c_sq = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        c_st = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, PartitionKind.STRIP, SIDES, cache=cache
        )
        assert cache.stats.misses == 2
        assert not np.array_equal(c_sq.speedup, c_st.speedup)

    def test_cached_result_equals_uncached(self, tmp_path):
        cache = SweepCache(tmp_path)
        cached = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
        )
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        )
        np.testing.assert_array_equal(cached.speedup, direct.speedup)
        np.testing.assert_array_equal(cached.processors, direct.processors)
        assert cached.regime == direct.regime

    def test_cached_arrays_cannot_be_poisoned_in_place(self, tmp_path):
        cache = SweepCache(tmp_path)
        c1 = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        with pytest.raises(ValueError):
            c1.speedup[:] = 0.0  # read-only: mutation cannot corrupt the store
        c2 = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        direct = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES)
        np.testing.assert_array_equal(c2.speedup, direct.speedup)

    def test_describe_labels_warm_and_cold(self, tmp_path):
        cache = SweepCache(tmp_path)
        optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=cache)
        assert "[cold]" in cache.stats.describe()
        warm = SweepCache(tmp_path)
        optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, cache=warm)
        assert "[warm]" in warm.stats.describe()


def _entry(seed: float, words: int = 128) -> dict[str, np.ndarray]:
    return {"x": np.full(words, seed)}


class TestBoundedLRU:
    def test_memory_evicts_least_recently_used(self):
        one_kib = 128 * 8
        cache = SweepCache(max_bytes=2 * one_kib)
        cache.store("a" * 64, _entry(1.0))
        cache.store("b" * 64, _entry(2.0))
        assert cache.lookup("a" * 64) is not None  # refresh a; b is now LRU
        cache.store("c" * 64, _entry(3.0))
        assert cache.lookup("b" * 64) is None  # evicted
        assert cache.lookup("a" * 64) is not None
        assert cache.lookup("c" * 64) is not None
        assert cache.stats.memory_evictions == 1

    def test_oversized_entry_is_still_served(self):
        cache = SweepCache(max_bytes=16)  # smaller than any entry
        value = cache.store("a" * 64, _entry(1.0))
        np.testing.assert_array_equal(value["x"], _entry(1.0)["x"])
        assert cache.lookup("a" * 64) is not None

    def test_disk_store_stays_under_bound(self, tmp_path):
        bound = 4096
        cache = SweepCache(tmp_path, max_bytes=bound)
        for i in range(12):
            cache.store(f"{i:064d}".replace("0", "a", 1), _entry(float(i)))
        sizes = sum(p.stat().st_size for p in tmp_path.glob(f"*{SUFFIX}"))
        assert sizes <= bound
        assert cache.stats.disk_evictions > 0
        # The newest entry always survives.
        survivors = {p.stem for p in tmp_path.glob(f"*{SUFFIX}")}
        assert f"{11:064d}".replace("0", "a", 1) in survivors

    def test_disk_hit_refreshes_lru_age(self, tmp_path):
        # The bound fits three entries on disk, not four.
        bound = 3 * len(frame_bytes(_entry(0.0))) + 100
        cache = SweepCache(tmp_path, max_bytes=bound)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        for i, key in enumerate(keys):
            cache.store(key, _entry(float(i)))
            os.utime(tmp_path / f"{key}{SUFFIX}", (time.time() - 100 + i, time.time() - 100 + i))
        fresh = SweepCache(tmp_path, max_bytes=bound)
        assert fresh.lookup("a" * 64) is not None  # refreshes a's mtime
        fresh.store("d" * 64, _entry(9.0))  # must evict the oldest: b
        names = {p.stem for p in tmp_path.glob(f"*{SUFFIX}")}
        assert "a" * 64 in names and "b" * 64 not in names

    def test_invalid_bound_rejected(self):
        with pytest.raises(InvalidParameterError):
            SweepCache(max_bytes=0)


class TestOrphanedTempFiles:
    def test_stale_tmp_files_swept_on_open(self, tmp_path):
        stale = tmp_path / "tmpabc123.npz.tmp"
        stale.write_bytes(b"crash debris")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        SweepCache(tmp_path)
        assert not stale.exists()

    def test_fresh_tmp_files_left_for_live_writers(self, tmp_path):
        fresh = tmp_path / "tmpdef456.npz.tmp"
        fresh.write_bytes(b"another process, mid-write")
        SweepCache(tmp_path)
        assert fresh.exists()

    def test_junk_tmp_never_poisons_or_blocks_a_hit(self, tmp_path):
        cold = SweepCache(tmp_path)
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cold
        )
        junk = tmp_path / "tmpzzz.npz.tmpXYZ"
        junk.write_bytes(b"\x00garbage")
        warm = SweepCache(tmp_path)
        served = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=warm
        )
        assert warm.stats.disk_hits == 1 and warm.stats.misses == 0
        np.testing.assert_array_equal(served.speedup, direct.speedup)


class TestDirectoryDebris:
    """One scan on open removes files no lookup will ever read."""

    def test_stale_frame_tmp_files_swept_on_open(self, tmp_path):
        stale = tmp_path / f"tmpabc123{SUFFIX}.tmp"
        stale.write_bytes(b"crash debris")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / f"tmpdef456{SUFFIX}.tmp"
        fresh.write_bytes(b"another process, mid-write")
        SweepCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()

    def test_legacy_npz_entries_removed_on_open(self, tmp_path):
        legacy = tmp_path / ("a" * 64 + ".npz")
        np.savez(legacy, x=np.arange(3.0))
        unrelated = tmp_path / "notes.npz"
        unrelated.write_bytes(b"not an entry")
        cache = SweepCache(tmp_path)
        assert not legacy.exists()
        assert unrelated.exists()
        # Nothing reads the old format: the key is a plain miss.
        assert cache.lookup("a" * 64) is None

    def test_entries_are_frames(self, tmp_path):
        from repro.batch.frame import decode_frame

        cache = SweepCache(tmp_path)
        curve = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
        )
        (path,) = tmp_path.glob(f"*{SUFFIX}")
        arrays, _meta = decode_frame(path.read_bytes())
        np.testing.assert_array_equal(arrays["speedup"], curve.speedup)
        assert arrays["regime"].dtype.kind == "U"
        assert tuple(arrays["regime"].tolist()) == tuple(curve.regime)


class TestDiskIOFailure:
    """A disk tier that fails with OSError degrades; it never fails a request."""

    @staticmethod
    def _enospc(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def test_failed_write_serves_from_memory(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        monkeypatch.setattr(os, "replace", self._enospc)
        value = cache.store("a" * 64, _entry(1.0))
        np.testing.assert_array_equal(value["x"], _entry(1.0)["x"])
        assert cache.stats.disk_errors == 1
        assert list(tmp_path.iterdir()) == []  # no entry, no orphaned temp file
        arrays, level = cache.lookup_level("a" * 64)
        assert level == "memory"
        np.testing.assert_array_equal(arrays["x"], value["x"])

    def test_failed_write_does_not_fail_a_computed_request(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        monkeypatch.setattr(os, "replace", self._enospc)
        served = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
        )
        direct = optimal_allocation_curve(PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True)
        np.testing.assert_array_equal(served.speedup, direct.speedup)
        assert cache.stats.snapshot()["disk_errors"] == 1

    def test_failed_read_is_a_counted_miss_and_keeps_the_file(self, tmp_path, monkeypatch):
        SweepCache(tmp_path).store("b" * 64, _entry(2.0))
        (path,) = tmp_path.glob(f"*{SUFFIX}")
        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if str(file).startswith(str(tmp_path)):
                self._enospc()
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        cache = SweepCache(tmp_path)
        assert cache.lookup("b" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.disk_errors == 1
        assert path.exists()  # an unreadable file is not proven corrupt
        monkeypatch.undo()
        assert cache.lookup("b" * 64) is not None

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.lookup("c" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.disk_errors == 0


class TestLockNotHeldForDiskIO:
    def test_memory_hit_does_not_wait_for_a_parked_disk_read(self):
        class ParkedDisk(SweepCache):
            def __init__(self) -> None:
                super().__init__()
                self.entered = threading.Event()
                self.release = threading.Event()

            def _disk_fetch(self, key):
                self.entered.set()
                self.release.wait(timeout=10)
                return None

        cache = ParkedDisk()
        cache.store("a" * 64, _entry(1.0))
        parked = threading.Thread(target=cache.lookup, args=("b" * 64,))
        parked.start()
        try:
            assert cache.entered.wait(timeout=5)
            answers = []
            hit = threading.Thread(target=lambda: answers.append(cache.lookup("a" * 64)))
            hit.start()
            hit.join(timeout=1.0)
            assert not hit.is_alive(), "memory hit waited behind the disk read"
            assert answers and answers[0] is not None
        finally:
            cache.release.set()
            parked.join(timeout=10)
        assert not parked.is_alive()
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 1


class TestCorruptedEntries:
    def _poison(self, tmp_path) -> SweepCache:
        """Warm the store, then corrupt every entry on disk."""
        cold = SweepCache(tmp_path)
        optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cold
        )
        for path in tmp_path.glob(f"*{SUFFIX}"):
            path.write_bytes(path.read_bytes()[: max(8, path.stat().st_size // 3)])
        return cold

    def test_truncated_entry_is_a_miss_then_rewritten(self, tmp_path):
        self._poison(tmp_path)
        cache = SweepCache(tmp_path)
        served = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
        )
        assert cache.stats.misses == 1 and cache.stats.disk_hits == 0
        direct = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True
        )
        np.testing.assert_array_equal(served.speedup, direct.speedup)
        # The recompute rewrote a readable entry: next fresh cache disk-hits.
        fresh = SweepCache(tmp_path)
        optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=fresh
        )
        assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        bad = tmp_path / ("e" * 64 + SUFFIX)
        bad.write_bytes(b"not a frame at all")
        assert cache.lookup("e" * 64) is None
        assert cache.stats.misses == 1
        assert not bad.exists()  # dropped so the recompute can rewrite


class TestClosedFormDedup:
    """Bus presets sharing a closed form collapse to one fingerprint."""

    def test_sync_read_modes_share_fingerprint(self):
        rw = SynchronousBus(b=PAPER_BUS.b, c=0.0, volume_mode="read_write")
        ro = SynchronousBus(b=2 * PAPER_BUS.b, c=0.0, volume_mode="read_only")
        assert fingerprint(("op", rw)) == fingerprint(("op", ro))

    def test_async_volume_mode_is_immaterial(self):
        rw = AsynchronousBus(b=PAPER_BUS.b, c=1e-7, volume_mode="read_write")
        ro = AsynchronousBus(b=PAPER_BUS.b, c=1e-7, volume_mode="read_only")
        assert fingerprint(rw) == fingerprint(ro)

    def test_sync_and_async_never_collide(self):
        sync = SynchronousBus(b=PAPER_BUS.b, c=0.0)
        asyn = AsynchronousBus(b=PAPER_BUS.b, c=0.0)
        assert fingerprint(sync) != fingerprint(asyn)

    def test_different_effective_constants_never_collide(self):
        a = SynchronousBus(b=PAPER_BUS.b, c=0.0)
        b = SynchronousBus(b=1.5 * PAPER_BUS.b, c=0.0, volume_mode="read_only")
        assert fingerprint(a) != fingerprint(b)

    def test_subclasses_keep_field_encoding(self):
        from repro.machines.bus_extensions import FullyAsynchronousBus

        ext = FullyAsynchronousBus(b=PAPER_BUS.b)
        plain = AsynchronousBus(b=PAPER_BUS.b)
        assert fingerprint(ext) != fingerprint(plain)

    @pytest.mark.parametrize("kind", [PartitionKind.STRIP, SQUARE])
    def test_cache_hit_across_presets_is_bit_identical(self, tmp_path, kind):
        rw = SynchronousBus(b=PAPER_BUS.b, c=3 * PAPER_BUS.b, volume_mode="read_write")
        ro = SynchronousBus(
            b=2 * PAPER_BUS.b, c=6 * PAPER_BUS.b, volume_mode="read_only"
        )
        cache = SweepCache(tmp_path)
        first = optimal_allocation_curve(
            rw, FIVE_POINT, kind, SIDES, integer=True, cache=cache
        )
        second = optimal_allocation_curve(
            ro, FIVE_POINT, kind, SIDES, integer=True, cache=cache
        )
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 1
        # Served result equals what the second preset would compute alone.
        direct = optimal_allocation_curve(ro, FIVE_POINT, kind, SIDES, integer=True)
        np.testing.assert_array_equal(second.speedup, direct.speedup)
        np.testing.assert_array_equal(second.cycle_time, direct.cycle_time)
        np.testing.assert_array_equal(first.cycle_time, direct.cycle_time)
        assert second.regime == direct.regime


class TestCacheStatsMerge:
    def test_describe_mentions_evictions(self):
        stats = CacheStats(memory_hits=1, memory_evictions=2)
        assert "2 evictions" in stats.describe()

    def test_describe_mentions_disk_errors(self):
        assert "disk errors" not in CacheStats(memory_hits=1).describe()
        assert "3 disk errors" in CacheStats(memory_hits=1, disk_errors=3).describe()


def _as_arrays(value):
    """Any analysis result as a dict of arrays, for exact comparison."""
    if isinstance(value, dict):
        return value
    if hasattr(value, "to_arrays"):
        return value.to_arrays()
    if dataclasses.is_dataclass(value):
        return {k: np.asarray(v) for k, v in dataclasses.asdict(value).items()}
    return {"value": np.asarray(value)}


def _planned(build):
    """An entry point that plans one node: ``evaluate([build()], cache=cache)``."""
    return lambda cache: graph_evaluate([build()], cache=cache)[0]


# Every analysis entry point that takes a ``cache=``, on small inputs:
# the allocation curve, and each family node planned through the graph.
CACHED_ENTRY_POINTS = {
    "optimal_allocation_curve": lambda cache: optimal_allocation_curve(
        PAPER_BUS, FIVE_POINT, SQUARE, SIDES, integer=True, cache=cache
    ),
    "max_useful_processors": _planned(
        lambda: graph_nodes.max_useful_processors(PAPER_BUS, FIVE_POINT, SQUARE, SIDES)
    ),
    "minimal_problem_size": _planned(
        lambda: graph_nodes.minimal_problem_size(PAPER_BUS, FIVE_POINT, SQUARE, [4, 16, 64])
    ),
    "speedup_ratio": _planned(
        lambda: graph_nodes.speedup_ratio(
            DEFAULT_MACHINES["ipsc"], DEFAULT_MACHINES["butterfly"], FIVE_POINT, SQUARE, SIDES
        )
    ),
    "strip_square_ratio": _planned(
        lambda: graph_nodes.strip_square_ratio(PAPER_BUS, FIVE_POINT, SIDES)
    ),
    "grid_for_efficiency": _planned(
        lambda: graph_nodes.grid_for_efficiency(
            DEFAULT_MACHINES["ipsc"], FIVE_POINT, SQUARE, [4, 16], 0.5
        )
    ),
    "isoefficiency_fit": _planned(
        lambda: graph_nodes.isoefficiency_fit(
            DEFAULT_MACHINES["ipsc"], FIVE_POINT, SQUARE, [4, 16, 64], 0.5
        )
    ),
    "sim_sweep": _planned(
        lambda: graph_nodes.sim_sweep(PAPER_BUS, FIVE_POINT, SQUARE, 16, 4, range(3))
    ),
}


class TestExplicitCacheOnly:
    """A store is used only when the caller passes one as ``cache=``."""

    @pytest.mark.parametrize("name", sorted(CACHED_ENTRY_POINTS))
    def test_passed_store_serves_the_repeat_bit_for_bit(self, name):
        run = CACHED_ENTRY_POINTS[name]
        cache = SweepCache()
        cold = _as_arrays(run(cache))
        computed = cache.stats.misses  # the ratio curves store two entries
        assert computed >= 1 and cache.stats.hits == 0
        warm = _as_arrays(run(cache))
        assert (cache.stats.misses, cache.stats.memory_hits) == (computed, computed)
        direct = _as_arrays(run(None))
        assert sorted(cold) == sorted(warm) == sorted(direct)
        for field in direct:
            np.testing.assert_array_equal(cold[field], direct[field])
            np.testing.assert_array_equal(warm[field], direct[field])

    @pytest.mark.parametrize("name", sorted(CACHED_ENTRY_POINTS))
    def test_without_a_store_no_store_is_touched(self, name, monkeypatch):
        # There is no process-wide store to fall back on: with no
        # ``cache=`` every call computes, and no SweepCache is asked.
        def untouchable(*args, **kwargs):
            pytest.fail("a call without cache= reached a SweepCache")

        for method in ("lookup_level", "lookup_memory", "store", "get_or_compute"):
            monkeypatch.setattr(SweepCache, method, untouchable)
        first = _as_arrays(CACHED_ENTRY_POINTS[name](None))
        again = _as_arrays(CACHED_ENTRY_POINTS[name](None))
        for field in first:
            np.testing.assert_array_equal(first[field], again[field])
