"""Detailed tests for cache swapping and its bookkeeping."""

import dataclasses

import pytest

from repro.analysis.udt import DOUBLE, ArrayType, ClassType, Field
from repro.config import DecaConfig, ExecutionMode, MB
from repro.core.plan import ContainerPlan
from repro.jvm.objects import Lifetime
from repro.memory.unified import StaticMemoryArena
from repro.spark import DecaContext
from repro.spark.cache import CachedBlock, StorageStrategy
from repro.spark.measure import RecordFootprint
from repro.apps.logistic_regression import labeled_point_udt_info


def ctx_with_cached(mode, records=400, heap_mb=32, **overrides):
    defaults = dict(mode=mode, heap_bytes=heap_mb * MB, num_executors=1,
                    tasks_per_executor=2)
    defaults.update(overrides)
    ctx = DecaContext(DecaConfig(**defaults))
    data = [(1.0, tuple(float(d) for d in range(10)))
            for _ in range(records)]
    rdd = ctx.parallelize(data, 2).map(
        lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
    rdd.count()
    return ctx, rdd, data


class TestSwapRoundtrips:
    @pytest.mark.parametrize("mode", list(ExecutionMode),
                             ids=lambda m: m.value)
    def test_swap_out_then_stream_back(self, mode):
        ctx, rdd, data = ctx_with_cached(mode)
        store = ctx.executors[0].cache
        for key in list(store.blocks):
            store.swap_out(key)
        assert all(b.on_disk for b in store.blocks.values())
        assert sorted(rdd.collect()) == sorted(data)

    @pytest.mark.parametrize("mode", list(ExecutionMode),
                             ids=lambda m: m.value)
    def test_swap_in_restores_memory_residence(self, mode):
        ctx, rdd, data = ctx_with_cached(mode)
        store = ctx.executors[0].cache
        key = next(iter(store.blocks))
        store.swap_out(key)
        block = store.swap_in(key)
        assert not block.on_disk
        assert block.memory_bytes > 0
        assert sorted(rdd.collect()) == sorted(data)

    def test_swap_out_is_idempotent(self):
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.SPARK)
        store = ctx.executors[0].cache
        key = next(iter(store.blocks))
        released = store.swap_out(key)
        assert released > 0
        assert store.swap_out(key) == 0

    def test_swap_frees_heap_space(self):
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.SPARK)
        executor = ctx.executors[0]
        live_before = executor.heap.live_objects
        for key in list(executor.cache.blocks):
            executor.cache.swap_out(key)
        executor.heap.full_gc()
        assert executor.heap.live_objects < live_before

    def test_deca_swap_writes_raw_pages(self):
        """No serialization cost when Deca pages hit the disk (App. C)."""
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA)
        executor = ctx.executors[0]
        ser_before = executor.serializer.ser_ticks
        for key in list(executor.cache.blocks):
            executor.cache.swap_out(key)
        assert executor.serializer.ser_ticks == ser_before

    def test_spark_swap_serializes(self):
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.SPARK)
        executor = ctx.executors[0]
        ser_before = executor.serializer.ser_ticks
        key = next(iter(executor.cache.blocks))
        executor.cache.swap_out(key)
        assert executor.serializer.ser_ticks > ser_before


def bare_store():
    """A real executor's cache store, to be filled with synthetic blocks."""
    ctx = DecaContext(DecaConfig(mode=ExecutionMode.SPARK,
                                 heap_bytes=32 * MB, num_executors=1,
                                 tasks_per_executor=2))
    executor = ctx.executors[0]
    return executor, executor.cache


def block_plan(strategy):
    return ContainerPlan(target="cache:t", udt=None, local_size_type=None,
                         global_size_type=None, decomposed=False,
                         reason="synthetic block", strategy=strategy)


def object_block(executor, rdd_id, nbytes=10_000):
    """An OBJECTS-strategy block with a known heap footprint."""
    footprint = RecordFootprint(objects=10, object_bytes=nbytes,
                                data_bytes=nbytes // 2)
    group = executor.heap.new_group(f"cache:({rdd_id}, 0)",
                                    Lifetime.PINNED)
    executor.heap.allocate(group, footprint.objects, nbytes)
    return CachedBlock(
        key=(rdd_id, 0), plan=block_plan(StorageStrategy.OBJECTS),
        records=[(rdd_id, i) for i in range(10)], blob=None,
        page_group=None, record_count=10,
        memory_bytes=nbytes, disk_bytes=nbytes // 2, footprint=footprint,
        alloc_group=group)


class TestSwapInLruOrder:
    def test_swapped_in_block_is_not_its_own_eviction_victim(self):
        """Swap-in must touch the block before making room: under its
        stale LRU tick the just-restored block would be re-evicted at
        once (swap-in thrash), leaving the true LRU block resident."""
        executor, store = bare_store()
        executor.arena.storage_budget = 15_000
        block_a = object_block(executor, rdd_id=1)
        block_b = object_block(executor, rdd_id=2)
        store.put(block_a)
        store.put(block_b)          # budget fits one: A swaps out
        assert block_a.on_disk and not block_b.on_disk
        restored = store.swap_in(block_a.key)
        assert restored is block_a
        assert not block_a.on_disk, "swap-in thrash: A re-evicted itself"
        assert block_b.on_disk, "B was the LRU block once A was touched"

    def test_swap_in_thrash_does_not_recharge_disk(self):
        executor, store = bare_store()
        executor.arena.storage_budget = 15_000
        block_a = object_block(executor, rdd_id=1)
        block_b = object_block(executor, rdd_id=2)
        store.put(block_a)
        store.put(block_b)
        swapped_before = store.swapped_bytes_total
        store.swap_in(block_a.key)
        # Exactly one block (B) moved to disk while restoring A; the
        # pre-fix thrash wrote A straight back out instead.
        assert store.swapped_bytes_total - swapped_before \
            == block_b.disk_bytes
        assert not block_a.on_disk


class TestDropBlockReleasesPayloads:
    def test_drop_clears_parked_disk_payload(self):
        executor, store = bare_store()
        block = object_block(executor, rdd_id=3)
        store.put(block)
        store.swap_out(block.key)
        # The cold tier, not the block, holds the parked payload now.
        name = store._cold_name(block)
        assert executor.cold_tier.holds(name)
        store.remove_rdd(3)
        assert not executor.cold_tier.holds(name)
        assert block.records is None
        assert block.blob is None
        assert block.page_group is None

    def test_invalidate_all_clears_resident_payloads(self):
        executor, store = bare_store()
        block = object_block(executor, rdd_id=4)
        store.put(block)
        store.invalidate_all()
        assert block.records is None
        # (a resident block never parked anything in the cold tier)
        assert not executor.cold_tier.holds(store._cold_name(block))


class TestResidentBytesCounter:
    """The cache's resident bytes (summed over its blocks) agree with the
    arena's storage book through every put, swap and drop."""

    def test_counter_tracks_put_swap_and_drop(self):
        executor, store = bare_store()
        executor.arena.storage_budget = 25_000
        blocks = [object_block(executor, rdd_id=i) for i in range(1, 5)]
        for block in blocks:
            store.put(block)
            assert store.memory_bytes == store.arena.storage_used
        store.swap_in(blocks[0].key)
        assert store.memory_bytes == store.arena.storage_used
        store.remove_rdd(2)
        assert store.memory_bytes == store.arena.storage_used
        store.invalidate_all()
        assert store.memory_bytes == store.arena.storage_used == 0

    @pytest.mark.parametrize("mode", list(ExecutionMode),
                             ids=lambda m: m.value)
    def test_counter_matches_ground_truth_after_run(self, mode):
        ctx, rdd, _ = ctx_with_cached(mode)
        store = ctx.executors[0].cache
        assert store.memory_bytes == store.arena.storage_used > 0
        for key in list(store.blocks):
            store.swap_out(key)
        assert store.memory_bytes == store.arena.storage_used == 0


class TestDecaSwapDoubleBuffering:
    def test_swap_copies_are_charged_and_bounded(self):
        """Heap-tier Deca swap must account its transient page copies
        and stream them page by page: the old path copied the whole
        group into unaccounted ``bytes`` objects before reclaiming it
        (~2x the group's footprint, invisible to the heap model)."""
        from repro.jvm.sizing import array_bytes

        # Pin the heap tier: the drain bound under test IS the heap
        # path (the mmap tier moves bytes without any heap copies).
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA,
                                      cold_tier="heap")
        executor = ctx.executors[0]
        store = executor.cache
        key = next(k for k, b in store.blocks.items()
                   if b.page_group is not None)
        group = store.blocks[key].page_group
        used = group.used_bytes
        page_capacity = max(p.capacity for p in group.pages)
        heap = executor.heap
        baseline = heap.young_used_bytes + heap.old_used_bytes
        peak = [baseline]
        real_allocate = heap.allocate

        def spying_allocate(alloc_group, objects, nbytes):
            real_allocate(alloc_group, objects, nbytes)
            peak[0] = max(peak[0],
                          heap.young_used_bytes + heap.old_used_bytes)

        heap.allocate = spying_allocate
        try:
            store.swap_out(key)
        finally:
            heap.allocate = real_allocate
        # The copies were charged (pre-fix: zero — they never touched
        # the accounting plane)...
        assert executor.serializer.swap_copy_bytes_total == used > 0
        # ...and the double-buffer transient is one page, not the group.
        assert peak[0] <= baseline + array_bytes(1, page_capacity)


class TestReentrantEvictionGuard:
    def test_mid_swap_pressure_cannot_revictimize_the_swapping_block(self):
        """The drain's copy charges can raise heap pressure while the
        block is halfway out; under its stale LRU tick (and still
        ``on_disk=False``) the victim selector used to pick that very
        block and double-drain its reclaimed page group."""
        ctx, rdd, data = ctx_with_cached(ExecutionMode.DECA)
        executor = ctx.executors[0]
        store = executor.cache
        key = next(k for k, b in store.blocks.items()
                   if b.page_group is not None)
        real_note = executor.serializer.note_swap_copy

        def hostile_note(nbytes):
            # Simulate the re-entrant pressure the copy charge raises.
            real_note(nbytes)
            executor.arena.release_for_pressure(1)

        executor.serializer.note_swap_copy = hostile_note
        try:
            released = store.swap_out(key)
        finally:
            executor.serializer.note_swap_copy = real_note
        assert released > 0
        assert store.blocks[key].on_disk
        # One drain, one storage release: the resident bytes still
        # match the arena's book (the double-drain corrupted it).
        assert store.memory_bytes == store.arena.storage_used
        assert sorted(rdd.collect()) == sorted(data)

    def test_reentrant_admission_cannot_revictimize_the_evicting_entry(self):
        """``_make_room``'s half of the guard: an admission that re-enters
        the arena from inside a victim's eviction picks another victim,
        never the entry already being evicted."""
        arena = StaticMemoryArena(DecaConfig(heap_bytes=32 * MB))
        half = arena.storage_budget // 2
        evicted = []

        def evict(name):
            def run():
                evicted.append(name)
                if name == "a" and evicted.count("a") == 1:
                    arena.storage_acquire("c", half, evict=evict("c"),
                                          block=(3, 0))
                return half
            return run

        for rdd_id, name in enumerate("ab", start=1):
            arena.storage_acquire(name, half, evict=evict(name),
                                  block=(rdd_id, 0))
        assert arena.storage_acquire("d", half, evict=evict("d"),
                                     block=(4, 0))
        assert evicted == ["a", "b"]
        assert sorted(arena._entries) == ["c", "d"]
        assert arena.storage_used == 2 * half

    def test_lru_victim_skips_inflight_keys(self):
        executor, store = bare_store()
        arena = executor.arena
        block_a = object_block(executor, rdd_id=1)
        block_b = object_block(executor, rdd_id=2)
        store.put(block_a)
        store.put(block_b)
        entry_a = store._entry_name(block_a)
        arena._inflight.add(entry_a)
        try:
            assert arena._lru_victim().block == block_b.key
        finally:
            arena._inflight.discard(entry_a)
        assert arena._lru_victim().block == block_a.key


def serialized_record_block(executor, rdd_id, memory_bytes=9_000):
    """A schema-less SERIALIZED block whose tracked size deliberately
    differs from its footprint's serialized-size estimate."""
    footprint = RecordFootprint(objects=10, object_bytes=12_000,
                                data_bytes=4_000)
    assert footprint.serialized_bytes != memory_bytes
    group = executor.heap.new_group(f"cache:({rdd_id}, 0)",
                                    Lifetime.PINNED)
    executor.heap.allocate(group, 2, memory_bytes)
    return CachedBlock(
        key=(rdd_id, 0), plan=block_plan(StorageStrategy.SERIALIZED),
        records=[(rdd_id, i) for i in range(10)], blob=None,
        page_group=None, record_count=10,
        memory_bytes=memory_bytes, disk_bytes=4_000, footprint=footprint,
        alloc_group=group)


class TestSwapByteSymmetry:
    def test_serialized_record_block_readmits_released_bytes(self):
        """Swap-in must restore what swap-out released: charging the
        footprint's ``serialized_bytes`` estimate instead leaks the
        difference into the arena's storage book on every round trip."""
        executor, store = bare_store()
        block = serialized_record_block(executor, rdd_id=7)
        store.put(block)
        released = store.swap_out(block.key)
        assert released == 9_000
        restored = store.swap_in(block.key)
        assert restored.memory_bytes == released
        assert store.memory_bytes == store.arena.storage_used

    def test_objects_block_readmits_released_bytes(self):
        executor, store = bare_store()
        block = object_block(executor, rdd_id=8, nbytes=10_000)
        # Tracked size drifted from the footprint estimate (e.g. the
        # measurement sampled) — symmetry must still hold.
        block.memory_bytes = 11_000
        store.put(block)
        released = store.swap_out(block.key)
        assert released == 11_000
        assert store.swap_in(block.key).memory_bytes == released
        assert store.memory_bytes == store.arena.storage_used


class TestMmapColdTier:
    @pytest.mark.parametrize("mode", list(ExecutionMode),
                             ids=lambda m: m.value)
    def test_swap_roundtrip_reads_back_identically(self, mode):
        ctx, rdd, data = ctx_with_cached(mode, cold_tier="mmap")
        store = ctx.executors[0].cache
        for key in list(store.blocks):
            store.swap_out(key)
        assert all(b.on_disk for b in store.blocks.values())
        assert sorted(rdd.collect()) == sorted(data)

    def test_deca_swap_moves_bytes_without_heap_copies(self):
        """The tentpole property: under the mmap tier the Deca swap is
        a byte move — no serializer charge, no heap round trip."""
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA,
                                      cold_tier="mmap")
        executor = ctx.executors[0]
        used = sum(b.page_group.used_bytes
                   for b in executor.cache.blocks.values())
        ser_before = executor.serializer.ser_ticks
        for key in list(executor.cache.blocks):
            executor.cache.swap_out(key)
        assert executor.serializer.swap_copy_bytes_total == 0
        assert executor.serializer.ser_ticks == ser_before
        assert executor.cold_tier.snapshot()["bytes_moved_out"] == used > 0

    def test_promotion_aliases_extent_and_reevict_moves_nothing(self):
        ctx, rdd, data = ctx_with_cached(ExecutionMode.DECA,
                                         cold_tier="mmap")
        executor = ctx.executors[0]
        store = executor.cache
        key = next(iter(store.blocks))
        store.swap_out(key)
        tier = executor.cold_tier
        moved = tier.snapshot()["bytes_moved_out"]
        block = store.swap_in(key)
        assert not block.on_disk
        # The promoted pages alias the extent, which the tier keeps.
        assert tier.holds(store._cold_name(block))
        store.swap_out(key)
        # Warm re-eviction: the resident pages aliased the extent, so
        # demoting again moves zero bytes.
        assert tier.snapshot()["bytes_moved_out"] == moved
        assert sorted(rdd.collect()) == sorted(data)

    def test_drop_releases_extents(self):
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA,
                                      cold_tier="mmap")
        executor = ctx.executors[0]
        store = executor.cache
        for key in list(store.blocks):
            store.swap_out(key)
        tier = executor.cold_tier
        assert tier.snapshot()["extents_live"] > 0
        store.invalidate_all()
        assert tier.snapshot()["extents_live"] == 0
        assert tier.extents.live_bytes == 0

    def test_run_metrics_capture_tier_stats(self):
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA,
                                      cold_tier="mmap")
        store = ctx.executors[0].cache
        for key in list(store.blocks):
            store.swap_out(key)
        run = ctx.finish()
        assert run.tier["swap_out_count"] >= 1
        assert run.tier["bytes_moved_out"] > 0
        assert run.tier["tier_ms"] > 0

    def test_heap_mode_has_no_tier(self):
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA,
                                      cold_tier="heap")
        executor = ctx.executors[0]
        for key in list(executor.cache.blocks):
            executor.cache.swap_out(key)
        # The heap tier swapped every block but holds no file.
        assert all(executor.cold_tier.holds(executor.cache._cold_name(b))
                   for b in executor.cache.blocks.values())
        assert executor.cold_tier.snapshot() == {}
        assert ctx.finish().tier == {}

    @pytest.mark.parametrize("drop", ["unpersist", "invalidate_all"])
    def test_dropping_never_swapped_blocks_creates_no_tier(self, drop):
        """Runs that never swap never touch the filesystem — dropping
        their blocks must not construct the tier as a side effect."""
        ctx, rdd, _ = ctx_with_cached(ExecutionMode.DECA,
                                      cold_tier="mmap")
        executor = ctx.executors[0]
        if drop == "unpersist":
            rdd.unpersist()
        else:
            executor.cache.invalidate_all()
        assert not executor.cache.blocks
        # An mmap tier that never opened its file reports nothing.
        assert executor.cold_tier.extents is None
        assert ctx.finish().tier == {}


@pytest.mark.parametrize("how", ["all", "some", "none"])
@pytest.mark.parametrize("mode", [ExecutionMode.DECA,
                                  ExecutionMode.SPARK_SER],
                         ids=lambda m: m.value)
class TestStreamedReadViewLifetime:
    """Streaming a swapped block decodes straight out of the mmap extent;
    no view of it may outlive the read, however the read ends."""

    def stream_swapped_block(self, mode, how, **overrides):
        ctx, rdd, data = ctx_with_cached(mode, cold_tier="mmap",
                                         **overrides)
        store = ctx.executors[0].cache
        for key in list(store.blocks):
            store.swap_out(key)
        key = next(iter(store.blocks))
        records = store.read_records(key)
        if how == "all":
            assert len(list(records)) == store.blocks[key].record_count
        elif how == "some":
            assert next(records) == data[0]
            records.close()
        del records
        store.invalidate_all()          # _drop_block frees the extents
        return ctx

    def test_extent_can_be_dropped_and_tier_closed(self, mode, how):
        # (the sanitizer keeps every view it tracks alive)
        ctx = self.stream_swapped_block(mode, how, sanitize=False)
        tier = ctx.executors[0].cold_tier
        mapping = tier.extents._mm
        tier.close()
        # mmap.close() refuses (BufferError, swallowed by the tier) while
        # any export of the mapping is alive.
        assert mapping.closed

    def test_ledger_sees_no_live_borrow_at_finish(self, mode, how):
        ctx = self.stream_swapped_block(mode, how, sanitize=True)
        run = ctx.finish()
        assert run.sanitize.get("violations", 0) == 0


class TestUdtInfoCaching:
    def test_callgraph_built_once(self):
        info = labeled_point_udt_info(10)
        assert info.callgraph() is info.callgraph()

    def test_constant_footprint_cached(self):
        info = labeled_point_udt_info(10)
        record = (1.0, tuple(float(d) for d in range(10)))
        assert info.measure(record) is info.measure(record)

    def test_no_entry_method_means_no_callgraph(self):
        info = dataclasses.replace(labeled_point_udt_info(10),
                                   entry_method=None)
        assert info.callgraph() is None

    def test_replace_starts_with_empty_caches(self):
        """The caches are not init fields: a replaced info measures and
        analyses its own fields, not what the original cached."""
        info = labeled_point_udt_info(10)
        record = (1.0, tuple(float(d) for d in range(10)))
        measured = info.measure(record)
        assert info.callgraph() is not None
        # The features as a bare double[], without the wrapper object.
        flat = dict(object_model=ClassType("FlatPoint", [
            Field("label", DOUBLE), Field("xs", ArrayType(DOUBLE))]))
        fresh = dataclasses.replace(labeled_point_udt_info(10), **flat)
        replaced = dataclasses.replace(info, **flat)
        assert replaced.measure(record) == fresh.measure(record) \
            == RecordFootprint(2, 120, 88)
        assert measured != replaced.measure(record)
        assert dataclasses.replace(info, entry_method=None).callgraph() \
            is None
