"""Unit and integration tests for the unified executor memory arena.

Covers the arena itself (pool borrowing, fair-share clamps, cooperative
spilling, LRU storage eviction), the static shared shuffle pool
regression (concurrent writers spill at the combined threshold), the
cache's fail-fast oversized-block path, and end-to-end unified-mode
correctness of the engine.
"""

import pytest

from repro.config import DecaConfig, ExecutionMode, MB
from repro.core.plan import ContainerPlan
from repro.errors import ConfigError
from repro.memory.unified import (
    MEMORY_FRACTION,
    STORAGE_REGION_FRACTION,
    StaticMemoryArena,
    UnifiedMemoryManager,
    add_memory_observer,
    create_memory_arena,
    remove_memory_observer,
)
from repro.spark import DecaContext
from repro.spark.cache import CachedBlock, StorageStrategy
from repro.spark.measure import RecordFootprint, measure_generic
from repro.spark.shuffle import MapSideWriter, ShuffleKind


def config(**overrides):
    defaults = dict(heap_bytes=4 * MB, num_executors=1,
                    tasks_per_executor=2)
    defaults.update(overrides)
    return DecaConfig(**defaults)


def unified(**overrides) -> UnifiedMemoryManager:
    return UnifiedMemoryManager(config(**overrides))


class FakeConsumer:
    """A MemoryConsumer that releases its grant when told to spill."""

    def __init__(self, arena, name="fake"):
        self.arena = arena
        self.name = name
        self.held = 0
        self.spill_calls = 0

    @property
    def consumer_name(self):
        return self.name

    def memory_used(self):
        return self.held

    def acquire(self, nbytes, task_key=None):
        got = self.arena.execution_acquire(nbytes, consumer=self,
                                           task_key=task_key)
        self.held += got
        return got

    def spill(self):
        self.spill_calls += 1
        freed = self.arena.execution_release(self.held, consumer=self)
        self.held = 0
        return freed


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            config(memory_mode="fancy")

    def test_arena_sizing(self):
        arena = unified()
        assert (MEMORY_FRACTION, STORAGE_REGION_FRACTION) == (0.75, 0.5)
        assert arena.total == int(arena.config.heap_bytes * 0.75)
        assert arena.storage_region == arena.total // 2

    def test_factory_picks_mode(self):
        assert isinstance(create_memory_arena(config()),
                          StaticMemoryArena)
        assert isinstance(
            create_memory_arena(config(memory_mode="unified")),
            UnifiedMemoryManager)


class TestStaticPool:
    def test_shared_pool_accounting(self):
        arena = StaticMemoryArena(config(shuffle_fraction=0.25))
        assert arena.shuffle_budget == config().heap_bytes // 4
        arena.shuffle_acquire(arena.shuffle_budget)
        assert not arena.shuffle_over_budget()
        arena.shuffle_acquire(1)
        assert arena.shuffle_over_budget()
        arena.shuffle_release(arena.shuffle_used + 100)
        assert arena.shuffle_used == 0  # clamped, never negative


class TestExecutionPool:
    def test_grant_clamped_to_fair_share(self):
        arena = unified()
        key = arena.task_started()
        granted = arena.execution_acquire(arena.total * 2, task_key=key)
        # One active task may take the whole pool but no more.
        assert granted == arena.execution_pool_size()
        assert arena.execution_used == granted

    def test_two_tasks_split_the_pool(self):
        arena = unified()
        key_a = arena.task_started()
        key_b = arena.task_started()
        a = arena.execution_acquire(arena.total, task_key=key_a)
        b = arena.execution_acquire(arena.total, task_key=key_b)
        pool = arena.execution_pool_size()
        assert a == pool // 2
        assert b == pool // 2
        assert arena.min_per_task() <= a <= arena.max_per_task()

    def test_task_finish_releases_leftovers(self):
        arena = unified()
        key = arena.task_started()
        arena.execution_acquire(1000, task_key=key)
        assert arena.execution_used == 1000
        leftover = arena.task_finished(key)
        assert leftover == 1000
        assert arena.execution_used == 0

    def test_release_clamped_to_held(self):
        arena = unified()
        key = arena.task_started()
        arena.execution_acquire(500, task_key=key)
        assert arena.execution_release(10_000, task_key=key) == 500
        assert arena.execution_used == 0

    def test_execution_evicts_borrowed_storage(self):
        arena = unified()
        victims = []
        # Storage borrows beyond its region.
        over = arena.storage_region + 200_000
        assert arena.storage_acquire("blk", over,
                                     evict=lambda: victims.append("blk"))
        key = arena.task_started()
        granted = arena.execution_acquire(arena.total - over + 100_000,
                                          task_key=key)
        # The whole entry was evicted to satisfy execution demand.
        assert victims == ["blk"]
        assert arena.storage_used == 0
        assert granted > 0
        assert arena.stats.evict_events == 1

    def test_execution_cannot_evict_inside_region(self):
        arena = unified()
        within = arena.storage_region - 50_000
        assert arena.storage_acquire("blk", within, evict=lambda: None)
        key = arena.task_started()
        granted = arena.execution_acquire(arena.total, task_key=key)
        # Storage under the region floor survives execution pressure.
        assert arena.storage_used == within
        assert granted == arena.total - within

    def test_cooperative_spill_of_largest_sibling(self):
        # Within a single task the fair-share clamp makes a shortage
        # impossible, so the cooperative path is exercised the way Spark
        # hits it: a lone task grabs the whole pool, then a second task
        # arrives and its 1/2N minimum share must be carved out of the
        # hoarder.
        arena = unified()
        key_a = arena.task_started()
        big = FakeConsumer(arena, "big")
        small = FakeConsumer(arena, "small")
        small.acquire(arena.total // 8, task_key=key_a)
        big.acquire(arena.total, task_key=key_a)
        assert arena.free_bytes == 0       # task A holds the whole pool
        key_b = arena.task_started()
        starved = FakeConsumer(arena, "starved")
        want = arena.max_per_task()        # pool // 2 now that N == 2
        got = starved.acquire(want, task_key=key_b)
        assert big.spill_calls == 1        # largest sibling spilled
        assert small.spill_calls == 0
        assert got == want
        assert arena.stats.spill_events == 1
        # The spilled grants were credited back to task A, not task B.
        assert arena.task_used(key_a) == small.held
        assert arena.task_used(key_b) == got

    def test_borrow_events_emitted(self):
        arena = unified()
        key = arena.task_started()
        arena.execution_acquire(arena.total - arena.storage_region + 1,
                                task_key=key)
        assert arena.stats.borrow_events == 1
        assert arena.stats.borrowed_bytes == 1


class TestStoragePool:
    def test_storage_fills_free_execution_memory(self):
        arena = unified()
        assert arena.storage_acquire("a", arena.total, evict=lambda: None)
        assert arena.storage_used == arena.total
        assert arena.stats.borrow_events == 1

    def test_lru_eviction_makes_room(self):
        arena = unified()
        order = []
        third = arena.total // 3
        for name in ("a", "b", "c"):
            assert arena.storage_acquire(
                name, third,
                evict=lambda n=name: order.append(n))
        arena.storage_touch("a")  # "b" becomes the LRU entry
        assert arena.storage_acquire("d", third, evict=lambda: None)
        assert order == ["b"]

    def test_oversized_claim_rejected(self):
        arena = unified()
        observed = []

        def observer(event, payload):
            observed.append((event, dict(payload)))

        add_memory_observer(observer)
        try:
            assert not arena.storage_acquire("huge", arena.total + 1)
        finally:
            remove_memory_observer(observer)
        assert arena.storage_used == 0
        assert arena.stats.reject_events == 1
        assert observed and observed[0][0] == "reject"

    def test_pinned_entries_cannot_be_evicted(self):
        arena = unified()
        arena.storage_register_pinned("building")
        arena.storage_grow("building", arena.total)
        # A new claim cannot displace the pinned entry.
        assert not arena.storage_acquire("blk", 1000, evict=lambda: None)
        arena.storage_adopt("building", arena.total, evict=lambda: None)
        assert arena.storage_acquire("blk", 1000, evict=lambda: None)
        assert arena.storage_used == 1000

    def test_discard_is_idempotent(self):
        arena = unified()
        assert arena.storage_acquire("blk", 1000, evict=lambda: None)
        assert arena.storage_discard("blk") == 1000
        assert arena.storage_discard("blk") == 0
        assert arena.storage_used == 0

    def test_pressure_evicts_storage_then_spills_consumers(self):
        arena = unified()
        assert arena.storage_acquire("blk", 100_000, evict=lambda: None)
        key = arena.task_started()
        consumer = FakeConsumer(arena)
        consumer.acquire(200_000, task_key=key)
        freed = arena.release_for_pressure(250_000)
        assert freed == 300_000
        assert arena.storage_used == 0
        assert consumer.spill_calls == 1


class TestSharedShufflePoolRegression:
    """Satellite: concurrent writers must share one static pool."""

    def make_writer(self, exe, shuffle_id):
        plan = ContainerPlan(
            target=f"shuffle:{shuffle_id}", udt=None, local_size_type=None,
            global_size_type=None, decomposed=False, reason="test",
            measure=measure_generic)
        return MapSideWriter(exe, shuffle_id=shuffle_id, map_part=0,
                             num_reduce=2, partitioner=lambda k: k,
                             kind=ShuffleKind.GROUP, plan=plan)

    def test_concurrent_writers_spill_at_combined_threshold(self):
        exe = DecaContext(config(heap_bytes=8 * MB,
                                 shuffle_fraction=0.1)).executors[0]
        budget = exe.config.shuffle_bytes
        writer_a = self.make_writer(exe, 0)
        writer_b = self.make_writer(exe, 1)
        # A alone stays at 60% of the budget: no spill.
        while writer_a._buffer_bytes < 0.6 * budget:
            writer_a.write_all([(1, "x" * 64)])
        assert writer_a.spill_count == 0
        # B adds another ~50%: the POOL crosses the budget, so the
        # writer that crosses it spills even though its own buffer is
        # far below the old per-writer threshold.
        while writer_b.spill_count == 0 \
                and writer_b._buffer_bytes < 0.5 * budget:
            writer_b.write_all([(2, "y" * 64)])
        assert writer_b.spill_count == 1
        assert writer_b.spilled_bytes < budget
        # Releases are idempotent across flush/abort.
        writer_a.abort()
        writer_b.abort()
        writer_b.abort()
        assert exe.arena.shuffle_used == 0

    def test_single_writer_threshold_unchanged(self):
        exe = DecaContext(config(heap_bytes=8 * MB,
                                 shuffle_fraction=0.1)).executors[0]
        budget = exe.config.shuffle_bytes
        writer = self.make_writer(exe, 0)
        while writer.spill_count == 0:
            writer.write_all([(1, "x" * 64)])
        # The writer's own buffer crossed the budget, exactly as with
        # the old per-writer check.
        assert writer.spilled_bytes > budget
        writer.abort()


class TestCacheFailFastRegression:
    """Satellite: an impossible block must not evict every resident."""

    def _block(self, key, nbytes):
        return CachedBlock(
            key=key, plan=ContainerPlan(
                target="cache:t", udt=None, local_size_type=None,
                global_size_type=None, decomposed=False, reason="test",
                strategy=StorageStrategy.OBJECTS),
            records=[1], blob=None, page_group=None,
            record_count=1, memory_bytes=nbytes,
            disk_bytes=nbytes // 2,
            footprint=RecordFootprint(objects=1, object_bytes=nbytes,
                                      data_bytes=nbytes))

    def test_oversized_block_skips_useless_evictions(self):
        exe = DecaContext(config(storage_fraction=0.25)).executors[0]
        cache = exe.cache
        resident = self._block((0, 0), cache.storage_budget // 2)
        group = exe.heap.new_group("cache:(0, 0)", None)
        exe.heap.allocate(group, 1, resident.memory_bytes)
        resident.alloc_group = group
        cache.put(resident)
        oversized = self._block((0, 1), cache.storage_budget + 1)
        group = exe.heap.new_group("cache:(0, 1)", None)
        exe.heap.allocate(group, 1, oversized.memory_bytes)
        oversized.alloc_group = group
        oversized_bytes = oversized.memory_bytes
        cache.put(oversized)
        # The oversized block went straight to disk; the resident block
        # was NOT displaced on its behalf.
        assert cache.blocks[(0, 1)].on_disk
        assert not cache.blocks[(0, 0)].on_disk
        rejects = [e for e in exe.tracer.events
                   if e.name == "memory:reject"]
        assert len(rejects) == 1
        assert rejects[0].args["nbytes"] == oversized_bytes
        assert cache.recompute_memory_bytes() == cache.memory_bytes


class TestUnifiedEndToEnd:
    def test_unified_mode_emits_memory_events(self):
        from repro.bench.harness import run_memory_point

        row = run_memory_point("cache-heavy", "unified",
                               ExecutionMode.SPARK)
        summary = row.extra["memory"]
        assert summary["arena"]["borrow_events"] > 0
        assert summary["arena"]["evict_events"] > 0
        assert summary["events"].get("memory:acquire", 0) > 0

    def test_unified_deca_mode_pages_compete_in_arena(self):
        from repro.bench.harness import run_trace_point

        row = run_trace_point(ExecutionMode.DECA, words=30_000,
                              keys=2_000, memory_mode="unified")
        run = row.extra["run"]
        for exe in run.ctx.executors:
            arena = exe.arena
            assert isinstance(arena, UnifiedMemoryManager)
            # Page-group storage flowed through the arena and was fully
            # conserved: acquired == released + still-resident.
            stats = arena.stats
            assert stats.storage_acquired_bytes >= arena.storage_used
            assert (stats.storage_acquired_bytes
                    - stats.storage_released_bytes) == arena.storage_used

    def test_task_slots_drain_after_run(self):
        from repro.bench.harness import run_wc_point

        row = run_wc_point("50GB", "10M", ExecutionMode.SPARK,
                           memory_mode="unified")
        run = row.extra["run"]
        for exe in run.ctx.executors:
            arena = exe.arena
            assert arena.execution_used == 0
            assert arena.snapshot()["active_tasks"] == 0

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK,
                                      ExecutionMode.DECA])
    def test_reduce_merge_spills_reach_the_run_metrics(self, mode):
        """A heap this small denies the reduce-side merge its grant, so
        `ReduceMergeConsumer.spill` runs; what it wrote out is counted
        with the map side's spills, and nothing stays charged.  Heap
        pressure also spills map-side writers in the middle of their own
        buffer allocation, which must land in the fresh buffer."""
        from repro.apps.wordcount import run_wordcount
        from repro.data import random_words

        def run(memory_mode):
            return run_wordcount(
                random_words(30_000, 8_000),
                DecaConfig(mode=mode, memory_mode=memory_mode,
                           heap_bytes=64 * 1024, num_executors=1,
                           tasks_per_executor=4, page_bytes=4 * 1024),
                num_partitions=8)

        got = run("unified")
        spilled = {"shuffle:spill": 0, "shuffle:merge-spill": 0}
        for event in got.ctx.tracer.events:
            if event.name in spilled:
                spilled[event.name] += event.args["spilled_bytes"]
        assert spilled["shuffle:merge-spill"] > 0
        assert got.metrics.spilled_shuffle_bytes == sum(spilled.values())
        assert got.ctx.executors[0].arena.execution_used == 0
        assert got.result == run("static").result
