"""Tests for the block cache (eviction/swap) and the shuffle subsystem."""

import pytest

from repro.config import DecaConfig, ExecutionMode, MB
from repro.core.plan import ContainerPlan
from repro.errors import CacheError
from repro.spark import DecaContext
from repro.spark.cache import StorageStrategy


def make_ctx(mode=ExecutionMode.SPARK, heap_mb=32, **overrides):
    defaults = dict(mode=mode, heap_bytes=heap_mb * MB, num_executors=2,
                    tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


class TestCacheStorageStrategies:
    def test_spark_mode_caches_objects(self):
        ctx = make_ctx(ExecutionMode.SPARK)
        rdd = ctx.parallelize(range(100), 2).map(lambda x: x).cache()
        rdd.count()
        blocks = [b for e in ctx.executors
                  for b in e.cache.blocks.values()]
        assert blocks
        assert all(b.plan.strategy is StorageStrategy.OBJECTS for b in blocks)
        assert all(b.records is not None for b in blocks)

    def test_sparkser_mode_serializes(self):
        ctx = make_ctx(ExecutionMode.SPARK_SER)
        rdd = ctx.parallelize(range(100), 2).map(lambda x: x).cache()
        rdd.count()
        blocks = [b for e in ctx.executors
                  for b in e.cache.blocks.values()]
        assert all(b.plan.strategy is StorageStrategy.SERIALIZED
                   for b in blocks)

    def test_deca_without_udt_stays_objects(self):
        """Un-analyzable types are left intact (the paper's fallback)."""
        ctx = make_ctx(ExecutionMode.DECA)
        rdd = ctx.parallelize(range(100), 2).map(lambda x: x).cache()
        rdd.count()
        blocks = [b for e in ctx.executors
                  for b in e.cache.blocks.values()]
        assert all(b.plan.strategy is StorageStrategy.OBJECTS for b in blocks)

    def test_deca_with_udt_uses_pages(self):
        from repro.apps.logistic_regression import labeled_point_udt_info
        ctx = make_ctx(ExecutionMode.DECA)
        data = [(1.0, tuple(float(i) for i in range(10)))
                for _ in range(100)]
        rdd = ctx.parallelize(data, 2).map(
            lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
        rdd.count()
        blocks = [b for e in ctx.executors
                  for b in e.cache.blocks.values()]
        assert all(b.plan.strategy is StorageStrategy.DECA_PAGES
                   for b in blocks)
        assert all(b.page_group is not None and b.page_group.page_count
                   for b in blocks)

    def test_deca_pages_are_few_heap_objects(self):
        """The headline mechanism: page count ≪ record count."""
        from repro.apps.logistic_regression import labeled_point_udt_info
        ctx = make_ctx(ExecutionMode.DECA)
        data = [(1.0, tuple(float(i) for i in range(10)))
                for _ in range(5000)]
        rdd = ctx.parallelize(data, 2).map(
            lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
        rdd.count()
        pages = sum(e.memory_manager.page_count for e in ctx.executors)
        assert 0 < pages < 50

    def test_cache_footprint_order(self):
        """Spark objects > serialized ≈ Deca pages (Fig. 9 cache bars)."""
        from repro.apps.logistic_regression import labeled_point_udt_info
        data = [(1.0, tuple(float(i) for i in range(10)))
                for _ in range(2000)]
        sizes = {}
        for mode in ExecutionMode:
            ctx = make_ctx(mode)
            rdd = ctx.parallelize(data, 2).map(
                lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
            rdd.count()
            sizes[mode] = ctx.cached_bytes_of(rdd)
        assert sizes[ExecutionMode.SPARK] > sizes[ExecutionMode.SPARK_SER]
        assert sizes[ExecutionMode.SPARK] > sizes[ExecutionMode.DECA]


class TestCacheEvictionAndSwap:
    def _fill(self, ctx, n=4000):
        rdd = ctx.parallelize(
            [(i, float(i)) for i in range(n)], 8).map(lambda x: x).cache()
        rdd.count()
        return rdd

    def test_blocks_swap_under_budget_pressure(self):
        ctx = make_ctx(heap_mb=2, storage_fraction=0.05,
                       shuffle_fraction=0.1)
        rdd = self._fill(ctx)
        swapped = sum(1 for e in ctx.executors
                      for b in e.cache.blocks.values() if b.on_disk)
        assert swapped > 0

    def test_swapped_blocks_reread_correctly(self):
        ctx = make_ctx(heap_mb=2, storage_fraction=0.05,
                       shuffle_fraction=0.1)
        rdd = self._fill(ctx, 3000)
        out = sorted(rdd.collect())
        assert out == [(i, float(i)) for i in range(3000)]

    def test_swap_charges_disk_time(self):
        ctx = make_ctx(heap_mb=2, storage_fraction=0.05,
                       shuffle_fraction=0.1)
        self._fill(ctx)
        # Under cold_tier="mmap" the same traffic is charged to the
        # (faster) tier clock instead of the disk clock.
        assert any(e.dur_ticks > 0 for e in ctx.tracer.events
                   if e.category in ("io.disk", "io.tier"))

    def test_missing_block_raises(self):
        ctx = make_ctx()
        with pytest.raises(CacheError):
            ctx.executors[0].cache.get((999, 0))

    def test_lru_prefers_cold_blocks(self):
        ctx = make_ctx()
        store = ctx.executors[0].cache
        from repro.spark.cache import CachedBlock
        from repro.spark.measure import RecordFootprint

        def block(key):
            return CachedBlock(
                key=key, plan=ContainerPlan(
                    target="cache:t", udt=None, local_size_type=None,
                    global_size_type=None, decomposed=False, reason="test",
                    strategy=StorageStrategy.SERIALIZED),
                records=[1], blob=None, page_group=None,
                record_count=1, memory_bytes=100,
                disk_bytes=100, footprint=RecordFootprint(1, 100, 50))

        store.put(block((1, 0)))
        store.put(block((2, 0)))
        store.get((1, 0))  # (2, 0) becomes LRU
        assert ctx.executors[0].arena._lru_victim().block == (2, 0)


class TestShuffleCosts:
    def test_remote_blocks_pay_network(self):
        ctx = make_ctx()
        pairs = ctx.parallelize([(i % 5, 1) for i in range(200)], 4)
        pairs.reduce_by_key(lambda a, b: a + b, 4).collect()
        assert any(e.dur_ticks > 0 for e in ctx.tracer.events
                   if e.name == "net:transfer")

    def test_spill_when_buffer_exceeds_budget(self):
        ctx = make_ctx(heap_mb=2, storage_fraction=0.1,
                       shuffle_fraction=0.01)
        pairs = ctx.parallelize(
            [(i, "x" * 50) for i in range(3000)], 2)
        pairs.group_by_key(2).count()
        run = ctx.finish()
        assert run.spilled_shuffle_bytes > 0

    def test_deca_shuffle_combine_allocates_less(self):
        """Eager combining: Deca's segment reuse kills the Tuple2 churn."""
        from repro.apps.wordcount import wordcount_udt_info
        counts = {}
        for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
            ctx = make_ctx(mode)
            info = wordcount_udt_info()
            pairs = ctx.parallelize(
                ["w%d" % (i % 50) for i in range(4000)], 2) \
                .map(lambda w: (w, 1)).with_udt(info)
            pairs.reduce_by_key(lambda a, b: a + b, 2).count()
            run = ctx.finish()
            counts[mode] = sum(
                e.heap.stats.minor_count for e in ctx.executors)
        assert counts[ExecutionMode.DECA] <= counts[ExecutionMode.SPARK]

    def test_shuffle_read_is_deterministic(self):
        ctx = make_ctx()
        data = [(i % 7, i) for i in range(500)]
        out1 = sorted(ctx.parallelize(data, 4).reduce_by_key(
            lambda a, b: a + b, 3).collect())
        ctx2 = make_ctx()
        out2 = sorted(ctx2.parallelize(data, 4).reduce_by_key(
            lambda a, b: a + b, 3).collect())
        assert out1 == out2
