"""Tests for the RDD API — semantics checked against plain Python."""

from collections import Counter

import pytest

from repro.apps.pagerank import message_udt_info
from repro.config import DecaConfig, ExecutionMode, MB
from repro.errors import ExecutionError
from repro.spark import DecaContext
from repro.spark.rdd import NarrowDependency, ShuffleDependency


def make_ctx(mode=ExecutionMode.SPARK, **overrides):
    defaults = dict(mode=mode, heap_bytes=32 * MB, num_executors=2,
                    tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


class TestBasicTransformations:
    def test_map_collect(self):
        ctx = make_ctx()
        out = ctx.parallelize(range(100), 4).map(lambda x: x * 2).collect()
        assert sorted(out) == [x * 2 for x in range(100)]

    def test_filter(self):
        ctx = make_ctx()
        out = ctx.parallelize(range(50), 4).filter(
            lambda x: x % 3 == 0).collect()
        assert sorted(out) == [x for x in range(50) if x % 3 == 0]

    def test_flat_map(self):
        ctx = make_ctx()
        out = ctx.parallelize(["a b", "c d e"], 2).flat_map(
            str.split).collect()
        assert sorted(out) == ["a", "b", "c", "d", "e"]

    def test_map_partitions(self):
        ctx = make_ctx()
        out = ctx.parallelize(range(10), 2).map_partitions(
            lambda it: [sum(it)]).collect()
        assert sum(out) == sum(range(10))

    def test_chained_transformations(self):
        ctx = make_ctx()
        out = ctx.parallelize(range(20), 4) \
            .map(lambda x: x + 1) \
            .filter(lambda x: x % 2 == 0) \
            .map(lambda x: x * 10) \
            .collect()
        assert sorted(out) == [x * 10 for x in range(1, 21) if x % 2 == 0]

    def test_union(self):
        ctx = make_ctx()
        a = ctx.parallelize([1, 2], 1)
        b = ctx.parallelize([3, 4], 1)
        assert sorted(a.union(b).collect()) == [1, 2, 3, 4]

    def test_key_by_and_map_values(self):
        ctx = make_ctx()
        out = ctx.parallelize(["aa", "b"], 2).key_by(len).map_values(
            str.upper).collect()
        assert sorted(out) == [(1, "B"), (2, "AA")]


class TestActions:
    def test_count(self):
        ctx = make_ctx()
        assert ctx.parallelize(range(123), 5).count() == 123

    def test_reduce(self):
        ctx = make_ctx()
        assert ctx.parallelize(range(1, 11), 3).reduce(
            lambda a, b: a + b) == 55

    def test_reduce_empty_raises(self):
        ctx = make_ctx()
        with pytest.raises(ExecutionError):
            ctx.parallelize([], 2).reduce(lambda a, b: a + b)

    def test_take(self):
        ctx = make_ctx()
        assert len(ctx.parallelize(range(100), 4).take(7)) == 7

    def test_foreach(self):
        ctx = make_ctx()
        seen = []
        ctx.parallelize(range(5), 2).foreach(seen.append)
        assert sorted(seen) == [0, 1, 2, 3, 4]


class TestKeyBasedOperators:
    def test_reduce_by_key_matches_counter(self):
        ctx = make_ctx()
        words = ["a", "b", "a", "c", "b", "a"] * 10
        pairs = ctx.parallelize(words, 4).map(lambda w: (w, 1))
        out = dict(pairs.reduce_by_key(lambda a, b: a + b, 4).collect())
        assert out == Counter(words)

    def test_group_by_key(self):
        ctx = make_ctx()
        data = [(1, "a"), (2, "b"), (1, "c"), (2, "d"), (1, "e")]
        out = {k: sorted(v) for k, v in
               ctx.parallelize(data, 3).group_by_key(2).collect()}
        assert out == {1: ["a", "c", "e"], 2: ["b", "d"]}

    def test_sort_by_key_locally_sorted(self):
        ctx = make_ctx()
        data = [(5, "e"), (1, "a"), (3, "c"), (2, "b"), (4, "d")]
        out = ctx.parallelize(data, 2).sort_by_key(1).collect()
        assert out == sorted(data)

    def test_join(self):
        ctx = make_ctx()
        left = ctx.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        right = ctx.parallelize([(1, "x"), (3, "y"), (4, "z")], 2)
        out = sorted(left.join(right, 2).collect())
        assert out == [(1, ("a", "x")), (3, ("c", "y"))]

    def test_join_with_duplicates_is_cartesian_per_key(self):
        ctx = make_ctx()
        left = ctx.parallelize([(1, "a"), (1, "b")], 1)
        right = ctx.parallelize([(1, "x"), (1, "y")], 1)
        out = sorted(left.join(right, 2).collect())
        assert len(out) == 4

    def test_aggregate_by_key(self):
        ctx = make_ctx()
        data = [("a", 2), ("a", 3), ("b", 5)]
        out = dict(ctx.parallelize(data, 2).aggregate_by_key(
            0, lambda z, v: z + v, lambda a, b: a + b, 2).collect())
        assert out == {"a": 5, "b": 5}

    def test_distinct(self):
        ctx = make_ctx()
        out = ctx.parallelize([1, 2, 2, 3, 3, 3], 3).distinct(2).collect()
        assert sorted(out) == [1, 2, 3]

    def test_results_identical_across_modes(self):
        words = ["x", "y", "z", "x", "y", "x"] * 5
        results = []
        for mode in ExecutionMode:
            ctx = make_ctx(mode)
            pairs = ctx.parallelize(words, 3).map(lambda w: (w, 1))
            results.append(
                dict(pairs.reduce_by_key(lambda a, b: a + b, 2).collect()))
        assert results[0] == results[1] == results[2]


def add(a, b):
    return a + b


PAIRS = [(i % 7, i) for i in range(40)]

KEEPS_PARTITIONING = {
    "map_values": lambda r: r.map_values(lambda v: v + 1),
    "filter": lambda r: r.filter(lambda kv: kv[1] % 2 == 0),
    "sample": lambda r: r.sample(0.5),
    "with_udt": lambda r: r.with_udt(message_udt_info()),
    "cache": lambda r: r.cache(),
}
DROPS_PARTITIONING = {
    "map": lambda r: r.map(lambda kv: kv),
    "flat_map": lambda r: r.flat_map(lambda kv: [kv]),
    "key_by": lambda r: r.key_by(lambda kv: kv[0]),
    "map_partitions": lambda r: r.map_partitions(list),
    "union": lambda r: r.union(r),
    "zip_with_index": lambda r: r.zip_with_index(),
}


class TestPartitionerPropagation:
    """An RDD remembers the partitioner it was produced with, as long as
    nothing could have changed its keys; ``join`` shuffles only the sides
    that are not already partitioned its way."""

    def summed(self, ctx, partitions=4):
        return ctx.parallelize(PAIRS, 3).reduce_by_key(add, partitions)

    def test_shuffles_and_joins_set_it(self):
        ctx = make_ctx()
        assert ctx.parallelize(PAIRS, 3).partitioning is None
        assert self.summed(ctx).partitioning == (4, None)
        assert ctx.parallelize(PAIRS, 3).group_by_key(2).partitioning \
            == (2, None)
        count, by_range = ctx.parallelize(PAIRS, 3).sort_by_key(4) \
            .partitioning
        assert count == 4 and callable(by_range)
        joined = ctx.parallelize(PAIRS, 3).join(self.summed(ctx), 5)
        assert joined.partitioning == (5, None)

    @pytest.mark.parametrize("op", sorted(KEEPS_PARTITIONING))
    def test_kept_when_keys_cannot_change(self, op):
        out = KEEPS_PARTITIONING[op](self.summed(make_ctx()))
        assert out.partitioning == (4, None)

    @pytest.mark.parametrize("op", sorted(DROPS_PARTITIONING))
    def test_dropped_when_keys_or_partitions_may_change(self, op):
        out = DROPS_PARTITIONING[op](self.summed(make_ctx()))
        assert out.partitioning is None

    def check_join(self, left, right, partitions, expected_deps):
        joined = left.join(right, partitions)
        assert [type(dep) for dep in joined.deps] == expected_deps
        left_pairs, right_pairs = left.collect(), right.collect()
        assert sorted(joined.collect()) == sorted(
            (k, (lv, rv)) for k, lv in left_pairs
            for k2, rv in right_pairs if k == k2)

    def test_join_of_co_partitioned_sides_is_narrow(self):
        ctx = make_ctx()
        sums = self.summed(ctx)
        self.check_join(sums, sums.map_values(lambda v: -v), 4,
                        [NarrowDependency, NarrowDependency])

    def test_side_with_another_partition_count_still_shuffles(self):
        ctx = make_ctx()
        self.check_join(self.summed(ctx, 4), self.summed(ctx, 3), 4,
                        [NarrowDependency, ShuffleDependency])
        self.check_join(self.summed(ctx, 4), self.summed(ctx, 4), 3,
                        [ShuffleDependency, ShuffleDependency])

    def test_range_partitioned_side_still_shuffles(self):
        ctx = make_ctx()
        by_range = ctx.parallelize(PAIRS, 3).sort_by_key(4)
        self.check_join(by_range, self.summed(ctx), 4,
                        [ShuffleDependency, NarrowDependency])


class TestCaching:
    def test_cache_returns_same_records(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(50), 4).map(lambda x: x * 3).cache()
        first = sorted(rdd.collect())
        second = sorted(rdd.collect())
        assert first == second == [x * 3 for x in range(50)]

    def test_cache_blocks_exist_after_first_use(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(40), 4).map(lambda x: x).cache()
        rdd.collect()
        total_blocks = sum(len(e.cache.blocks) for e in ctx.executors)
        assert total_blocks == 4

    def test_unpersist_releases_blocks(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(40), 4).map(lambda x: x).cache()
        rdd.collect()
        rdd.unpersist()
        assert all(not e.cache.blocks for e in ctx.executors)

    def test_second_pass_is_cheaper(self):
        """Caching avoids recomputation: the second job charges less."""
        ctx = make_ctx()
        rdd = ctx.parallelize(range(2000), 4).map(lambda x: x + 1).cache()
        rdd.count()
        first_wall = ctx.wall_ms
        rdd.count()
        second_wall = ctx.wall_ms - first_wall
        assert second_wall < first_wall

    def test_zero_partitions_rejected(self):
        ctx = make_ctx()
        with pytest.raises(ExecutionError):
            ctx.parallelize([1], 0)


class TestMultiStageJobs:
    def test_two_shuffles_in_one_job(self):
        ctx = make_ctx()
        data = [("a", 1), ("b", 2), ("a", 3)]
        rdd = ctx.parallelize(data, 2) \
            .reduce_by_key(lambda a, b: a + b, 2) \
            .map(lambda kv: (kv[1] % 2, kv[0])) \
            .group_by_key(2)
        out = {k: sorted(v) for k, v in rdd.collect()}
        assert out == {0: ["a", "b"]}

    def test_shuffle_reuse_across_jobs(self):
        """A second action over the same shuffle reuses the map outputs."""
        ctx = make_ctx()
        counts = ctx.parallelize(["a", "b", "a"], 2) \
            .map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 2)
        assert counts.count() == 2
        stages_first = sum(len(j.stages) for j in ctx._jobs)
        assert dict(counts.collect()) == {"a": 2, "b": 1}
        stages_second = sum(len(j.stages) for j in ctx._jobs) - stages_first
        assert stages_second == 1  # only the result stage re-ran

    def test_job_metrics_recorded(self):
        ctx = make_ctx()
        ctx.parallelize(range(10), 2).map(lambda x: x).collect()
        run = ctx.finish()
        assert len(run.jobs) == 1
        assert run.jobs[0].stages
        assert run.wall_ms > 0


class TestGlobalSort:
    def test_sort_by_key_is_globally_ordered(self):
        """Range partitioning: concatenated partitions form a total
        order (Spark's RangePartitioner behaviour)."""
        import random
        rng = random.Random(9)
        ctx = make_ctx()
        data = [(rng.randrange(100_000), i) for i in range(2000)]
        out = ctx.parallelize(data, 6).sort_by_key(4).collect()
        keys = [k for k, _ in out]
        assert keys == sorted(k for k, _ in data)

    def test_sort_by_key_strings(self):
        ctx = make_ctx()
        data = [(w, 1) for w in ["pear", "apple", "fig", "banana",
                                 "cherry", "date"]]
        out = ctx.parallelize(data, 3).sort_by_key(2).collect()
        assert [k for k, _ in out] == sorted(k for k, _ in data)

    def test_sort_single_partition_input(self):
        ctx = make_ctx()
        out = ctx.parallelize([(3, "c"), (1, "a"), (2, "b")], 1) \
            .sort_by_key(3).collect()
        assert out == [(1, "a"), (2, "b"), (3, "c")]

    def test_sort_with_duplicate_keys(self):
        ctx = make_ctx()
        data = [(1, "x"), (2, "y"), (1, "z"), (2, "w")] * 5
        out = ctx.parallelize(data, 4).sort_by_key(3).collect()
        keys = [k for k, _ in out]
        assert keys == sorted(keys)
        assert len(out) == len(data)
