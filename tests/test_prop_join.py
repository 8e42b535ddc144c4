"""Differential property test: ``join`` against a plain-Python join.

``JoinedRDD`` reads a side that is already partitioned like the join
through a narrow dependency and shuffles the others, so one method has
four shapes (each side co-partitioned or not) and, with a narrow left
side, a streaming probe instead of the two-table one.  Over random key
multisets with duplicates on both sides, every shape must produce the
nested-loop join of the two inputs, in object and in decomposed mode.
"""

from hypothesis import given, settings, strategies as st

from repro.config import DecaConfig, ExecutionMode, MB
from repro.spark import DecaContext
from repro.spark.rdd import NarrowDependency, ShuffleDependency

PARTITIONS = 3

pairs = st.lists(st.tuples(st.integers(0, 6), st.integers(-50, 50)),
                 max_size=25)


def side(ctx, records, co_partitioned):
    """*records* as an RDD that either has no known partitioning or is
    hash-partitioned like the join under test — duplicates included, so
    it comes out of a join with its own distinct keys, not a reduce."""
    rdd = ctx.parallelize(records, 2)
    if not co_partitioned:
        return rdd
    keys = ctx.parallelize(sorted({(key, None) for key, _ in records}), 2)
    return rdd.join(keys, PARTITIONS).map_values(lambda pair: pair[0])


@settings(max_examples=80, deadline=None)
@given(left=pairs, right=pairs, left_narrow=st.booleans(),
       right_narrow=st.booleans(),
       mode=st.sampled_from([ExecutionMode.SPARK, ExecutionMode.DECA]))
def test_join_equals_the_nested_loop_join(left, right, left_narrow,
                                          right_narrow, mode):
    ctx = DecaContext(DecaConfig(mode=mode, heap_bytes=32 * MB,
                                 num_executors=2, tasks_per_executor=2))
    joined = side(ctx, left, left_narrow).join(
        side(ctx, right, right_narrow), PARTITIONS)
    assert [type(dep) for dep in joined.deps] == [
        NarrowDependency if narrow else ShuffleDependency
        for narrow in (left_narrow, right_narrow)]
    assert sorted(joined.collect()) == sorted(
        (key, (lv, rv)) for key, lv in left
        for other, rv in right if key == other)
    ctx.finish()
