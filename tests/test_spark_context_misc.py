"""Tests for context-level plumbing: hashing, planning dispatch,
transformed-stage detection, run metrics and the simulated clock."""

import dataclasses
import enum

import pytest

from repro.analysis import ClassType, DOUBLE, Field, LONG
from repro.config import DecaConfig, ExecutionMode, MB
from repro.errors import DecaError
from repro.simtime import SimClock
from repro.spark import DecaContext
from repro.spark.cache import StorageStrategy
from repro.spark.context import stable_hash
from repro.spark.rdd import UdtInfo
from repro.apps.logistic_regression import labeled_point_udt_info


def make_ctx(mode=ExecutionMode.SPARK, **overrides):
    defaults = dict(mode=mode, heap_bytes=32 * MB, num_executors=2,
                    tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


def ctx_plan(mode, info):
    ctx = make_ctx(mode)
    return ctx.plan_cache(ctx.parallelize([(1.0, (1.0,) * 4)], 1).map(
        lambda r: r, udt_info=info))


class TestSimClock:
    def test_monotone(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(0.0)
        assert clock.now_ms == 5.0

    def test_rejects_negative_advance(self):
        with pytest.raises(DecaError):
            SimClock().advance(-1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(DecaError):
            SimClock(start_ms=-1.0)

    def test_advance_to_never_goes_back(self):
        clock = SimClock(start_ms=10.0)
        clock.advance_to(5.0)
        assert clock.now_ms == 10.0
        clock.advance_to(20.0)
        assert clock.now_ms == 20.0


class _Color(enum.IntEnum):
    RED = 5


class _Tag(str):
    pass


class _Ratio(float):
    pass


class _Wide(int):
    pass


class TestStableHash:
    # The values every key hashed to before the exact-type fast paths:
    # partition assignment (and so every shuffle's layout) rests on them.
    @pytest.mark.parametrize("key, expected", [
        (True, 1), (False, 0),
        (0, 0), (7, 7), (-1, 2147483647), (2 ** 40 + 3, 3), (-2 ** 40, 0),
        (1.5, 1), (-0.0, 0), (2.0, 2),
        ("", 0), ("spark", 2635321133), ("h\u00e9llo", 2654700086),
        (b"", 0), (b"spark", 2635321133),
        ((1, 2), 93250), ((2, 1), 93280), (("a", (True, 2.0)), 776135296),
        ((), 97),
        (_Color.RED, 5), (_Tag("spark"), 2635321133), (_Ratio(1.5), 1),
        (_Wide(2 ** 31 + 9), 9),
    ])
    def test_pinned_values(self, key, expected):
        hashed = stable_hash(key)
        assert hashed == expected and type(hashed) is int

    def test_deterministic_across_types(self):
        for key in (0, 1, -5, 3.5, "word", b"bytes", (1, "a"), True):
            assert stable_hash(key) == stable_hash(key)
            assert stable_hash(key) >= 0

    def test_strings_are_process_independent(self):
        # crc32("spark") is a fixed constant — no PYTHONHASHSEED effects.
        assert stable_hash("spark") == 2635321133

    def test_none_is_process_independent(self):
        # ``hash(None)`` is the object's address on Python < 3.12, so a
        # ``None`` key — or any tuple key holding one — used to land in a
        # different partition in every process.
        assert stable_hash(None) == 0
        assert stable_hash((1, None)) == 93248
        assert stable_hash((None, "a")) == stable_hash((0, "a"))

    def test_tuples_differ_by_order(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_spread_over_partitions(self):
        buckets = {stable_hash(f"key{i}") % 8 for i in range(1000)}
        assert len(buckets) == 8


class TestPlanDispatch:
    def test_spark_mode_has_no_optimizer(self):
        ctx = make_ctx(ExecutionMode.SPARK)
        assert ctx._optimizer is None

    def test_deca_mode_builds_optimizer(self):
        ctx = make_ctx(ExecutionMode.DECA)
        assert ctx._optimizer is not None

    def test_sparkser_plans_serialized_even_untyped(self):
        ctx = make_ctx(ExecutionMode.SPARK_SER)
        rdd = ctx.parallelize([1], 1).map(lambda x: x)
        plan = ctx.plan_cache(rdd)
        assert plan.strategy is StorageStrategy.SERIALIZED
        assert plan.schema is None  # falls back to cost-only model

    def test_sparkser_refused_layout_keeps_records_and_says_why(self):
        """A UDT the RFST layout refuses is cached as a record list —
        and the plan names the layout error instead of hiding it."""
        poly = ClassType("Poly", [
            Field("key", LONG),
            Field("value", DOUBLE, type_set=(DOUBLE, LONG))])
        ctx = make_ctx(ExecutionMode.SPARK_SER, num_executors=1)
        records = [(i, float(i)) for i in range(5)]
        rdd = ctx.parallelize(records, 1).map(
            lambda r: r, udt_info=UdtInfo(udt=poly)).cache()
        plan = ctx.plan_cache(rdd)
        assert plan.strategy is StorageStrategy.SERIALIZED
        assert plan.schema is None and not plan.decomposed
        assert "layout failed" in plan.reason
        assert "Poly.value has a polymorphic type-set" in plan.reason
        assert rdd.collect() == records
        (block,) = ctx.executors[0].cache.blocks.values()
        assert block.blob is None and block.records == records
        assert rdd.collect() == records     # the cached read

    def test_sparkser_planning_lets_other_errors_through(self):
        """Only the documented failure of ``build_schema`` means "cannot
        pack": a broken UDT model must not silently change what
        SparkSer caches."""
        class Typo(ClassType):
            @property
            def fields(self):
                raise AttributeError("'Typo' object has no attribute "
                                     "'feilds'")

        ctx = make_ctx(ExecutionMode.SPARK_SER)
        rdd = ctx.parallelize([(1, 2.0)], 1).map(
            lambda r: r, udt_info=UdtInfo(udt=Typo("Typo")))
        with pytest.raises(AttributeError, match="feilds"):
            ctx.plan_cache(rdd)

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK_SER,
                                      ExecutionMode.DECA],
                             ids=lambda m: m.value)
    def test_cache_plan_and_schema_are_built_once_per_rdd(self, mode):
        """The schema carries its compiled codec, so a plan rebuilt per
        block would recompile it per block."""
        ctx = make_ctx(mode)
        rdd = ctx.parallelize([(1.0, (1.0,) * 4)], 1).map(
            lambda r: r, udt_info=labeled_point_udt_info(4))
        plan = ctx.plan_cache(rdd)
        assert plan.schema is not None
        assert ctx.plan_cache(rdd) is plan
        assert ctx.plan_cache(rdd).schema is plan.schema

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK_SER,
                                      ExecutionMode.DECA],
                             ids=lambda m: m.value)
    def test_plan_carries_the_udt_codec_itself(self, mode):
        """No forwarding hop: a UDT without a decoder plans ``None`` and
        the cache hands back the raw schema values."""
        info = labeled_point_udt_info(4)
        assert ctx_plan(mode, info).encode is info.encode
        assert ctx_plan(mode, info).decode is info.decode
        raw = dataclasses.replace(info, encode=None, decode=None)
        ctx = make_ctx(mode, execution_backend="sim", num_executors=1)
        records = [(float(i), ((1.0,) * 4, 0, 1, 4)) for i in range(6)]
        rdd = ctx.parallelize(records, 1).map(
            lambda r: r, udt_info=raw).cache()
        plan = ctx.plan_cache(rdd)
        assert plan.encode is None and plan.decode is None
        assert rdd.count() == 6
        store = ctx.executors[0].cache
        (key,) = store.blocks
        assert store.blocks[key].plan is plan
        assert list(store.read_records(key)) == records

    def test_shuffle_plan_measure_uses_parent(self):
        ctx = make_ctx(ExecutionMode.SPARK)
        parent = ctx.parallelize([("a", 1)], 1).map(lambda r: r)
        dep = parent.reduce_by_key(lambda a, b: a, 1).shuffle_dep
        plan = ctx.plan_shuffle(dep)
        assert plan.measure == parent.measure_record


class TestTransformedStageDetection:
    def test_map_over_decomposed_cache_is_transformed(self):
        ctx = make_ctx(ExecutionMode.DECA)
        info = labeled_point_udt_info(4)
        cached = ctx.parallelize([(1.0, (1.0,) * 4)], 1).map(
            lambda r: r, udt_info=info).cache()
        downstream = cached.map(lambda r: r)
        assert ctx._is_deca_transformed(downstream)

    def test_map_over_object_cache_is_not(self):
        ctx = make_ctx(ExecutionMode.DECA)
        cached = ctx.parallelize([1], 1).map(lambda x: x).cache()
        downstream = cached.map(lambda x: x)
        assert not ctx._is_deca_transformed(downstream)

    def test_spark_mode_never_transforms(self):
        ctx = make_ctx(ExecutionMode.SPARK)
        cached = ctx.parallelize([1], 1).map(lambda x: x).cache()
        assert not ctx._is_deca_transformed(cached.map(lambda x: x))

    def test_uncached_chain_is_not_transformed(self):
        ctx = make_ctx(ExecutionMode.DECA)
        rdd = ctx.parallelize([1], 1).map(lambda x: x).map(lambda x: x)
        assert not ctx._is_deca_transformed(rdd)


class TestRunMetrics:
    def test_finish_collects_executor_stats(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(2000), 4).map(
            lambda x: (x % 5, x)).reduce_by_key(lambda a, b: a + b, 4)
        rdd.collect()
        run = ctx.finish()
        assert set(run.executor_gc_ms) == {0, 1}
        assert run.wall_ms == ctx.wall_ms
        assert len(run.jobs) == 1

    def test_gc_fraction_bounds(self):
        ctx = make_ctx()
        ctx.parallelize(range(100), 2).count()
        run = ctx.finish()
        assert 0.0 <= run.gc_fraction <= 1.0

    def test_cached_bytes_reported_per_rdd(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(500), 2).map(lambda x: x).cache()
        rdd.count()
        run = ctx.finish()
        assert run.cached_bytes.get(rdd.name, 0) > 0
        assert run.total_cached_bytes == sum(run.cached_bytes.values())

    def test_empty_run(self):
        ctx = make_ctx()
        run = ctx.finish()
        assert run.jobs == []
        assert run.gc_pause_ms == 0.0


class TestTextFile:
    def test_read_cost_charged(self):
        ctx = make_ctx()
        lines = ["x" * 1000] * 200
        ctx.text_file(lines, 2).count()
        assert ctx.wall_ms > 0

    def test_empty_text_file(self):
        ctx = make_ctx()
        assert ctx.text_file([], 2).count() == 0
