"""Tests for the Deca core: the optimizer's container plans."""

from repro.analysis import SizeType
from repro.config import DecaConfig, ExecutionMode, MB
from repro.spark import DecaContext
from repro.spark.cache import StorageStrategy


def deca_ctx(**overrides):
    defaults = dict(mode=ExecutionMode.DECA, heap_bytes=32 * MB,
                    num_executors=2, tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


class TestOptimizerCachePlans:
    def test_sfst_dataset_gets_pages(self):
        from repro.apps.logistic_regression import labeled_point_udt_info
        ctx = deca_ctx()
        rdd = ctx.parallelize([(1.0, (1.0,) * 10)], 1).map(
            lambda r: r, udt_info=labeled_point_udt_info(10))
        plan = ctx.plan_cache(rdd)
        assert plan.strategy is StorageStrategy.DECA_PAGES
        assert plan.schema is not None
        assert plan.schema.fixed_size is not None  # SFST: static layout

    def test_runtime_symbols_resolve_dimension(self):
        from repro.apps.logistic_regression import labeled_point_udt_info
        ctx = deca_ctx()
        info = labeled_point_udt_info(32)
        rdd = ctx.parallelize([(1.0, (1.0,) * 32)], 1).map(
            lambda r: r, udt_info=info)
        plan = ctx.plan_cache(rdd)
        # label(8) + 32 doubles + offset/stride/length ints
        assert plan.schema.fixed_size == 8 + 32 * 8 + 12

    def test_untyped_dataset_stays_objects(self):
        ctx = deca_ctx()
        rdd = ctx.parallelize([1, 2, 3], 1).map(lambda x: x)
        assert ctx.plan_cache(rdd).strategy is StorageStrategy.OBJECTS

    def test_rfst_dataset_gets_variable_layout(self):
        from repro.apps.wordcount import wordcount_udt_info
        ctx = deca_ctx()
        rdd = ctx.parallelize([("a", 1)], 1).map(
            lambda r: r, udt_info=wordcount_udt_info())
        plan = ctx.plan_cache(rdd)
        assert plan.strategy is StorageStrategy.DECA_PAGES
        assert plan.schema.fixed_size is None  # RFST: per-instance size

    def test_plans_are_memoized(self):
        from repro.apps.wordcount import wordcount_udt_info
        ctx = deca_ctx()
        rdd = ctx.parallelize([("a", 1)], 1).map(
            lambda r: r, udt_info=wordcount_udt_info())
        assert ctx.plan_cache(rdd) is ctx.plan_cache(rdd)

    def test_reports_explain_decisions(self):
        from repro.apps.logistic_regression import labeled_point_udt_info
        ctx = deca_ctx()
        rdd = ctx.parallelize([(1.0, (1.0,) * 10)], 1).map(
            lambda r: r, udt_info=labeled_point_udt_info(10))
        ctx.plan_cache(rdd)
        (report,) = ctx._optimizer.reports
        assert report.decomposed
        assert report.local_size_type is SizeType.VARIABLE
        assert report.global_size_type is SizeType.STATIC_FIXED


class TestEscapeVerdictDowngrade:
    """§4.2: records that outlive the consuming UDF must not live in
    pages — the closure analyzer's escape verdict forces object form."""

    def _points(self, ctx):
        from repro.apps.logistic_regression import labeled_point_udt_info
        return ctx.parallelize([(1.0, (1.0,) * 10)], 1).map(
            lambda r: r, udt_info=labeled_point_udt_info(10))

    def test_escaping_consumer_forces_object_form(self):
        ctx = deca_ctx()
        points = self._points(ctx)
        sink = []

        def leak(record):
            sink.append(record)
            return record

        points.map(leak)  # registered consumer lets records escape
        plan = ctx.plan_cache(points)
        assert plan.strategy is StorageStrategy.OBJECTS
        (report,) = ctx._optimizer.reports
        assert not report.decomposed
        assert "escape" in report.reason
        assert "leak" in report.reason

    def test_clean_consumer_still_decomposes(self):
        ctx = deca_ctx()
        points = self._points(ctx)
        points.map(lambda r: (r[0] * 2.0, r[1]))
        plan = ctx.plan_cache(points)
        assert plan.strategy is StorageStrategy.DECA_PAGES

    def test_downgrade_is_memoized_with_the_plan(self):
        ctx = deca_ctx()
        points = self._points(ctx)
        sink = []
        points.map(lambda r: sink.append(r))
        assert ctx.plan_cache(points) is ctx.plan_cache(points)
        assert len(ctx._optimizer.reports) == 1


class TestOptimizerShufflePlans:
    def _wc_dep(self, ctx):
        from repro.apps.wordcount import wordcount_udt_info
        pairs = ctx.parallelize(["a"], 1).map(
            lambda w: (w, 1)).with_udt(wordcount_udt_info())
        counted = pairs.reduce_by_key(lambda a, b: a + b, 1)
        return counted.shuffle_dep

    def test_wc_shuffle_is_decomposed_with_reuse(self):
        ctx = deca_ctx()
        plan = ctx.plan_shuffle(self._wc_dep(ctx))
        assert plan.decomposed
        assert plan.value_segment_reuse  # the Int count is an SFST
        assert plan.pointer_array        # String key is only an RFST

    def test_untyped_shuffle_keeps_objects(self):
        ctx = deca_ctx()
        pairs = ctx.parallelize([("a", 1)], 1).map(lambda r: r)
        dep = pairs.reduce_by_key(lambda a, b: a + b, 1).shuffle_dep
        plan = ctx.plan_shuffle(dep)
        assert not plan.decomposed

    def test_spark_mode_never_decomposes(self):
        ctx = DecaContext(DecaConfig(mode=ExecutionMode.SPARK,
                                     heap_bytes=32 * MB))
        pairs = ctx.parallelize([("a", 1)], 1).map(lambda r: r)
        dep = pairs.reduce_by_key(lambda a, b: a + b, 1).shuffle_dep
        assert not ctx.plan_shuffle(dep).decomposed
