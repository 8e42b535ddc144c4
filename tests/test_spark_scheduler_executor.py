"""Tests for the DAG scheduler, executors and task lifecycle."""

import pytest

from repro.config import DecaConfig, MB
from repro.errors import DecaError
from repro.spark import DecaContext
from repro.spark.rdd import ShuffleDependency
from repro.spark.scheduler import TaskContext
from repro.spark.metrics import TaskMetrics


def make_ctx(**overrides):
    defaults = dict(heap_bytes=32 * MB, num_executors=3,
                    tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


class TestStageConstruction:
    def test_narrow_chain_is_one_stage(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x) \
            .filter(lambda x: True).map(lambda x: x)
        stage = ctx.scheduler._build_stages(rdd)
        assert stage.parents == []
        assert stage.is_result_stage

    def test_shuffle_cuts_a_stage(self):
        ctx = make_ctx()
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a, 2)
        stage = ctx.scheduler._build_stages(rdd)
        assert len(stage.parents) == 1
        parent = stage.parents[0]
        assert not parent.is_result_stage
        assert isinstance(parent.shuffle_dep, ShuffleDependency)

    def test_join_has_two_parent_stages(self):
        ctx = make_ctx()
        left = ctx.parallelize([(1, "a")], 2)
        right = ctx.parallelize([(1, "b")], 2)
        stage = ctx.scheduler._build_stages(left.join(right, 2))
        assert len(stage.parents) == 2

    def test_co_partitioned_join_numbers_its_left_lineage_first(self):
        ctx = make_ctx()
        pairs = ctx.parallelize([(1, 1), (2, 2)], 2)
        left = pairs.reduce_by_key(min, 2, name="sched.left")
        right = pairs.reduce_by_key(max, 2, name="sched.right")
        stage = ctx.scheduler._build_stages(left.join(right, 2))
        # No stage of its own for either side: the join runs in the
        # result stage, whose parents are the two reduce shuffles.
        assert [p.shuffle_dep for p in stage.parents] == \
            [left.shuffle_dep, right.shuffle_dep]
        assert [p.stage_id for p in stage.parents] == [0, 1]
        assert [s.stage_id for s in ctx.scheduler._topological(stage)] \
            == [0, 1, 2]

    def test_chained_shuffles_nest(self):
        ctx = make_ctx()
        rdd = ctx.parallelize([(1, 1)], 2) \
            .reduce_by_key(lambda a, b: a, 2) \
            .map(lambda kv: (kv[1], kv[0])) \
            .group_by_key(2)
        stage = ctx.scheduler._build_stages(rdd)
        assert len(stage.parents) == 1
        assert len(stage.parents[0].parents) == 1

    def test_topological_order_parents_first(self):
        ctx = make_ctx()
        rdd = ctx.parallelize([(1, 1)], 2) \
            .reduce_by_key(lambda a, b: a, 2) \
            .group_by_key(2)
        result_stage = ctx.scheduler._build_stages(rdd)
        order = ctx.scheduler._topological(result_stage)
        assert order[-1] is result_stage
        positions = {stage.stage_id: i for i, stage in enumerate(order)}
        for stage in order:
            for parent in stage.parents:
                assert positions[parent.stage_id] \
                    < positions[stage.stage_id]


class TestClockBarriers:
    def test_stage_barrier_synchronizes_executors(self):
        ctx = make_ctx()
        # Unbalanced work: partition sizes differ wildly.
        data = list(range(1000))
        ctx.parallelize(data, 5).map(lambda x: x).collect()
        clocks = [e.clock.now_ms for e in ctx.executors]
        assert max(clocks) - min(clocks) < 1e-9

    def test_jobs_are_sequential(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(100), 4).map(lambda x: x)
        rdd.count()
        first_end = ctx.wall_ms
        rdd.count()
        assert ctx.wall_ms >= first_end

    def test_round_robin_task_placement(self):
        ctx = make_ctx(num_executors=3)
        assert ctx.executor_for(0).executor_id == 0
        assert ctx.executor_for(1).executor_id == 1
        assert ctx.executor_for(3).executor_id == 0


class TestTaskLifecycle:
    def test_temp_group_freed_at_task_end(self):
        ctx = make_ctx(num_executors=1)
        executor = ctx.executors[0]
        task = TaskContext(executor=executor, metrics=TaskMetrics())
        executor.begin_task(task)
        executor.alloc_temp(100, 10_000)
        assert executor._temp_group is not None
        executor.end_task(task)
        assert executor._temp_group is None
        executor.heap.minor_gc()
        assert executor.heap.live_objects == 0

    def test_task_metrics_attribute_gc(self):
        ctx = make_ctx(num_executors=1)
        executor = ctx.executors[0]
        task = TaskContext(executor=executor, metrics=TaskMetrics())
        executor.begin_task(task)
        executor.heap.minor_gc()
        executor.end_task(task)
        assert task.metrics.gc_pause_ms > 0
        assert task.metrics.duration_ms >= task.metrics.gc_pause_ms

    def test_compute_scaled_by_parallelism(self):
        ctx = make_ctx(num_executors=1, tasks_per_executor=4)
        executor = ctx.executors[0]
        before = executor.clock.now_ms
        executor.charge_compute(4.0)
        assert executor.clock.now_ms - before == pytest.approx(1.0)

    def test_negative_compute_charge_is_refused(self):
        """The clock is advanced in place, with ``SimClock.advance``'s
        check and message."""
        ctx = make_ctx(num_executors=1, tasks_per_executor=2)
        executor = ctx.executors[0]
        task = TaskContext(executor=executor, metrics=TaskMetrics())
        executor.begin_task(task)
        executor.charge_compute(3.0)
        with pytest.raises(DecaError,
                           match=r"^cannot advance clock by -0\.5 ms$"):
            executor.charge_compute(-1)
        assert executor.clock.now_ms == 1.5
        assert task.metrics.compute_ms == 1.5

    def test_io_charges_accumulate(self):
        ctx = make_ctx(num_executors=1)
        executor = ctx.executors[0]
        executor.charge_disk_write(10_000)
        executor.charge_disk_read(10_000)
        executor.charge_network(10_000)
        assert executor.disk_ms_total > 0
        assert executor.network_ms_total > 0

    def test_live_objects_matching_prefix(self):
        ctx = make_ctx(num_executors=1)
        executor = ctx.executors[0]
        group = executor.new_pinned_group("cache:block-1")
        executor.heap.allocate(group, 42, 420)
        assert executor.live_objects_matching("cache:") == 42
        assert executor.live_objects_matching("shuffle") == 0


class TestJobMetrics:
    def test_stage_metrics_per_job(self):
        ctx = make_ctx()
        ctx.parallelize([(1, 2)], 2).reduce_by_key(
            lambda a, b: a + b, 2).collect()
        (job,) = ctx._jobs
        assert len(job.stages) == 2  # shuffle-map + result
        assert job.wall_ms > 0
        names = [s.name for s in job.stages]
        assert any(n.startswith("shuffle-map") for n in names)
        assert any(n.startswith("result") for n in names)

    def test_totals_aggregate_tasks(self):
        ctx = make_ctx()
        ctx.parallelize(range(50), 4).map(lambda x: x).collect()
        (job,) = ctx._jobs
        totals = job.totals
        assert totals.records_read == 50
        assert totals.compute_ms > 0

    def test_slowest_task_selected(self):
        ctx = make_ctx()
        ctx.parallelize(range(100), 4).map(lambda x: x).collect()
        stage = ctx._jobs[0].stages[0]
        slowest = stage.slowest_task
        assert slowest is not None
        assert slowest.duration_ms == max(t.duration_ms
                                          for t in stage.tasks)
