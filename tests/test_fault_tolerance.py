"""Fault-tolerance tests: injection, retry, lineage recovery, speculation.

The engine must keep Spark's contract — any task attempt, executor or
shuffle fetch may fail, and the job still produces the exact fault-free
answer — while every failure and recovery action lands in the metrics and
on the simulated clocks deterministically.
"""

import json
import random

import pytest

from repro.apps.pagerank import run_pagerank
from repro.config import (
    DecaConfig,
    ExecutionMode,
    FaultConfig,
    MB,
    ScriptedFault,
)
from repro.errors import StageAbortError
from repro.spark import DecaContext, FaultInjector
from repro.spark.faults import (
    EXECUTOR_RESTART_MS,
    MAX_TASK_FAILURES,
    RETRY_BACKOFF_FACTOR,
    RETRY_BACKOFF_MAX_MS,
    RETRY_BACKOFF_MS,
)


def make_ctx(faults=None, **overrides):
    defaults = dict(mode=ExecutionMode.SPARK, heap_bytes=32 * MB,
                    num_executors=2, tasks_per_executor=2)
    if faults is not None:
        defaults["faults"] = faults
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


def wordcount(ctx, records=2000, keys=50, partitions=4):
    data = [(i % keys, 1) for i in range(records)]
    counts = ctx.parallelize(data, partitions, name="ft.pairs") \
                .reduce_by_key(lambda a, b: a + b, partitions,
                               name="ft.counts")
    return dict(counts.collect())


def expected_counts(records=2000, keys=50):
    expected = {}
    for i in range(records):
        expected[i % keys] = expected.get(i % keys, 0) + 1
    return expected


def hot_key_counts(ctx):
    """One hot key: a single reduce partition receives ~all records,
    making its result-stage task the straggler speculation duplicates."""
    data = [("hot" if i % 10 else f"cold{i}", 1) for i in range(3000)]
    counts = ctx.parallelize(data, 4, name="sp.pairs") \
                .group_by_key(4, name="sp.groups") \
                .map(lambda kv: (kv[0], len(kv[1])), name="sp.counts")
    return dict(counts.collect())


class TestFaultInjector:
    def test_disabled_by_default(self):
        injector = FaultInjector(FaultConfig())
        assert not injector.enabled
        assert injector.plan_task(0, 0, 0) is None
        assert not injector.corrupt_fetch(0, 0, 0)

    def test_scripted_fault_fires_exactly_once(self):
        injector = FaultInjector(FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=1, partition=2,
                          attempt=0),)))
        assert injector.enabled
        assert injector.plan_task(1, 0, 0) is None    # wrong partition
        assert injector.plan_task(0, 2, 0) is None    # wrong stage
        plan = injector.plan_task(1, 2, 0)
        assert plan is not None and plan.kind == "task-kill"
        assert injector.plan_task(1, 2, 0) is None    # already fired
        assert injector.injected_kills == 1

    def test_wildcards_match_any_stage_and_partition(self):
        injector = FaultInjector(FaultConfig(scripted=(
            ScriptedFault("executor-crash", attempt=1, after_ops=7),)))
        assert injector.plan_task(3, 9, 0) is None    # wrong attempt
        plan = injector.plan_task(3, 9, 1)
        assert plan is not None
        assert plan.kind == "executor-crash" and plan.after_ops == 7

    def test_seed_reproduces_probabilistic_draws(self):
        cfg = FaultConfig(seed=5, task_kill_prob=0.3)
        a = FaultInjector(cfg)
        b = FaultInjector(cfg)
        plans_a = [a.plan_task(0, i, 0) for i in range(64)]
        plans_b = [b.plan_task(0, i, 0) for i in range(64)]
        assert plans_a == plans_b
        assert any(plans_a)

    def test_scripted_corruption_matches_block_coordinates(self):
        injector = FaultInjector(FaultConfig(scripted=(
            ScriptedFault("fetch-corrupt", shuffle_id=-1, map_part=2,
                          reduce_part=1),)))
        assert not injector.corrupt_fetch(0, 0, 1)
        assert not injector.corrupt_fetch(0, 2, 0)
        assert injector.corrupt_fetch(0, 2, 1)
        assert not injector.corrupt_fetch(0, 2, 1)   # fired once


class TestTaskRetry:
    def test_killed_task_retries_on_next_executor(self):
        # Stage 0 is the shuffle-map stage; kill its partition 0 once.
        ctx = make_ctx(FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=0, partition=0,
                          attempt=0, after_ops=5),)))
        assert wordcount(ctx) == expected_counts()
        run = ctx.finish()
        recovery = run.recovery
        assert recovery.task_failures == 1
        assert recovery.task_retries == 1
        map_stage = run.jobs[0].stages[0]
        attempts = [t for t in map_stage.tasks if t.task_id == 0]
        assert [t.status for t in attempts] == ["killed", "success"]
        assert [t.attempt for t in attempts] == [0, 1]
        # The retry rotated to the other executor.
        assert attempts[0].executor_id != attempts[1].executor_id

    def test_retry_pays_backoff_on_the_simulated_clock(self):
        faults = FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=0, partition=1, attempt=0),
            ScriptedFault("task-kill", stage_id=0, partition=1, attempt=1),
        ))
        ctx = make_ctx(faults)
        assert wordcount(ctx) == expected_counts()
        recovery = ctx.finish().recovery
        assert recovery.task_failures == 2
        # Backoffs: 50 after the first failure, 100 after the second.
        expected = sum(
            min(RETRY_BACKOFF_MS * RETRY_BACKOFF_FACTOR ** n,
                RETRY_BACKOFF_MAX_MS) for n in range(2))
        assert expected == 150.0
        assert recovery.recovery_ms == pytest.approx(expected)

    def test_stage_aborts_after_max_task_failures(self):
        ctx = make_ctx(FaultConfig(task_kill_prob=1.0))
        with pytest.raises(StageAbortError) as info:
            wordcount(ctx)
        assert info.value.failures == MAX_TASK_FAILURES

    def test_mid_task_kill_leaves_no_leaked_heap_groups(self):
        ctx = make_ctx(FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=0, partition=0,
                          attempt=0, after_ops=20),)))
        assert wordcount(ctx) == expected_counts()
        for executor in ctx.executors:
            live = [g.name for g in executor.heap._groups.values()
                    if g.name.startswith("shuffle-buf")]
            assert live == []


class TestExecutorLoss:
    def test_crash_invalidates_cache_and_recomputes_lineage(self):
        # Cache the input, crash an executor in the result stage: its
        # cache blocks and map outputs are gone; lineage regenerates the
        # outputs and the cached partitions recompute on next access.
        ctx = make_ctx(FaultConfig(scripted=(
            ScriptedFault("executor-crash", stage_id=1, partition=0,
                          attempt=0, after_ops=3),)))
        data = [(i % 50, 1) for i in range(2000)]
        pairs = ctx.parallelize(data, 4, name="ft.pairs").cache()
        counts = pairs.reduce_by_key(lambda a, b: a + b, 4,
                                     name="ft.counts")
        first = dict(counts.collect())
        second = dict(counts.collect())   # reuses shuffle + cache
        assert first == expected_counts()
        assert second == expected_counts()
        run = ctx.finish()
        recovery = run.recovery
        assert recovery.executors_lost == 1
        # The crashed executor held two of the four map partitions.
        assert recovery.recomputed_partitions == 2
        assert sum(e.lost_count for e in ctx.executors) == 1
        assert recovery.recovery_ms > EXECUTOR_RESTART_MS
        # The recompute stages are visible in the job's metrics.
        names = [s.name for s in run.jobs[0].stages]
        assert names.count("recompute:shuffle-map:ft.pairs") == 2

    def test_crash_during_map_stage_retries_without_recompute(self):
        ctx = make_ctx(FaultConfig(scripted=(
            ScriptedFault("executor-crash", stage_id=0, partition=0,
                          attempt=0, after_ops=2),)))
        assert wordcount(ctx) == expected_counts()
        recovery = ctx.finish().recovery
        assert recovery.executors_lost == 1
        # Nothing was registered yet, so nothing needed regeneration;
        # the crashed attempt's own retry produced the output.
        assert recovery.recomputed_partitions == 0
        assert recovery.task_retries == 1


class TestRecoveryThroughACoPartitionedJoin:
    """PageRank's iterate stages read both join sides in place: the
    cached adjacency lists and the previous iteration's shuffle.  A
    fault there re-enters the join through those narrow parents — a
    lost executor takes the cached blocks *and* the shuffle outputs
    they would be rebuilt from."""

    edges = [(i % 40, (i * 7 + 3) % 40) for i in range(400)]

    def pagerank(self, *scripted):
        config = DecaConfig(
            mode=ExecutionMode.DECA, heap_bytes=32 * MB, num_executors=2,
            tasks_per_executor=2, faults=FaultConfig(scripted=scripted))
        return run_pagerank(self.edges, config, iterations=3,
                            num_partitions=4)

    def test_killed_iterate_task_is_retried(self):
        clean = self.pagerank()
        # Stage 0 groups the edges; stage 2 is the second iteration.
        run = self.pagerank(ScriptedFault("task-kill", stage_id=2,
                                          partition=1, after_ops=5))
        assert list(run.result.items()) == list(clean.result.items())
        assert run.metrics.recovery.task_failures == 1
        assert run.metrics.recovery.recomputed_partitions == 0

    def test_executor_lost_in_an_iterate_stage(self):
        clean = self.pagerank()
        run = self.pagerank(ScriptedFault("executor-crash", stage_id=2,
                                          partition=1, after_ops=5))
        assert list(run.result.items()) == list(clean.result.items())
        recovery = run.metrics.recovery
        assert recovery.executors_lost == 1
        # Its half of the grouping shuffle's and of the first
        # iteration's map outputs, regenerated parents first.
        names = [s.name for s in run.metrics.jobs[0].stages
                 if s.name.startswith("recompute:")]
        assert names == ["recompute:shuffle-map:pr.edges"] * 2 \
            + ["recompute:shuffle-map:pr.contribs"] * 2
        for executor in run.ctx.executors:
            assert [g.name for g in executor.heap._groups.values()
                    if g.name.startswith("join-buffer")] == []


class TestFetchFailure:
    def test_corrupt_fetch_regenerates_map_output_and_retries(self):
        ctx = make_ctx(FaultConfig(scripted=(
            ScriptedFault("fetch-corrupt", map_part=2, reduce_part=1),)))
        assert wordcount(ctx) == expected_counts()
        run = ctx.finish()
        recovery = run.recovery
        assert recovery.fetch_failures == 1
        assert recovery.recomputed_partitions == 1
        assert recovery.task_retries == 1
        result_stage = next(s for s in run.jobs[0].stages
                            if s.name.startswith("result:"))
        statuses = [t.status for t in result_stage.tasks
                    if t.task_id == 1]
        assert statuses == ["fetch-failed", "success"]
        # The regeneration ran as its own recompute stage.
        assert any(s.name.startswith("recompute:")
                   for s in run.jobs[0].stages)

    def test_nondeterministic_udf_recomputes_unchecked(self):
        """Lineage re-execution runs a nondeterministic map UDF again
        without consulting the closure analyzer."""
        ctx = make_ctx(FaultConfig(scripted=(
            ScriptedFault("fetch-corrupt", map_part=0, reduce_part=0),)))
        pairs = ctx.parallelize([(i % 20, 1) for i in range(400)], 4,
                                name="ft.input") \
                   .map(lambda kv: (kv[0], kv[1] + int(random.random() * 0.0)),
                        name="ft.jitter")
        counts = pairs.reduce_by_key(lambda a, b: a + b, 4, name="ft.counts")
        assert sum(dict(counts.collect()).values()) == 400
        assert not ctx.tracer.by_category("closure")
        assert ctx.finish().recovery.recomputed_partitions >= 1

    def test_crash_in_later_job_recomputes_reused_shuffle(self):
        # A shuffle produced by job 1 is reused by job 2; an executor
        # crash during job 2 must regenerate the lost job-1 map outputs
        # from lineage even though their stage never ran in job 2.
        ctx = make_ctx(FaultConfig(seed=1, scripted=(
            ScriptedFault("executor-crash", stage_id=3, partition=3,
                          attempt=0),)))
        data = [(i % 50, 1) for i in range(2000)]
        counts = ctx.parallelize(data, 4, name="ft.pairs") \
                    .reduce_by_key(lambda a, b: a + b, 4,
                                   name="ft.counts")
        assert dict(counts.collect()) == expected_counts()
        # Job 2 reuses the shuffle; stage 3 is its result stage.  The
        # crash drops map outputs the eager pass regenerates, then the
        # killed task retries and re-reads them.
        assert dict(counts.collect()) == expected_counts()
        recovery = ctx.finish().recovery
        assert recovery.executors_lost == 1
        assert recovery.recomputed_partitions == 2


class TestSpeculation:
    @staticmethod
    def _skewed_ctx():
        return make_ctx(FaultConfig(speculation=True))

    def test_straggler_duplicate_never_changes_results(self):
        ctx = self._skewed_ctx()
        result = hot_key_counts(ctx)
        assert result["hot"] == 2700
        assert sum(result.values()) == 3000
        run = ctx.finish()
        recovery = run.recovery
        assert recovery.speculative_tasks >= 1
        # Every speculative attempt is recorded next to the original,
        # same task_id, later attempt number.
        spec = [t for s in run.jobs[0].stages for t in s.tasks
                if t.speculative]
        assert spec and all(t.attempt >= 1 for t in spec)
        originals = {t.task_id for s in run.jobs[0].stages
                     for t in s.tasks if not t.speculative}
        assert {t.task_id for t in spec} <= originals

    def test_nondeterministic_stage_still_speculates(self):
        """A straggler stage is duplicated whatever its UDFs do; no
        closure analysis runs."""
        ctx = self._skewed_ctx()
        data = [("hot" if i % 10 else f"cold{i}", 1) for i in range(3000)]
        lens = ctx.parallelize(data, 4, name="sp.pairs") \
                  .group_by_key(4, name="sp.groups") \
                  .map(lambda kv: (kv[0], len(kv[1]) + int(0 * random.random())),
                       name="sp.lens")
        assert dict(lens.collect())["hot"] == 2700
        assert not ctx.tracer.by_category("closure")
        assert ctx.finish().recovery.speculative_tasks >= 1

    def test_no_speculation_without_stragglers(self):
        ctx = make_ctx(FaultConfig(speculation=True))
        assert wordcount(ctx) == expected_counts()
        assert ctx.finish().recovery.speculative_tasks == 0


class TestDeterminism:
    @staticmethod
    def _wordcount():
        faults = FaultConfig(seed=11, task_kill_prob=0.2,
                             fetch_corruption_prob=0.05)
        ctx = make_ctx(faults)
        assert wordcount(ctx) == expected_counts()
        run = ctx.finish()
        # The seed really injected failures (the comparison is not
        # trivially between two clean runs).
        assert run.recovery.task_failures > 0
        return run

    @staticmethod
    def _hot_key():
        ctx = make_ctx(FaultConfig(speculation=True))
        assert hot_key_counts(ctx)["hot"] == 2700
        run = ctx.finish()
        # The straggler really ran a duplicate attempt, so the
        # speculative path is byte-checked too.
        assert run.recovery.speculative_tasks >= 1
        return run

    @pytest.mark.parametrize("job", ["wordcount", "hot_key"])
    def test_same_seed_runs_are_byte_identical(self, job):
        run = getattr(self, f"_{job}")
        json_a = json.dumps(run().to_dict(), sort_keys=True)
        json_b = json.dumps(run().to_dict(), sort_keys=True)
        assert json_a == json_b

    def test_spark_package_has_no_wall_clock_or_unseeded_rng(self):
        # Determinism audit: every millisecond comes from a SimClock and
        # every random draw from a seeded random.Random — the engine
        # source must never reach for wall time or the process RNG.
        import pathlib
        import re

        import repro.spark

        package_dir = pathlib.Path(repro.spark.__file__).parent
        forbidden = re.compile(
            r"time\.time|time\.monotonic|time\.perf_counter"
            r"|datetime\.now|random\.(random|randint|randrange|choice"
            r"|shuffle|gauss|seed)\(")
        for path in sorted(package_dir.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            assert not forbidden.search(source), path.name
            if "import random" in source:
                # Only the fault injector owns an RNG, and it must be a
                # seeded instance.
                assert path.name == "faults.py"
                assert "random.Random(config.seed)" in source

    def test_different_seeds_diverge(self):
        faults_a = FaultConfig(seed=11, task_kill_prob=0.2)
        faults_b = FaultConfig(seed=12, task_kill_prob=0.2)
        runs = []
        for faults in (faults_a, faults_b):
            ctx = make_ctx(faults)
            assert wordcount(ctx) == expected_counts()
            runs.append(ctx.finish())
        dict_a, dict_b = runs[0].to_dict(), runs[1].to_dict()
        assert dict_a["recovery"] != dict_b["recovery"] \
            or dict_a["jobs"] != dict_b["jobs"]
