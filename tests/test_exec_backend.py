"""The pluggable execution backend (``repro.exec``).

Cross-backend equivalence is the contract: the mp backend forks real
workers and moves decomposed data through shared-memory Deca pages, yet
every job must produce exactly the sim backend's results — including
under injected faults — while pickling ~no record bytes on decomposed
paths (docs/execution_backends.md).
"""

import pytest

from repro.config import ConfigError, DecaConfig, ExecutionMode, \
    FaultConfig, ScriptedFault
from repro.errors import ExecutionError, StageAbortError
from repro.exec import BackendStats, SimBackend, create_backend
from repro.exec.shm import shm_available
from repro.spark import DecaContext

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory")


def make_ctx(backend="mp", mode=ExecutionMode.DECA, **overrides):
    defaults = dict(mode=mode, execution_backend=backend,
                    num_executors=2, tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


def wordcount(ctx, records=2000, keys=40, partitions=4):
    data = [(i % keys, 1) for i in range(records)]
    counts = ctx.parallelize(data, partitions, name="eb.pairs") \
                .reduce_by_key(lambda a, b: a + b, partitions,
                               name="eb.counts")
    return sorted(counts.collect())


class TestBackendSelection:
    def test_default_is_sim(self):
        ctx = make_ctx(backend="sim")
        assert isinstance(ctx.backend, SimBackend)
        assert ctx.backend.stats.backend == "sim"
        ctx.finish()

    def test_mp_selected_by_config(self):
        ctx = make_ctx()
        assert ctx.backend.name == "mp"
        assert ctx.backend.stats.backend == "mp"
        ctx.finish()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            DecaConfig(execution_backend="threads")

    def test_sim_backend_declines_every_stage(self):
        stats = BackendStats(backend="sim")
        backend = SimBackend.__new__(SimBackend)
        backend.stats = stats
        assert backend.run_map_stage(None, None, None, None, 0.0) is False
        assert backend.run_result_stage(
            None, None, None, None, None, 0.0) is None


class TestEquivalence:
    def test_iterative_job_matches_sim(self):
        """Multiple jobs over one cached RDD (PageRank's shape)."""

        def run(backend):
            ctx = make_ctx(backend=backend)
            base = ctx.parallelize([(i % 10, i) for i in range(500)], 4,
                                   name="it.base") \
                      .reduce_by_key(lambda a, b: a + b, 4,
                                     name="it.sums").cache()
            totals = [base.map(lambda kv: kv[1]).reduce(lambda a, b: a + b)
                      for _ in range(3)]
            metrics = ctx.finish()
            return totals, metrics

        sim, _ = run("sim")
        mp, metrics = run("mp")
        assert mp == sim
        assert metrics.backend["mp_stages"] >= 4

    def test_reduce_skips_empty_partitions(self):
        """Two records over four partitions: the workers' empty results
        cross the pickle boundary as empty, not as records."""
        results = {}
        for backend in ("sim", "mp"):
            ctx = make_ctx(backend=backend)
            results[backend] = ctx.parallelize([1, 2], 4).reduce(
                lambda a, b: a + b)
            ctx.finish()
        assert results == {"sim": 3, "mp": 3}

    def test_result_stage_rows_keep_partition_order(self):
        ctx = make_ctx()
        got = ctx.parallelize(list(range(100)), 5, name="ord.nums") \
                 .map(lambda x: x * 2).collect()
        ctx.finish()
        assert got == [x * 2 for x in range(100)]


class TestBackendStats:
    def test_decomposed_shuffle_pickles_no_records(self):
        """The WordCount app attaches its UDT model, so the whole map
        output crosses process boundaries as shared pages, not pickle."""
        from repro.apps.wordcount import run_wordcount
        words = [f"w{i % 40}" for i in range(2000)]
        run = run_wordcount(
            words,
            DecaConfig(mode=ExecutionMode.DECA, execution_backend="mp",
                       num_executors=2, tasks_per_executor=2),
            num_partitions=4)
        stats = run.metrics.backend
        assert stats["backend"] == "mp"
        assert stats["bytes_pickled_records"] == 0
        assert stats["bytes_shared"] > 0
        assert stats["segments_created"] > 0
        assert stats["mp_tasks"] >= 8
        assert stats["segments_live"] == 0   # finish() released everything

    def test_udt_less_shuffle_counts_pickled_bytes(self):
        """A pipeline with no UDT model cannot decompose; its map output
        is pickled and the backend owns up to every byte."""
        ctx = make_ctx()
        wordcount(ctx)
        metrics = ctx.finish()
        stats = metrics.backend
        assert stats["bytes_pickled_records"] > 0
        assert stats["segments_created"] == 0
        assert stats["segments_live"] == 0

    def test_single_worker_pool_still_correct(self):
        sim_ctx = make_ctx(backend="sim")
        sim = wordcount(sim_ctx)
        sim_ctx.finish()
        ctx = make_ctx(mp_workers=1)
        assert ctx.backend.num_workers == 1
        assert wordcount(ctx) == sim
        ctx.finish()


class TestCacheLifecycle:
    def test_deca_cache_lives_in_shared_segments(self):
        """A cached decomposed RDD is one shm segment per split; the
        second job reads the same physical pages."""
        from repro.apps.wordcount import wordcount_udt_info
        ctx = make_ctx()
        words = [f"w{i % 30}" for i in range(1200)]
        pairs = ctx.text_file(words, 4, name="cl.input") \
                   .map(lambda w: (w, 1), name="cl.pairs") \
                   .with_udt(wordcount_udt_info()).cache()
        counts = pairs.reduce_by_key(lambda a, b: a + b, 4,
                                     name="cl.counts")
        first = sorted(counts.collect())
        assert sorted(counts.collect()) == first
        backend = ctx.backend
        assert all(block.segment is not None
                   for block in backend.cache_blocks.values())
        live_before = len(backend.registry)
        pairs.unpersist()
        assert not backend.cache_blocks
        assert len(backend.registry) < live_before
        ctx.finish()

    def test_udt_less_cache_matches_sim_values(self):
        """OBJECTS-strategy cache blocks round-trip through pickle but
        must still reproduce the sim answer exactly."""

        def run(backend):
            ctx = make_ctx(backend=backend)
            cached = ctx.parallelize([(i % 8, 1) for i in range(800)], 4,
                                     name="cl2.pairs") \
                        .reduce_by_key(lambda a, b: a + b, 4,
                                       name="cl2.counts").cache()
            out = [sorted(cached.collect()) for _ in range(2)]
            ctx.finish()
            return out

        assert run("mp") == run("sim")

    def test_the_cache_plan_is_made_before_the_first_fork(self, monkeypatch):
        """``begin_job`` plans the deca caches the job's stages read, so
        the forked workers inherit the plan instead of each making it
        (and running the closure analyzer) again."""
        from repro.apps.logistic_regression import labeled_point_udt_info
        from repro.exec.mp import MpBackend
        ctx = make_ctx()
        points = [(float(i % 2), (float(i), 1.0)) for i in range(40)]
        cached = ctx.parallelize(points, 4, name="cp.input") \
                    .map(lambda r: r, name="cp.points",
                         udt_info=labeled_point_udt_info(2)).cache()
        planned_at_spawn = []
        spawn = MpBackend._spawn

        def spawning(backend, job, worker_id):
            planned_at_spawn.append(
                ("cache", cached.rdd_id) in ctx._optimizer._plans)
            return spawn(backend, job, worker_id)

        monkeypatch.setattr(MpBackend, "_spawn", spawning)
        assert cached.count() == 40
        assert ctx.plan_cache(cached).decomposed
        ctx.finish()
        assert planned_at_spawn and all(planned_at_spawn)


class TestFaultsUnderMp:
    def test_task_kill_retries_to_same_answer(self):
        sim_ctx = make_ctx(backend="sim")
        clean = wordcount(sim_ctx)
        sim_ctx.finish()
        ctx = make_ctx(faults=FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=0, partition=1,
                          after_ops=5),)))
        assert wordcount(ctx) == clean
        metrics = ctx.finish()
        assert metrics.recovery.task_failures == 1
        assert metrics.recovery.task_retries == 1
        statuses = sorted(
            (t.task_id, t.attempt, t.status)
            for t in metrics.jobs[0].stages[0].tasks if t.task_id == 1)
        assert statuses == [(1, 0, "killed"), (1, 1, "success")]

    def test_repeated_kills_abort_the_stage(self):
        faults = FaultConfig(scripted=tuple(
            ScriptedFault("task-kill", stage_id=0, partition=0,
                          attempt=attempt, after_ops=1)
            for attempt in range(4)))
        ctx = make_ctx(faults=faults)
        with pytest.raises(StageAbortError):
            wordcount(ctx)
        ctx.finish()

    def test_worker_exception_raises_execution_error(self):
        ctx = make_ctx()

        def boom(kv):
            raise ValueError("bad record")

        with pytest.raises(ExecutionError):
            ctx.parallelize([(1, 1)] * 8, 2, name="ex.pairs") \
               .map(boom).collect()
        ctx.finish()


class TestCreateBackend:
    def test_create_backend_dispatches_on_config(self):
        ctx = make_ctx(backend="sim")
        assert isinstance(create_backend(ctx), SimBackend)
        ctx.finish()
