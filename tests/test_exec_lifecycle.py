"""Job-scoped mp executors: lifecycle, the delta protocol, and teardown.

The mp backend forks its workers once per job and tells them what the
job has produced since through each stage order's *delta*
(docs/execution_backends.md).  These tests pin the three things that
design has to get right:

* a job forks ``mp_workers`` processes, however many stages it has;
* data that used to reach a worker by being forked *after* it existed —
  object-form shuffle blocks, SparkSer ``packed`` cache blocks, a cold
  flag set mid-job — now reaches it by delta, and the answer is the sim
  backend's;
* however a job ends (worker crash, SIGKILL, stage timeout, an interrupt
  in the driver) no child process, shared segment or file descriptor
  outlives it.

Every context runs with ``sanitize=True``: ``ctx.finish()`` raises on any
provenance or vector-clock violation.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker

import pytest

import repro.exec.mp as mp_mod
from repro.apps.logistic_regression import labeled_point_udt_info
from repro.apps.pagerank import run_pagerank
from repro.bench.harness import cell_inputs, result_digest
from repro.config import DecaConfig, ExecutionMode, FaultConfig, \
    ScriptedFault
from repro.errors import ExecutionError
from repro.exec.shm import SEGMENT_PREFIX, list_segments, shm_available
from repro.spark import DecaContext

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory")

WORKERS = 2


def config(backend="mp", mode=ExecutionMode.DECA, **overrides):
    settings = dict(mode=mode, execution_backend=backend,
                    num_executors=2, tasks_per_executor=2,
                    mp_workers=WORKERS, mp_stage_timeout_s=30.0,
                    sanitize=True)
    settings.update(overrides)
    return DecaConfig(**settings)


def add(a, b):
    return a + b


def finish_clean(ctx):
    """finish() with both sanitizers' verdicts checked explicitly."""
    metrics = ctx.finish()
    assert metrics.sanitize["violations"] == 0
    assert metrics.race["violations"] == 0
    return metrics


def three_shuffles(ctx, slow_stage=None):
    """Three chained UDT-less shuffles and a result stage — one job."""
    def rekey(modulus, stage):
        def fn(kv):
            if stage == slow_stage:
                time.sleep(0.02)
            return kv[0] % modulus, kv[1]
        return fn

    data = [(i % 60, i) for i in range(1200)]
    first = ctx.parallelize(data, 4, name="lc.pairs") \
               .reduce_by_key(add, 4, name="lc.first")
    second = first.map(rekey(12, 1), name="lc.rekey12") \
                  .reduce_by_key(add, 4, name="lc.second")
    third = second.map(rekey(5, 2), name="lc.rekey5") \
                  .reduce_by_key(add, 4, name="lc.third")
    return sorted(third.collect())


def cached_points_twice(ctx):
    """A cached RDD built in the job's first stage and read again in its
    second: two shuffles off the same cache, joined where they already
    sit (three stages — both sides are partitioned like the join)."""
    points = [(float(i % 7), tuple(float(i + d) for d in range(10)))
              for i in range(400)]
    cached = ctx.parallelize(points, 4, name="lc.points") \
                .map(lambda p: p, name="lc.typed",
                     udt_info=labeled_point_udt_info(10)).cache()
    sums = cached.map(lambda p: (int(p[0]), p[1][0]), name="lc.x0") \
                 .reduce_by_key(add, 4, name="lc.sum0")
    maxes = cached.map(lambda p: (int(p[0]), p[1][9]), name="lc.x9") \
                  .reduce_by_key(max, 4, name="lc.max9")
    return cached, sorted(sums.join(maxes, 4, name="lc.joined").collect())


class TestOneForkPerWorkerPerJob:
    def test_7_stage_job_forks_mp_workers_processes(self):
        edges = cell_inputs(nodes=80, edges=400)["edges"]
        sim = run_pagerank(edges, config("sim"), iterations=5,
                           num_partitions=4)
        run = run_pagerank(edges, config(), iterations=5, num_partitions=4)
        stats = run.metrics.backend
        # groupEdges, one reduceByKey per iteration, the result stage:
        # the join reads both of its sides where they are.
        assert stats["mp_stages"] == 2 + 5
        assert stats["mp_tasks"] == 4 * (2 + 5)
        assert stats["workers_forked"] == WORKERS
        assert stats["worker_deaths"] == 0
        assert result_digest(sorted(run.result.items())) == \
            result_digest(sorted(sim.result.items()))
        assert run.metrics.race["violations"] == 0
        assert run.metrics.sanitize["violations"] == 0
        # One fork edge per worker, one send edge per order, one receive
        # edge per task outcome.
        assert run.metrics.race["forks"] == WORKERS
        assert run.metrics.race["joins"] >= stats["mp_tasks"]

    def test_every_job_gets_fresh_workers(self):
        ctx = DecaContext(config())
        nums = ctx.parallelize(list(range(40)), 4, name="lc.nums")
        pids = [set(nums.map(lambda _: os.getpid()).collect())
                for _ in range(2)]
        assert len(pids[0]) == len(pids[1]) == WORKERS
        assert not pids[0] & pids[1]
        assert os.getpid() not in pids[0] | pids[1]
        assert finish_clean(ctx).backend["workers_forked"] == 2 * WORKERS

    def test_narrow_job_forks_no_more_workers_than_tasks(self):
        ctx = DecaContext(config())
        assert ctx.parallelize([1, 2, 3], 1, name="lc.one").collect() == \
            [1, 2, 3]
        assert finish_clean(ctx).backend["workers_forked"] == 1


class TestDataArrivesByDelta:
    """Workers are forked before any of the job's stages ran, so all of
    this crosses the pipe."""

    def test_pickled_shuffle_blocks(self):
        sim_ctx = DecaContext(config("sim"))
        expected = three_shuffles(sim_ctx)
        sim_ctx.finish()
        ctx = DecaContext(config())
        assert three_shuffles(ctx) == expected
        stats = finish_clean(ctx).backend
        assert stats["mp_stages"] == 4
        assert stats["workers_forked"] == WORKERS
        assert stats["bytes_pickled_records"] > 0
        assert stats["segments_created"] == 0

    def test_sparkser_packed_cache_blocks(self):
        sim_ctx = DecaContext(config("sim", ExecutionMode.SPARK_SER))
        _, expected = cached_points_twice(sim_ctx)
        sim_ctx.finish()
        ctx = DecaContext(config(mode=ExecutionMode.SPARK_SER))
        cached, got = cached_points_twice(ctx)
        assert got == expected
        kinds = {entry.kind for key, entry in ctx.backend.cache_blocks.items()
                 if key[0] == cached.rdd_id}
        assert kinds == {"packed"}
        stats = finish_clean(ctx).backend
        assert stats["mp_stages"] == 3
        assert stats["workers_forked"] == WORKERS

    def test_later_stages_read_the_registered_block(self):
        """The stage that computes a cached block sees the records as
        computed (feature *lists*); every later stage sees what the
        cache decodes (*tuples*) — under sim, and so under mp, although
        the worker that computed them is still alive and still has the
        originals."""
        def shapes(ctx):
            points = [(float(i % 7), [float(i + d) for d in range(10)])
                      for i in range(400)]
            cached = ctx.parallelize(points, 4, name="lc.points") \
                        .map(lambda p: p, name="lc.typed",
                             udt_info=labeled_point_udt_info(10)).cache()

            def shape(name):
                return cached.map(
                    lambda p: (int(p[0]), type(p[1]).__name__),
                    name=f"lc.{name}Shape").reduce_by_key(
                        lambda a, b: a if a == b else "mixed", 4,
                        name=f"lc.{name}")

            return sorted(shape("first").join(shape("second"), 4).collect())

        sim_ctx = DecaContext(config("sim"))
        expected = shapes(sim_ctx)
        sim_ctx.finish()
        assert expected == [(k, ("list", "tuple")) for k in range(7)]
        ctx = DecaContext(config())
        assert shapes(ctx) == expected
        finish_clean(ctx)


# -- teardown, however the job ends -------------------------------------------

def residue():
    """What a job must not add to: children, our segments, open fds."""
    return (multiprocessing.active_children(),
            [name for name in list_segments(f"{SEGMENT_PREFIX}-{os.getpid()}-")
             if "-test-" not in name],
            sorted(os.listdir("/proc/self/fd")))


def baseline():
    """``residue()`` before a job, with what no job of the test owns
    settled first.  An earlier test's finished context can hold tier
    mappings (each with its own descriptor) in reference cycles until
    the collector runs — which must not be in the middle of this test.
    And the first mp backend of the process starts the process-wide
    resource tracker (one pipe, kept)."""
    gc.collect()
    resource_tracker.ensure_running()
    return residue()


@pytest.fixture
def clean_ctx():
    """A sanitizing mp context factory; whatever the test did to its
    contexts, afterwards the process holds exactly what it held before
    the first was used."""
    made = []
    before = []

    def make(**overrides):
        ctx = DecaContext(config(**overrides))
        if not before:
            before.append(baseline())
        made.append(ctx)
        return ctx

    yield make
    for ctx in made:
        finish_clean(ctx)
    assert residue() == before[0]


@pytest.fixture
def expected():
    ctx = DecaContext(config("sim"))
    result = three_shuffles(ctx)
    ctx.finish()
    return result


class TestNothingOutlivesTheJob:
    def test_injected_executor_crash(self, clean_ctx, expected):
        """The crash hits the job's second stage, so the replacement is
        forked from a driver that already registered the first."""
        ctx = clean_ctx(faults=FaultConfig(scripted=(
            ScriptedFault("executor-crash", stage_id=1, partition=1,
                          after_ops=3),)))
        assert three_shuffles(ctx) == expected
        stats = ctx.backend.stats
        assert stats.worker_deaths == 1
        assert stats.workers_forked == WORKERS + 1
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("kind", ["task-kill", "executor-crash"])
    def test_fault_inside_a_co_partitioned_join(self, kind):
        """PageRank's second iteration: the join reads the cached
        adjacency segments and the previous iteration's shuffle blocks
        in place; the retry (on a fresh fork, after a crash) reads them
        again and the answer is the fault-free one."""
        edges = cell_inputs(nodes=80, edges=400)["edges"]
        before = baseline()
        clean = run_pagerank(edges, config("sim"), iterations=3,
                             num_partitions=4)
        run = run_pagerank(edges, config(faults=FaultConfig(scripted=(
            ScriptedFault(kind, stage_id=2, partition=1, after_ops=3),))),
            iterations=3, num_partitions=4)
        assert list(run.result.items()) == list(clean.result.items())
        stats = run.metrics.backend
        assert stats["mp_stages"] == 2 + 3
        # A dying worker takes both splits of its wave down with it.
        failures = 2 if kind == "executor-crash" else 1
        assert run.metrics.recovery.task_failures == failures
        assert stats["mp_tasks"] == 4 * (2 + 3) + failures
        assert stats["worker_deaths"] == (kind == "executor-crash")
        assert stats["segments_live"] == 0
        assert run.metrics.race["violations"] == 0
        assert run.metrics.sanitize["violations"] == 0
        assert residue() == before

    def test_sigkilled_worker(self, clean_ctx, expected, tmp_path):
        """A real SIGKILL in the middle of a task of the third stage."""
        marker = tmp_path / "killed-once"
        ctx = clean_ctx()

        def die_once(kv):
            if kv[0] == 3 and not marker.exists():
                marker.write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return kv

        data = [(i % 60, i) for i in range(1200)]
        first = ctx.parallelize(data, 4, name="lc.pairs") \
                   .reduce_by_key(add, 4, name="lc.first")
        second = first.map(lambda kv: (kv[0] % 12, kv[1])) \
                      .reduce_by_key(add, 4, name="lc.second")
        third = second.map(die_once, name="lc.dieOnce") \
                      .map(lambda kv: (kv[0] % 5, kv[1])) \
                      .reduce_by_key(add, 4, name="lc.third")
        assert sorted(third.collect()) == expected
        assert marker.exists()
        stats = ctx.backend.stats
        assert stats.worker_deaths == 1
        assert stats.workers_forked == WORKERS + 1
        assert not multiprocessing.active_children()

    def test_stage_timeout(self, clean_ctx):
        ctx = clean_ctx(mp_stage_timeout_s=0.3)
        nums = ctx.parallelize(list(range(8)), 4, name="lc.sleepy")
        with pytest.raises(ExecutionError, match="mp_stage_timeout_s"):
            nums.map(lambda x: time.sleep(30) or x).collect()
        assert not multiprocessing.active_children()
        # The context is still usable: the next job forks its own workers.
        assert nums.map(lambda x: x + 1).collect() == list(range(1, 9))

    def test_keyboard_interrupt_in_the_driver(self, clean_ctx, monkeypatch):
        """Ctrl-C lands where the driver spends its time — blocked in the
        stage barrier with both workers busy."""
        ctx = clean_ctx()
        real_wait = mp_mod.connection.wait
        calls = []

        def interrupted_wait(objects, timeout=None):
            calls.append(len(objects))
            if len(calls) == 3:     # the barrier of the second stage
                raise KeyboardInterrupt
            return real_wait(objects, timeout)

        monkeypatch.setattr(mp_mod.connection, "wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            three_shuffles(ctx, slow_stage=1)
        monkeypatch.undo()
        assert not multiprocessing.active_children()
        assert ctx.backend.stats.workers_forked == WORKERS


# -- the driver owns the one resource tracker ---------------------------------

TRACKER_SCRIPT = """
from multiprocessing import resource_tracker
from repro.config import DecaConfig
from repro.spark import DecaContext

def tracker_pid(_):
    # What this worker would register a new segment with.
    resource_tracker.ensure_running()
    return resource_tracker._resource_tracker._pid

ctx = DecaContext(DecaConfig(execution_backend="mp", num_executors=2,
                             mp_workers=2))
driver = resource_tracker._resource_tracker._pid
workers = set(ctx.parallelize(list(range(8)), 4).map(tracker_pid).collect())
ctx.finish()
print(driver, sorted(workers))
assert driver is not None and workers == {driver}, (driver, workers)
"""


def test_first_job_workers_inherit_the_drivers_resource_tracker():
    """In a process that never touched shared memory, the first job's
    workers used to find no tracker to inherit and each fork+exec'ed an
    interpreter for its own (1.1 s on the first job of every process)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", TRACKER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
