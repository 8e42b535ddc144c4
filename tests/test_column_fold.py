"""``reduce``'s column fold: a deca ``map`` + ``reduce`` over a cache
planned as fixed-size pages runs the app's fold a column run at a time in
place of the record chain — whether the block is resident, swapped to
either cold tier or built by the task itself — and nothing the simulation
reports can tell the two apart.

The record path is the oracle: the same job with
``MapPartitionsRDD.column_runs`` answering ``None`` everywhere must leave
the same weights (to the bit), the same ``RunMetrics`` and the same heap
profile.  Partitions here span several runs and several pages.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.apps.logistic_regression import (
    labeled_point_udt_info,
    run_logistic_regression,
)
from repro.apps.pagerank import adjacency_udt_info
from repro.config import DecaConfig, ExecutionMode, FaultConfig, \
    ScriptedFault
from repro.exec.shm import list_segments, shm_available
from repro.spark import DecaContext
from repro.spark.cache import CacheStore
from repro.spark.metrics import TaskMetrics
from repro.spark.rdd import RDD, MapPartitionsRDD, leaf_columns
from repro.spark.scheduler import TaskContext

KB = 1024
DIM = 6
#: 481 68-byte records per 32 KB page and 1200 per partition: each
#: partition spans three pages, read in five runs (256 four times, then
#: 176), two of which straddle a page boundary.
SMALL = dict(num_executors=2, tasks_per_executor=2, page_bytes=32 * KB,
             heap_bytes=4 * 1024 * KB)
#: 4800 points in four 1200-record blocks (about 80 KB each) on a 640 KB
#: heap: a 0.1 storage share holds none of them, so every block goes
#: straight to the cold tier; a 0.2 share holds two.
SWAPPED = dict(heap_bytes=640 * KB, storage_fraction=0.1)
PARTLY_SWAPPED = dict(heap_bytes=640 * KB, storage_fraction=0.2)


def points(count=3600):
    return [(1.0 if i % 3 else -1.0,
             tuple(((i * 37 + d * 11) % 23) / 7.0 - 1.5 + (i % 5) * 1e-9
                   for d in range(DIM)))
            for i in range(count)]


@pytest.fixture
def kernel_runs(monkeypatch):
    """Counts the partitions the column fold ran on."""
    real = MapPartitionsRDD.column_runs
    count = [0]

    def counting(self, split, task):
        runs = real(self, split, task)
        count[0] += runs is not None
        return runs

    monkeypatch.setattr(MapPartitionsRDD, "column_runs", counting)
    return count


@pytest.fixture
def disk_reads(monkeypatch):
    """Counts the cached blocks read back from a cold tier."""
    real = CacheStore._read_from_disk
    count = [0]

    def counting(store, block):
        count[0] += 1
        return real(store, block)

    monkeypatch.setattr(CacheStore, "_read_from_disk", counting)
    return count


@pytest.fixture
def gradient_calls(monkeypatch):
    """Counts the records LR's ``gradient`` map runs on.  The map's body
    is wrapped, not its record function, so the optimizer and the
    closure analysis still read ``gradient`` itself."""
    real = RDD.map
    count = [0]

    def mapping(self, f, name=None, **kwargs):
        out = real(self, f, name, **kwargs)
        if name == "lr.gradient":
            def counted(point):
                count[0] += 1
                return f(point)
            out._body = lambda it, task: map(counted, it)
        return out

    monkeypatch.setattr(RDD, "map", mapping)
    return count


def record_path(monkeypatch):
    monkeypatch.setattr(MapPartitionsRDD, "column_runs",
                        lambda self, split, task: None)


def run(config, data, iterations=3, num_partitions=3, profile=True):
    """Weights as hex, metrics as JSON and every heap sample of a run."""
    out = run_logistic_regression(data, config, iterations=iterations,
                                  num_partitions=num_partitions,
                                  profile=profile)
    samples = [dataclasses.astuple(sample)
               for executor in out.ctx.executors
               if executor.profiler is not None
               for sample in executor.profiler.samples]
    return ([w.hex() for w in out.result],
            json.dumps(out.metrics.to_dict(), sort_keys=True), samples)


def deca(**overrides):
    return DecaConfig(mode=ExecutionMode.DECA, **{**SMALL, **overrides})


class TestSameRunAsTheRecordPath:
    def test_resident_cache(self, monkeypatch, kernel_runs):
        data = points()
        kernel = run(deca(), data)
        # Every iteration folds the three partitions, the first one as it
        # builds the cache.
        assert kernel_runs[0] == 9
        record_path(monkeypatch)
        assert run(deca(), data) == kernel

    def test_cache_partly_swapped_to_the_mmap_tier(self, monkeypatch,
                                                   kernel_runs, disk_reads):
        """Swapped blocks fold as resident ones do."""
        data = points(4800)
        config = deca(cold_tier="mmap", **PARTLY_SWAPPED)
        kernel = run(config, data, num_partitions=4)
        # Every task folds; two of the four blocks sit on the tier, so
        # four of the eight reads after the build stream from it.
        assert kernel_runs[0] == 12 and disk_reads[0] == 4
        record_path(monkeypatch)
        assert run(config, data, num_partitions=4) == kernel

    @pytest.mark.parametrize("tier", ["heap", "mmap"])
    def test_whole_cache_swapped(self, monkeypatch, kernel_runs, disk_reads,
                                 tier):
        data = points(4800)
        config = deca(cold_tier=tier, **SWAPPED)
        kernel = run(config, data, num_partitions=4)
        # Every block is stored straight to the tier, so the two
        # iterations after the build read all eight from it.
        assert kernel_runs[0] == 12 and disk_reads[0] == 8
        record_path(monkeypatch)
        assert run(config, data, num_partitions=4) == kernel

    def test_the_iteration_that_builds_the_cache(self, monkeypatch,
                                                 kernel_runs, disk_reads):
        """One iteration: each task computes, caches and folds its block."""
        data = points()
        kernel = run(deca(), data, iterations=1)
        assert kernel_runs[0] == 3 and disk_reads[0] == 0
        record_path(monkeypatch)
        assert run(deca(), data, iterations=1) == kernel

    def test_records_read_and_compute_ticks(self, kernel_runs):
        metrics = run_logistic_regression(points(), deca(), iterations=2,
                                          num_partitions=3).metrics
        kernel_stage = metrics.jobs[1].stages[0]
        # Both iterations fold, the first as it builds the cache.
        assert kernel_runs[0] == 6
        assert [t.records_read for t in kernel_stage.tasks] == [1200] * 3
        assert all(t.compute_ticks > 0 for t in kernel_stage.tasks)

    @pytest.mark.parametrize("overrides", [
        {}, dict(cold_tier="mmap", **SWAPPED)], ids=["resident", "swapped"])
    def test_no_record_gradient_without_faults(self, monkeypatch,
                                               gradient_calls, overrides):
        config = deca(**overrides)
        run_logistic_regression(points(), config, iterations=2,
                                num_partitions=3)
        assert gradient_calls[0] == 0
        record_path(monkeypatch)
        run_logistic_regression(points(), config, iterations=2,
                                num_partitions=3)
        assert gradient_calls[0] == 2 * 3600


class TestFaults:
    @pytest.mark.parametrize("after_ops", [0, 1, 700])
    def test_kill_mid_partition_on_the_kernel_stage(self, monkeypatch,
                                                    kernel_runs, after_ops):
        """A task-kill armed on the second iteration's stage strikes on
        the same op as on the record path: the armed attempt reads
        records, one compute charge per record.  Its retry (on the other
        executor, which holds no block of the partition) is not armed, so
        it builds the block and folds, as every other task of the run
        does."""
        data = points()
        faults = FaultConfig(scripted=(ScriptedFault(
            "task-kill", stage_id=1, partition=1, after_ops=after_ops),))
        clean = run(deca(), data, profile=False)
        folds = kernel_runs[0]
        killed = run(deca(faults=faults), data, profile=False)
        assert kernel_runs[0] - folds == folds
        assert killed[0] == clean[0]
        stage = json.loads(killed[1])["jobs"][1]["stages"][0]
        failed = [t for t in stage["tasks"] if t["status"] != "success"]
        assert len(failed) == 1 and failed[0]["task_id"] == 1
        # after_ops = 700 dies mid-partition, in its second page.
        assert failed[0]["records_read"] == max(0, after_ops - 1)
        record_path(monkeypatch)
        assert run(deca(faults=faults), data, profile=False) == killed


class TestEveryModeAndBackend:
    def test_weights_are_bit_equal(self):
        cells = {mode.value: dict(mode=mode) for mode in ExecutionMode}
        for tier in ("heap", "mmap"):
            cells[f"deca-{tier}-swapped"] = dict(
                mode=ExecutionMode.DECA, cold_tier=tier, **SWAPPED)
        if shm_available():
            cells["deca-mp"] = dict(mode=ExecutionMode.DECA,
                                    execution_backend="mp", mp_workers=2)
        data = points()
        weights = {name: run(DecaConfig(**{**SMALL, **cell}), data,
                             profile=False)[0]
                   for name, cell in cells.items()}
        assert len(set(map(tuple, weights.values()))) == 1
        assert not any(math.isnan(float.fromhex(w))
                       for w in weights["deca"])

    @pytest.mark.parametrize("backend", [
        "sim", pytest.param("mp", marks=pytest.mark.skipif(
            not shm_available(), reason="platform has no shared memory"))])
    def test_sanitized_run_is_clean(self, kernel_runs, backend):
        config = deca(sanitize=True, execution_backend=backend,
                      mp_workers=2)
        out = run_logistic_regression(points(), config, iterations=3,
                                      num_partitions=3)
        assert out.metrics.sanitize["violations"] == 0
        if backend == "sim":
            assert kernel_runs[0] == 9
        else:
            # The workers read records; nothing of the run stays linked.
            assert kernel_runs[0] == 0
            assert list_segments(f"{out.ctx.backend.run_tag}-") == []

    def test_sanitized_fold_of_mmap_swapped_blocks_is_clean(
            self, kernel_runs, disk_reads):
        config = deca(sanitize=True, cold_tier="mmap", **SWAPPED)
        out = run_logistic_regression(points(4800), config, iterations=3,
                                      num_partitions=4)
        assert kernel_runs[0] == 12 and disk_reads[0] == 8
        assert out.metrics.sanitize["violations"] == 0


class TestColumnRuns:
    def test_reads_through_the_cache_entry_points(self, monkeypatch,
                                                  kernel_runs):
        """The fold's input is ``CacheStore.read_records`` — the read a
        profiler of the cache and page layers sees — as on the record
        path."""
        reads = []
        real = CacheStore.read_records

        def counting(store, key):
            reads.append(key)
            return real(store, key)

        monkeypatch.setattr(CacheStore, "read_records", counting)
        run_logistic_regression(points(), deca(), iterations=3,
                                num_partitions=3)
        # The build iteration folds too, but building a block is not a
        # read of it: the later two iterations read the three blocks.
        assert kernel_runs[0] == 9 and len(reads) == 6

    def test_label_then_features(self):
        data = points(10)
        columns = leaf_columns(data)
        assert len(columns) == 1 + DIM
        assert list(columns[0]) == [label for label, _ in data]
        for d in range(DIM):
            assert list(columns[1 + d]) == [f[d] for _, f in data]

    @staticmethod
    def qualifies(ctx, child, split):
        task = TaskContext(ctx.executors[0], TaskMetrics())
        return child.column_runs(split, task) is not None

    @pytest.mark.parametrize("tier", ["heap", "mmap"])
    def test_fixed_size_deca_plans_qualify_in_every_block_state(self, tier):
        """The rule reads the parent's cache plan: its block may be
        resident, swapped or not built yet on this executor."""
        ctx = DecaContext(deca(cold_tier=tier))
        cached = ctx.parallelize(points(60), 2).map(
            lambda r: r, udt_info=labeled_point_udt_info(DIM)).cache()
        child = cached.map(lambda r: r[0])
        assert self.qualifies(ctx, child, 0)            # not built yet
        assert cached.count() == 60
        store = ctx.executors[0].cache
        key = (cached.rdd_id, 0)
        assert not store.blocks[key].on_disk
        assert self.qualifies(ctx, child, 0)            # resident
        assert not store.contains((cached.rdd_id, 1))
        assert self.qualifies(ctx, child, 1)            # on the other one
        store.swap_out(key)
        assert store.blocks[key].on_disk
        assert self.qualifies(ctx, child, 0)            # swapped
        ctx.finish()

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK,
                                      ExecutionMode.SPARK_SER])
    def test_object_and_serialized_plans_do_not(self, mode):
        ctx = DecaContext(DecaConfig(mode=mode, **SMALL))
        cached = ctx.parallelize(points(60), 2).map(
            lambda r: r, udt_info=labeled_point_udt_info(DIM)).cache()
        child = cached.map(lambda r: r[0])
        assert cached.count() == 60
        assert not self.qualifies(ctx, child, 0)
        ctx.finish()

    def test_variable_size_pages_do_not(self):
        """Adjacency lists decompose to pages of variable-size records
        (RFST), which the fold does not read."""
        ctx = DecaContext(deca())
        cached = ctx.parallelize(
            [(v, tuple(range(v % 5))) for v in range(40)], 2).map(
            lambda r: r, udt_info=adjacency_udt_info()).cache()
        child = cached.map(lambda r: len(r[1]))
        plan = ctx.plan_cache(cached)
        assert plan.decomposed and plan.schema.fixed_size is None
        assert child.reduce(lambda a, b: a + b,
                            column_fold=lambda acc, columns: 1 / 0) == 80
        assert not self.qualifies(ctx, child, 0)
        ctx.finish()
