"""``reduce``'s column fold: a deca ``map`` + ``reduce`` over a resident
cached page group runs the app's fold a column run at a time in place of
the record chain, and nothing the simulation reports can tell the two
apart.

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
from repro.config import DecaConfig, ExecutionMode, FaultConfig, \
    ScriptedFault
from repro.exec.shm import list_segments, shm_available
from repro.spark import DecaContext
from repro.spark.cache import CacheStore
from repro.spark.rdd import MapPartitionsRDD, leaf_columns

KB = 1024
DIM = 6
#: 481 68-byte records per 32 KB page and 1200 per partition: each
#: partition spans three pages, read in five runs (256 four times, then
#: 176), two of which straddle a page boundary.
SMALL = dict(num_executors=2, tasks_per_executor=2, page_bytes=32 * KB,
             heap_bytes=4 * 1024 * KB)


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
        # Iterations 2 and 3 fold the three cached partitions.
        assert kernel_runs[0] == 6
        record_path(monkeypatch)
        assert run(deca(), data) == kernel

    def test_cache_partly_swapped_to_the_mmap_tier(self, monkeypatch,
                                                   kernel_runs):
        """Swapped blocks stream their records; resident ones fold."""
        data = points(4800)
        config = deca(heap_bytes=640 * KB, storage_fraction=0.5,
                      cold_tier="mmap")
        kernel = run(config, data, num_partitions=4)
        assert 0 < kernel_runs[0] < 12
        record_path(monkeypatch)
        assert run(config, data, num_partitions=4) == kernel

    def test_records_read_and_compute_ticks(self, kernel_runs):
        metrics = run_logistic_regression(points(), deca(), iterations=2,
                                          num_partitions=3).metrics
        kernel_stage = metrics.jobs[1].stages[0]
        assert kernel_runs[0] == 3
        assert [t.records_read for t in kernel_stage.tasks] == [1200] * 3
        assert all(t.compute_ticks > 0 for t in kernel_stage.tasks)


class TestFaults:
    @pytest.mark.parametrize("after_ops", [0, 1, 700])
    def test_kill_mid_partition_on_the_kernel_stage(self, monkeypatch,
                                                    kernel_runs, after_ops):
        """A task-kill armed on the second iteration's stage strikes on
        the same op as on the record path: the armed attempt reads
        records, one compute charge per record, and so does its retry
        (on the other executor, which holds no block of the partition).
        Every other task of the run folds."""
        data = points()
        faults = FaultConfig(scripted=(ScriptedFault(
            "task-kill", stage_id=1, partition=1, after_ops=after_ops),))
        clean = run(deca(), data, profile=False)
        folds = kernel_runs[0]
        killed = run(deca(faults=faults), data, profile=False)
        assert kernel_runs[0] - folds == folds - 1
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
        if shm_available():
            cells["deca-mp"] = dict(mode=ExecutionMode.DECA,
                                    execution_backend="mp", mp_workers=2)
        data = points()
        weights = {name: run(DecaConfig(**SMALL, **cell), data,
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
            assert kernel_runs[0] == 6
        else:
            # The workers read records; nothing of the run stays linked.
            assert kernel_runs[0] == 0
            assert list_segments(f"{out.ctx.backend.run_tag}-") == []


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
        assert kernel_runs[0] == 6 and len(reads) == 6

    def test_label_then_features(self):
        data = points(10)
        columns = leaf_columns(data)
        assert len(columns) == 1 + DIM
        assert list(columns[0]) == [label for label, _ in data]
        for d in range(DIM):
            assert list(columns[1 + d]) == [f[d] for _, f in data]

    def test_only_resident_fixed_size_pages_qualify(self):
        ctx = DecaContext(deca())
        cached = ctx.parallelize(points(60), 2).map(
            lambda r: r, udt_info=labeled_point_udt_info(DIM)).cache()
        assert cached.count() == 60
        store = ctx.executors[0].cache
        key = (cached.rdd_id, 0)
        assert store.holds_fixed_pages(key)
        assert not store.holds_fixed_pages((cached.rdd_id, 1))
        store.swap_out(key)
        assert not store.holds_fixed_pages(key)
        ctx.finish()
