"""Golden simulated numbers for the footprint/heap accounting path.

``repro.spark.measure`` and ``SimHeap`` occupancy are pure bookkeeping: a
faster implementation must not move a single simulated number.  The values
below were recorded at the commit *before* the measurers were compiled per
type and the heap's occupancy became O(1) counters (PR 12's tree); any
drift in footprints, allocation order or collection triggers shows up here
as a changed GC count, GC time, wall time or result digest.

The two runs are small but not quiet: the LR run caches 9,000 object-form
records in 1 MB heaps (minor and full collections, promotion, and blocks
swapped out by the eviction pressure handler); the WordCount run pushes
40,000 words through the decomposed shuffle (page-granular buffer
accounting, segment reuse) into minor and full collections too.
"""

from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.wordcount import run_wordcount
from repro.bench.harness import result_digest
from repro.config import DecaConfig, ExecutionMode, MB
from repro.data.text import random_words
from repro.data.vectors import labeled_points


def pinned_config(mode: ExecutionMode, heap_mb: int) -> DecaConfig:
    return DecaConfig(mode=mode, heap_bytes=heap_mb * MB, num_executors=2,
                      tasks_per_executor=2)


def summary(run) -> dict:
    metrics = run.metrics
    return {
        "minor_gcs": metrics.minor_gc_count,
        "full_gcs": metrics.full_gc_count,
        "executor_gc_ms": round(sum(metrics.executor_gc_ms.values()), 5),
        "wall_ms": round(metrics.wall_ms, 5),
        "digest": result_digest(run.result),
    }


def test_lr_spark_mode_numbers_are_unchanged():
    run = run_logistic_regression(
        labeled_points(9000, 10, seed=7),
        pinned_config(ExecutionMode.SPARK, heap_mb=1),
        iterations=3, num_partitions=4)
    assert summary(run) == LR_SPARK


def test_wordcount_deca_mode_numbers_are_unchanged():
    run = run_wordcount(
        random_words(40000, 20000, seed=7),
        pinned_config(ExecutionMode.DECA, heap_mb=1), num_partitions=4)
    assert summary(run) == WC_DECA


# Recorded at the parent commit (7d3010a, PR 12).
LR_SPARK = {"minor_gcs": 26, "full_gcs": 16, "executor_gc_ms": 226.84471,
            "wall_ms": 169.12481, "digest": "e2e27870e3e81fab"}
WC_DECA = {"minor_gcs": 10, "full_gcs": 2, "executor_gc_ms": 13.17579,
           "wall_ms": 94.62284, "digest": "f69c4db2cce52036"}
