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

The SQL cases pin the engine's other clock user: two passes of the
four-query suite on each cache layout, in a 1 MB heap so that a minor
collection lands inside a query.  Every executor charge and
``heap.allocate``/``free_group`` of ``repro.sql.engine`` is a function of
row and group *counts*, so kernels that produce the rows differently
(bulk column reads, late materialization) must leave all of it where it
was.  The values were recorded at the commit before the bulk kernels,
and the wall times once more when the queries began to be priced as
their Spark SQL plans.
"""

import pytest

from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.sql_queries import make_suite_engine, suite_queries
from repro.apps.wordcount import run_wordcount
from repro.bench.harness import result_digest
from repro.config import DecaConfig, ExecutionMode, MB
from repro.data.tables import rankings_table, uservisits_table
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


def sql_summary(layout: str) -> dict:
    """Per query and pass: (wall_ms, gc_pause_ms, cached_bytes, digest)."""
    out: dict = {}
    with make_suite_engine(rankings_table(1500, seed=7),
                           uservisits_table(3000, seed=8),
                           DecaConfig(heap_bytes=1 * MB),
                           layout=layout) as engine:
        for n in range(2):
            for name, query in suite_queries():
                result = engine.run(query)
                out[f"{name}.{n}"] = (
                    round(result.wall_ms, 6), round(result.gc_pause_ms, 6),
                    engine.cached_bytes, result_digest(result.rows))
        out["minor_gcs"] = engine.heap.stats.minor_count
        out["full_gcs"] = engine.heap.stats.full_count
        out["events"] = len(engine.tracer.events)
    return out


@pytest.mark.parametrize("layout", ["columnar", "row"])
def test_sql_suite_numbers_are_unchanged(layout):
    assert sql_summary(layout) == SQL_SUITE[layout]


# Recorded at the parent commit (7d3010a, PR 12).
LR_SPARK = {"minor_gcs": 26, "full_gcs": 16, "executor_gc_ms": 226.84471,
            "wall_ms": 169.12481, "digest": "e2e27870e3e81fab"}
WC_DECA = {"minor_gcs": 10, "full_gcs": 2, "executor_gc_ms": 13.17579,
           "wall_ms": 94.62284, "digest": "f69c4db2cce52036"}

# Recorded before the bulk kernels; "events" moved when the engine began
# running on a context's executor (the static default arena traces no
# memory:acquire, and the executor's gc:minor events reach the trace).
# The wall times were re-recorded once, when every query was charged
# through the executor at its per-slot prices as the Spark SQL plan it
# stands for (a GROUP BY pays its exchange); GC, bytes, digests, GC
# counts and events did not move.
SQL_SUITE = {
    "columnar": {
        "scan.0": (0.319209, 0.318647, 347416, "885235191d509bcb"),
        "filter.0": (0.000212, 0.0, 347416, "5aed877934eb3dd9"),
        "groupby.0": (1049.01964, 0.0, 347416, "67975fb2c640d7d9"),
        "topk.0": (0.025136, 0.0, 347416, "a936fa0391e84f4f"),
        "scan.1": (0.000562, 0.0, 347416, "885235191d509bcb"),
        "filter.1": (0.000212, 0.0, 347416, "5aed877934eb3dd9"),
        "groupby.1": (1049.01964, 0.0, 347416, "67975fb2c640d7d9"),
        "topk.1": (0.025136, 0.0, 347416, "a936fa0391e84f4f"),
        "minor_gcs": 1, "full_gcs": 0, "events": 1,
    },
    "row": {
        "scan.0": (0.004313, 0.0, 556888, "885235191d509bcb"),
        "filter.0": (0.0046, 0.0, 556888, "5aed877934eb3dd9"),
        "groupby.0": (1049.399297, 0.358657, 556888, "67975fb2c640d7d9"),
        "topk.0": (0.032495, 0.0, 556888, "a936fa0391e84f4f"),
        "scan.1": (0.004313, 0.0, 556888, "885235191d509bcb"),
        "filter.1": (0.0046, 0.0, 556888, "5aed877934eb3dd9"),
        "groupby.1": (1049.04064, 0.0, 556888, "67975fb2c640d7d9"),
        "topk.1": (0.032495, 0.0, 556888, "a936fa0391e84f4f"),
        "minor_gcs": 2, "full_gcs": 0, "events": 2,
    },
}
