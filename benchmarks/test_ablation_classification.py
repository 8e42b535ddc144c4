"""Ablation: how much of Deca's win needs the *global* analysis (§3.3).

The local classifier alone leaves ``LabeledPoint`` a VST (its ``features``
field is non-final), so local-only Deca cannot decompose the cache at all
— it degenerates to Spark.  Only the global refinement (init-only fields +
fixed-length arrays) unlocks the decomposition.  This is the paper's
motivation for Algorithms 2–4.
"""

import dataclasses

from repro.config import ExecutionMode
from repro.bench.harness import run_lr_point
from repro.bench.report import format_table, write_result


def test_ablation_classification():
    def scenario():
        full = run_lr_point("80GB", ExecutionMode.DECA, iterations=3)
        spark = run_lr_point("80GB", ExecutionMode.SPARK, iterations=3)

        # Local-only Deca: strip the stage IR so the optimizer has no
        # call graph to refine with — the local VST verdict stands.
        import repro.apps.logistic_regression as lr_app
        original = lr_app.labeled_point_udt_info

        def local_only(dimensions):
            info = original(dimensions)
            return dataclasses.replace(info, entry_method=None)

        lr_app.labeled_point_udt_info = local_only
        try:
            local = run_lr_point("80GB", ExecutionMode.DECA, iterations=3)
        finally:
            lr_app.labeled_point_udt_info = original
        return spark, local, full

    spark, local, full = scenario()

    table = format_table(
        "Ablation: local-only vs global classification (LR 80GB)",
        ["variant", "exec(s)", "gc(s)", "cache(MB)"],
        [["spark", spark.exec_s, spark.gc_s, spark.cached_mb],
         ["deca (local only)", local.exec_s, local.gc_s, local.cached_mb],
         ["deca (global)", full.exec_s, full.gc_s, full.cached_mb]])
    print(table)
    write_result("ablation_classification", table)

    # Local-only classification cannot decompose LabeledPoint: the run
    # behaves like Spark (object cache, full GC storms).
    assert local.gc_s > 0.5 * spark.gc_s
    assert local.cached_mb > 1.2 * full.cached_mb
    # The global analysis delivers the actual win.
    assert full.exec_s < 0.5 * local.exec_s
    assert full.gc_s < 0.05 * local.gc_s
