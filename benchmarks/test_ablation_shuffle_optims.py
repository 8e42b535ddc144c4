"""Ablation: the shuffle-buffer optimizations of §4.3.2.

Two Deca design choices for hash-based aggregation buffers:

* **value segment reuse** — an SFST combined Value is overwritten in place
  instead of re-allocated per merge;
* **pointer-array elision** — when Key and Value are primitives/SFSTs,
  segment offsets are static and the pointer array disappears.

We disable segment reuse (forcing the allocate-per-merge behaviour) on the
WordCount point with the most keys and measure the difference.
"""

import dataclasses

from repro.config import ExecutionMode
from repro.core.optimizer import DecaOptimizer
from repro.bench.harness import run_wc_point
from repro.bench.report import format_table, write_result


def test_ablation_segment_reuse():
    def scenario():
        full = run_wc_point("150GB", "100M", ExecutionMode.DECA)
        spark = run_wc_point("150GB", "100M", ExecutionMode.SPARK)

        original = DecaOptimizer.plan_shuffle

        def no_reuse(self, dep):
            plan = original(self, dep)
            if plan.value_segment_reuse:
                plan = dataclasses.replace(plan,
                                           value_segment_reuse=False)
            return plan

        DecaOptimizer.plan_shuffle = no_reuse
        try:
            ablated = run_wc_point("150GB", "100M", ExecutionMode.DECA)
        finally:
            DecaOptimizer.plan_shuffle = original
        return spark, ablated, full

    spark, ablated, full = scenario()

    table = format_table(
        "Ablation: shuffle value segment reuse (WC 150GB/100M)",
        ["variant", "exec(s)", "gc(s)", "minor-gcs"],
        [["spark", spark.exec_s, spark.gc_s, spark.minor_gcs],
         ["deca (no segment reuse)", ablated.exec_s, ablated.gc_s,
          ablated.minor_gcs],
         ["deca (full)", full.exec_s, full.gc_s, full.minor_gcs]])
    print(table)
    write_result("ablation_segment_reuse", table)

    # Without segment reuse every eager combine re-allocates the Value:
    # the young generation churns again.
    assert ablated.minor_gcs > full.minor_gcs
    assert ablated.gc_s >= full.gc_s
    # Full Deca keeps its edge over the ablated variant.
    assert full.exec_s <= ablated.exec_s
    # Even ablated, decomposed buffers beat Spark (no serialization).
    assert ablated.exec_s < spark.exec_s
