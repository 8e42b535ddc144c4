"""Table 3: GC-time reduction across the five applications.

For each application, the largest dataset that does not spill: Spark's
execution time, GC time and GC ratio, against Deca's GC time and the
resulting reduction.  The paper reports ratios of 40–79 % for Spark and
reductions of 97.5–99.9 %.
"""

from repro.config import ExecutionMode
from repro.bench.harness import (
    run_graph_point,
    run_kmeans_point,
    run_lr_point,
    run_wc_point,
)
from repro.bench.report import format_table, write_result


def _pairs():
    """(app label, spark row, deca row) for Table 3's five rows."""
    out = []
    out.append(("WC: 150GB",
                run_wc_point("150GB", "100M", ExecutionMode.SPARK),
                run_wc_point("150GB", "100M", ExecutionMode.DECA)))
    out.append(("LR: 80GB",
                run_lr_point("80GB", ExecutionMode.SPARK, iterations=3),
                run_lr_point("80GB", ExecutionMode.DECA, iterations=3)))
    out.append(("KMeans: 80GB",
                run_kmeans_point("80GB", ExecutionMode.SPARK,
                                 iterations=3),
                run_kmeans_point("80GB", ExecutionMode.DECA,
                                 iterations=3)))
    out.append(("PR: 30GB",
                run_graph_point("PR", "WB", ExecutionMode.SPARK,
                                iterations=2),
                run_graph_point("PR", "WB", ExecutionMode.DECA,
                                iterations=2)))
    out.append(("CC: 30GB",
                run_graph_point("CC", "WB", ExecutionMode.SPARK,
                                iterations=2),
                run_graph_point("CC", "WB", ExecutionMode.DECA,
                                iterations=2)))
    return out


def test_table3_gc_reduction():
    pairs = _pairs()

    body = []
    for label, spark, deca in pairs:
        reduction = (1.0 - deca.gc_s / spark.gc_s) if spark.gc_s else 0.0
        body.append([label, spark.exec_s, spark.gc_s,
                     f"{100 * spark.gc_fraction:.1f}%", deca.gc_s,
                     f"{100 * reduction:.1f}%"])
    table = format_table(
        "Table 3: GC time reduction (Spark exec/gc/ratio vs Deca gc)",
        ["app", "spark exec(s)", "spark gc(s)", "ratio", "deca gc(s)",
         "reduction"],
        body)
    print(table)
    write_result("table3_gc_reduction", table)

    for label, spark, deca in pairs:
        # Spark spends a substantial share of each run collecting garbage.
        assert spark.gc_fraction > 0.10, label
        # Deca eliminates most of it.
        reduction = 1.0 - deca.gc_s / spark.gc_s
        assert reduction > 0.90, (label, reduction)
    # The caching-heavy rows reproduce the paper's >97 % reductions.
    for label, spark, deca in pairs:
        if label.startswith(("LR", "KMeans")):
            assert 1.0 - deca.gc_s / spark.gc_s > 0.97, label
