"""Table 6: the two exploratory SQL queries — Spark vs Spark SQL vs Deca.

Query 1 (a selective filter over a small table): all three systems are
close, GC differences are noise.  Query 2 (GroupBy-SUM over the large
table): row-object Spark pays heavy GC; Spark SQL's columnar cache and
Deca's pages both cut execution time and shrink the cache severalfold.
"""

from repro.config import DecaConfig, ExecutionMode, MB
from repro.data import rankings_table, uservisits_table
from repro.apps.sql_queries import (
    run_query1,
    run_query1_sparksql,
    run_query2,
    run_query2_sparksql,
    run_sql_suite,
)
from repro.bench.report import format_table, write_result

RANKINGS_ROWS = 6_000
USERVISITS_ROWS = 20_000


def _config(mode):
    # Sized so the row-object uservisits cache overfills the old
    # generation (the paper's Query 2 run swaps 23 GB of its cache).
    return DecaConfig(mode=mode, heap_bytes=int(4.5 * MB), num_executors=2,
                      tasks_per_executor=2, page_bytes=256 * 1024,
                      young_fraction=0.25, storage_fraction=0.9,
                      shuffle_fraction=0.1)


def test_table6_sql():
    def scenario():
        rankings = rankings_table(RANKINGS_ROWS)
        visits = uservisits_table(USERVISITS_ROWS)
        out = {}
        for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
            out[("Query1", mode.value)] = run_query1(rankings,
                                                     _config(mode))
            out[("Query2", mode.value)] = run_query2(visits,
                                                     _config(mode))
        out[("Query1", "spark-sql")] = run_query1_sparksql(
            rankings, _config(ExecutionMode.SPARK))
        out[("Query2", "spark-sql")] = run_query2_sparksql(
            visits, _config(ExecutionMode.SPARK))
        suite = run_sql_suite(rankings, visits,
                              _config(ExecutionMode.SPARK))
        for name, result in suite.items():
            out[(f"Suite:{name}", "spark-sql")] = result
        return out

    out = scenario()

    def stats(key):
        run = out[key]
        if hasattr(run, "metrics"):  # an RDD AppRun
            return (run.wall_s, run.gc_s,
                    run.cached_bytes / MB + run.swapped_cache_bytes / MB)
        return (run.wall_ms / 1000.0, run.gc_pause_ms / 1000.0,
                run.cached_bytes / MB)

    body = []
    for (query, system) in out:
        exec_s, gc_s, cache_mb = stats((query, system))
        body.append([query, system, exec_s, gc_s, cache_mb])
    table = format_table(
        "Table 6: exploratory SQL queries",
        ["query", "system", "exec(s)", "gc(s)", "cache(MB)"], body)
    print(table)
    write_result("table6_sql", table)

    # Query 1: all three perform comparably (small input, simple filter).
    q1 = {system: stats(("Query1", system))
          for system in ("spark", "spark-sql", "deca")}
    assert q1["deca"][0] <= 1.5 * q1["spark"][0]
    # Row-object Spark caches the table severalfold larger.
    assert q1["spark"][2] > 1.5 * q1["deca"][2]
    assert q1["spark"][2] > 1.5 * q1["spark-sql"][2]

    # Query 2: Deca and Spark SQL both cut execution time against Spark
    # (paper: >50 %) with far lower GC time.
    q2 = {system: stats(("Query2", system))
          for system in ("spark", "spark-sql", "deca")}
    assert q2["deca"][0] < 0.7 * q2["spark"][0]
    assert q2["spark-sql"][0] < 0.7 * q2["spark"][0]
    assert q2["deca"][1] < 0.3 * q2["spark"][1]
    assert q2["spark-sql"][1] < 0.3 * q2["spark"][1]
    # And their caches are severalfold smaller.
    assert q2["spark"][2] > 1.5 * q2["deca"][2]

    # The TPC-H-flavoured suite runs on one shared engine: the scan
    # keeps every row, top-k keeps exactly k.
    assert len(out[("Suite:scan", "spark-sql")].rows) == RANKINGS_ROWS
    assert len(out[("Suite:topk", "spark-sql")].rows) == 10
