"""Table 6: the two exploratory SQL queries — Spark vs Spark SQL vs Deca.

Every row is one whole run on its own context, timed by its
``RunMetrics.wall_ms``: the cache build and the query, as the paper
times a job.  Query 1 (a selective filter over a small table): all
three systems are close, GC differences are noise.  Query 2
(GroupBy-SUM over the large table): row-object Spark pays heavy GC;
Spark SQL's columnar cache and Deca's pages both cut execution time and
shrink the cache severalfold.
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
    rankings = rankings_table(RANKINGS_ROWS)
    visits = uservisits_table(USERVISITS_ROWS)
    out = {}
    for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
        out[("Query1", mode.value)] = run_query1(rankings, _config(mode))
        out[("Query2", mode.value)] = run_query2(visits, _config(mode))
    out[("Query1", "spark-sql")] = run_query1_sparksql(
        rankings, _config(ExecutionMode.SPARK))
    out[("Query2", "spark-sql")] = run_query2_sparksql(
        visits, _config(ExecutionMode.SPARK))

    def stats(key):
        run = out[key]
        return (run.wall_s, run.gc_s,
                run.cached_bytes / MB + run.swapped_cache_bytes / MB)

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
    times = [exec_s for exec_s, _, _ in q1.values()]
    assert max(times) <= 2 * min(times)
    assert q1["spark"][0] / 1.5 <= q1["deca"][0] <= 1.5 * q1["spark"][0]
    # Row-object Spark caches the table severalfold larger.
    assert 1.5 * q1["deca"][2] < q1["spark"][2] < 4 * q1["deca"][2]
    assert 1.5 * q1["spark-sql"][2] < q1["spark"][2] \
        < 4 * q1["spark-sql"][2]

    # Query 2: Deca and Spark SQL both cut execution time against Spark
    # (paper: >50 %), within 2x of each other, with far lower GC time.
    q2 = {system: stats(("Query2", system))
          for system in ("spark", "spark-sql", "deca")}
    for system in ("deca", "spark-sql"):
        assert 0.25 * q2["spark"][0] < q2[system][0] < 0.7 * q2["spark"][0]
        assert 0.0 <= q2[system][1] < 0.3 * q2["spark"][1]
    assert q2["deca"][0] / 2 <= q2["spark-sql"][0] <= 2 * q2["deca"][0]
    # And their caches are severalfold smaller.
    assert 1.5 * q2["deca"][2] < q2["spark"][2] < 4 * q2["deca"][2]

    # The TPC-H-flavoured suite runs on one shared engine: the scan
    # keeps every row, top-k keeps exactly k.  Its per-query times are
    # the ``sql`` ablation's (ablation_sql.txt), not a Table 6 row.
    suite = run_sql_suite(rankings, visits, _config(ExecutionMode.SPARK))
    assert len(suite["scan"].rows) == RANKINGS_ROWS
    assert len(suite["topk"].rows) == 10
