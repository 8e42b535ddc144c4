"""The two exploratory SQL queries of §6.6, three ways.

For each query the paper compares:

* **Spark** / **Deca** — a semantically identical hand-written RDD program
  (rows cached as objects or decomposed pages respectively);
* **Spark SQL** — the columnar engine (:mod:`repro.sql`).

Query 1 — a simple filter::

    SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100;

Query 2 — a GroupBy aggregate::

    SELECT SUBSTR(sourceIP, 1, 5), SUM(adRevenue)
    FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 5);
"""

from __future__ import annotations

from ..config import DecaConfig
from ..data.tables import RankingRow, UserVisitRow
from ..spark.rdd import UdtInfo
from ..sql import SqlEngine, groupby_sum, select, top_k
from ..sql.engine import Query, QueryResult
from ..sql.schema import RANKINGS_SCHEMA, USERVISITS_SCHEMA, TableSchema
from .common import AppRun, make_context
from .udts import RANKINGS_SCAN, Ranking, USERVISITS_SCAN, UserVisit


def ranking_udt_info() -> UdtInfo:
    return UdtInfo(udt=Ranking, entry_method=RANKINGS_SCAN)


def uservisit_udt_info() -> UdtInfo:
    return UdtInfo(udt=UserVisit, entry_method=USERVISITS_SCAN)


def run_query1(rankings: list[RankingRow],
               config: DecaConfig | None = None,
               num_partitions: int = 8,
               threshold: int = 100) -> AppRun:
    """The hand-written RDD version of Query 1 (Spark/Deca rows)."""
    ctx = make_context(config)
    rows = ctx.parallelize(rankings, num_partitions, name="q1.rankings") \
        .map(lambda r: r, name="q1.rows",
             udt_info=ranking_udt_info()).cache()
    result = rows.filter(lambda r: r[1] > threshold, name="q1.filter") \
        .map(lambda r: (r[0], r[1]), name="q1.project") \
        .collect()
    return AppRun.finish(ctx, result, rows)


def run_query2(uservisits: list[UserVisitRow],
               config: DecaConfig | None = None,
               num_partitions: int = 8,
               prefix: int = 5) -> AppRun:
    """The hand-written RDD version of Query 2 (Spark/Deca rows)."""
    ctx = make_context(config)
    rows = ctx.parallelize(uservisits, num_partitions,
                           name="q2.uservisits") \
        .map(lambda r: r, name="q2.rows",
             udt_info=uservisit_udt_info()).cache()
    summed = rows.map(lambda r: (r[0][:prefix], r[3]), name="q2.keyed") \
        .reduce_by_key(lambda a, b: a + b, num_partitions,
                       name="q2.sum")
    result = sorted(summed.collect())
    return AppRun.finish(ctx, result, rows)


def run_query1_sparksql(rankings: list[RankingRow],
                        config: DecaConfig | None = None,
                        threshold: int = 100) -> AppRun:
    """Query 1 on the columnar engine, timed like :func:`run_query1`:
    the whole run, cache build included."""
    return _run_sparksql("rankings", RANKINGS_SCHEMA, rankings, config,
                         select(["pageURL", "pageRank"], "rankings",
                                where=("pageRank", ">", threshold)))


def run_query2_sparksql(uservisits: list[UserVisitRow],
                        config: DecaConfig | None = None,
                        prefix: int = 5) -> AppRun:
    """Query 2 on the columnar engine, timed like :func:`run_query2`."""
    return _run_sparksql("uservisits", USERVISITS_SCHEMA, uservisits,
                         config, groupby_sum("uservisits", "sourceIP",
                                             "adRevenue", key_prefix=prefix))


def _run_sparksql(name: str, schema: TableSchema, rows: list,
                  config: DecaConfig | None, query: Query) -> AppRun:
    """Cache *rows* as *name* and run *query*; the metrics span the run."""
    with SqlEngine(config) as engine:
        engine.register_table(name, schema, rows)
        engine.cache_table(name)
        result = engine.run(query).rows
        cached_bytes = engine.cached_bytes
    return AppRun(result=result, metrics=engine.close(), ctx=engine.context,
                  cached_bytes=cached_bytes)


def suite_queries(threshold: int = 100, prefix: int = 5,
                  k: int = 10) -> list[tuple[str, Query]]:
    """A small TPC-H-flavoured suite over the §6.6 tables.

    Four shapes the columnar kernels must cover: a full-projection
    scan, a selective filter (Query 1), a GroupBy-SUM (Query 2), and a
    top-k (filter + sort + limit).
    """
    return [
        ("scan", select(["pageURL", "pageRank", "avgDuration"],
                        "rankings")),
        ("filter", select(["pageURL", "pageRank"], "rankings",
                          where=("pageRank", ">", threshold))),
        ("groupby", groupby_sum("uservisits", "sourceIP", "adRevenue",
                                key_prefix=prefix)),
        ("topk", top_k(["pageURL", "pageRank"], "rankings",
                       order_by="pageRank", k=k,
                       where=("avgDuration", ">", 10))),
    ]


def make_suite_engine(rankings: list[RankingRow],
                      uservisits: list[UserVisitRow],
                      config: DecaConfig | None = None,
                      layout: str = "auto") -> SqlEngine:
    """An engine with both §6.6 tables registered and cached."""
    engine = SqlEngine(config)
    engine.register_table("rankings", RANKINGS_SCHEMA, rankings)
    engine.register_table("uservisits", USERVISITS_SCHEMA, uservisits)
    engine.cache_table("rankings", layout=layout)
    engine.cache_table("uservisits", layout=layout)
    return engine


def run_sql_suite(rankings: list[RankingRow],
                  uservisits: list[UserVisitRow],
                  config: DecaConfig | None = None,
                  layout: str = "auto",
                  threshold: int = 100, prefix: int = 5,
                  k: int = 10) -> dict[str, QueryResult]:
    """Run the whole suite on one engine; maps query name -> result."""
    with make_suite_engine(rankings, uservisits, config,
                           layout=layout) as engine:
        return {name: engine.run(query)
                for name, query in suite_queries(threshold, prefix, k)}
