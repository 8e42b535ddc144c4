"""A mini columnar SQL engine — the Spark SQL baseline of Table 6.

Spark SQL caches tables in a serialized column-oriented format and (with
Tungsten) keeps aggregation buffers serialized too, so its GC footprint is
a handful of column arrays regardless of row count.  This package
reproduces that baseline fused onto Deca's decomposition layer: cached
relations are lifetime-grouped page groups (one contiguous page run per
column), query operators are batch kernels over typed zero-copy views,
and the engine runs on one executor of its own ``DecaContext``: the
caches are charged to its arena, swappable to its cold tier and audited
by the run's sanitizer like any other page group, and ``close()``
returns the run's ``RunMetrics``.  See ``docs/sql_engine.md``.

Example::

    engine = SqlEngine(config)
    engine.register_table("rankings", RANKINGS_SCHEMA, rows)
    engine.cache_table("rankings")
    result = engine.run(
        select(["pageURL", "pageRank"], "rankings",
               where=("pageRank", ">", 100)))
"""

from typing import Any

from .schema import Column, ColumnType, TableSchema, table_udt
from .columnar import ColumnarTable, PagedRelation, RowMajorTable
from .engine import (
    Aggregation,
    Filter,
    Query,
    QueryResult,
    SqlEngine,
    groupby_agg,
    groupby_sum,
    select,
    top_k,
)


def __getattr__(name: str) -> Any:
    # The text parser (and its compiled patterns) loads on first use: the
    # engine and the benchmark build their queries with the helpers above.
    if name == "parse":
        from .parser import parse
        return parse
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Column",
    "ColumnType",
    "TableSchema",
    "table_udt",
    "ColumnarTable",
    "PagedRelation",
    "RowMajorTable",
    "Aggregation",
    "Filter",
    "Query",
    "QueryResult",
    "SqlEngine",
    "groupby_agg",
    "groupby_sum",
    "select",
    "top_k",
    "parse",
]
