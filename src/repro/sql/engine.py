"""The mini SQL engine: batch kernels over decomposed column pages.

Covers the two exploratory queries of §6.6::

    SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100;

    SELECT SUBSTR(sourceIP, 1, 5), SUM(adRevenue)
    FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 5);

plus scan / top-k shapes, expressed through a small structured-query API
(:func:`select` / :func:`groupby_sum` / :func:`top_k`).  Execution is
columnar by default: predicates run as per-column loops over typed
zero-copy views, projections as per-column gathers, and aggregation zips
a key column against a value column — no row objects are reconstructed.
The planner (:func:`repro.core.optimizer.plan_sql_layout`) makes each
relation's :class:`~repro.core.plan.ContainerPlan`, whose strategy names
the layout; opaque relations fall back to row-major kernels that pay the
record-reconstruction cost on every read.

The engine runs on the first executor of its own ``DecaContext`` and
charges every tick there, pricing a query as the Spark SQL plan it
stands for with one partition per task slot (Spark's default
parallelism): a scan and a filter, or a partial aggregate, an exchange
and a final aggregate.  Cached relations are ordinary Deca page groups:
they are charged to its arena (per ``memory_mode``) and swap through its
cold tier between queries — on the mmap tier as raw bytes adopted back
zero-copy, audited by the run's sanitizer; on the heap tier as counted
copies.  :meth:`SqlEngine.close` returns the run's ``RunMetrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..config import DecaConfig
from ..core.plan import StorageStrategy
from ..errors import SchemaError, SqlError
from ..jvm.objects import Lifetime
from ..simtime import ticks_to_ms
from ..spark.measure import measure_generic
from ..spark.context import DecaContext
from ..spark.metrics import RunMetrics
from .columnar import SELECTORS, ColumnarTable, PagedRelation, RowMajorTable
from .schema import ColumnType, TableSchema

_LAYOUTS = ("auto", "columnar", "row")


@dataclass(frozen=True)
class Filter:
    """``WHERE column <op> literal``."""

    column: str
    op: str
    literal: Any

    def __post_init__(self) -> None:
        if self.op not in SELECTORS:
            raise SqlError(f"unsupported operator {self.op!r}")


_AGGREGATE_FUNCS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
_NON_NUMERIC = (ColumnType.STRING, ColumnType.OPAQUE)


@dataclass(frozen=True)
class Aggregation:
    """``SELECT <key expr>, <func>(value) ... GROUP BY <key expr>``.

    *key_prefix* of ``None`` groups by the whole key column; *func* is one
    of SUM/COUNT/AVG/MIN/MAX (the aggregates Tungsten serializes, §7).
    """

    key_column: str
    value_column: str
    key_prefix: int | None = None
    func: str = "SUM"

    def __post_init__(self) -> None:
        if self.func not in _AGGREGATE_FUNCS:
            raise SqlError(f"unsupported aggregate {self.func!r}; "
                           f"choose from {_AGGREGATE_FUNCS}")
        if self.key_prefix is not None and self.key_prefix < 0:
            raise SqlError(f"negative SUBSTR length {self.key_prefix}")


@dataclass(frozen=True)
class Query:
    """One supported query shape against one table."""

    table: str
    projection: tuple[str, ...] = ()
    where: Filter | None = None
    aggregation: Aggregation | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.aggregation is None and not self.projection:
            raise SqlError("a non-aggregate query needs a projection")
        if self.aggregation is not None and (self.order_by is not None
                                             or self.limit is not None):
            raise SqlError("ORDER BY/LIMIT apply to scan queries only")
        if self.order_by is not None \
                and self.order_by not in self.projection:
            raise SqlError(
                f"ORDER BY column {self.order_by!r} must be projected")
        if self.limit is not None and self.limit < 0:
            raise SqlError(f"negative LIMIT {self.limit}")


def select(columns: Sequence[str], table: str,
           where: tuple[str, str, Any] | None = None) -> Query:
    """Build a projection/filter query (§6.6 Query 1 shape)."""
    condition = Filter(*where) if where is not None else None
    return Query(table=table, projection=tuple(columns), where=condition)


def top_k(columns: Sequence[str], table: str, order_by: str, k: int,
          descending: bool = True,
          where: tuple[str, str, Any] | None = None) -> Query:
    """Build a top-k query: filter, project, sort, keep *k* rows."""
    condition = Filter(*where) if where is not None else None
    return Query(table=table, projection=tuple(columns), where=condition,
                 order_by=order_by, descending=descending, limit=k)


def groupby_sum(table: str, key_column: str, value_column: str,
                key_prefix: int | None = None) -> Query:
    """Build a GroupBy-SUM query (§6.6 Query 2 shape)."""
    return Query(table=table,
                 aggregation=Aggregation(key_column, value_column,
                                         key_prefix))


def groupby_agg(table: str, func: str, key_column: str,
                value_column: str,
                key_prefix: int | None = None) -> Query:
    """Build a GroupBy query with any supported aggregate function."""
    return Query(table=table,
                 aggregation=Aggregation(key_column, value_column,
                                         key_prefix, func=func))


@dataclass
class QueryResult:
    """Rows plus the costs the engine charged."""

    rows: list[tuple]
    wall_ms: float
    gc_pause_ms: float


def _check_types(schema: TableSchema, query: Query) -> None:
    """Reject what the kernels would fail on or answer wrongly: a WHERE
    literal of another type than its column, SUM/AVG over text, SUBSTR
    of a non-string key."""
    where = query.where
    if where is not None:
        ctype = schema.column(where.column).ctype
        try:
            ctype.validate(where.literal)
        except SchemaError as exc:
            raise SqlError(f"WHERE {where.column}: {exc}") from None
    agg = query.aggregation
    if agg is None:
        return
    if agg.func in ("SUM", "AVG") \
            and schema.column(agg.value_column).ctype in _NON_NUMERIC:
        raise SqlError(f"{agg.func} needs a numeric column, "
                       f"not {agg.value_column!r}")
    if agg.key_prefix is not None \
            and schema.column(agg.key_column).ctype is not ColumnType.STRING:
        raise SqlError(f"SUBSTR needs a string column, "
                       f"not {agg.key_column!r}")


class SqlEngine:
    """The Spark SQL stand-in: paged relation cache + batch operators."""

    def __init__(self, config: DecaConfig | None = None) -> None:
        self.context = DecaContext(config)
        self.config = self.context.config
        executor = self.executor = self.context.executors[0]
        self.tracer = executor.tracer
        self.heap = executor.heap
        self.arena = executor.arena
        self.sanitizer = executor.sanitizer
        self.cold_tier = executor.cold_tier
        self._tables: dict[str, tuple[TableSchema, list]] = {}
        self._cached: dict[str, PagedRelation] = {}
        self._run: RunMetrics | None = None

    # -- catalog --------------------------------------------------------------
    def register_table(self, name: str, schema: TableSchema,
                       rows: Sequence[Sequence[Any]]) -> None:
        if name in self._tables:
            raise SqlError(f"table {name!r} already registered")
        self._tables[name] = (schema, list(rows))

    def cache_table(self, name: str,
                    layout: str = "auto") -> PagedRelation:
        """Materialize a table into the paged in-memory cache.

        *layout* is ``auto`` (ask the optimizer), ``columnar`` or
        ``row``.  The cached bytes are acquired from the executor's
        arena as storage; under pressure the arena evicts relations
        LRU-first through :meth:`_evict_for_arena`.
        """
        self._check_open()
        schema, rows = self._lookup(name)
        if layout not in _LAYOUTS:
            raise SqlError(f"unknown layout {layout!r}; "
                           f"choose from {_LAYOUTS}")
        cached = self._cached.get(name)
        if cached is not None:
            if not cached.resident:
                self._promote(name, cached)
            return cached
        if layout == "auto":
            from ..core.optimizer import plan_sql_layout
            columns = (plan_sql_layout(schema).strategy
                       is StorageStrategy.DECA_COLUMNS)
            layout = "columnar" if columns else "row"
        # Encoding cost: one pass over every cell, a quarter of a record
        # op each.
        self.executor.charge_compute(self.executor.prices.record_op
                                     * len(rows) * len(schema.columns) // 4)
        cls = ColumnarTable if layout == "columnar" else RowMajorTable
        table = cls(schema, rows, manager=self.executor.memory_manager,
                    group_name=f"sql:{name}")
        self._cached[name] = table
        self._charge(name, table)
        return table

    def uncache_table(self, name: str) -> None:
        table = self._cached.pop(name, None)
        if table is None:
            return
        self.arena.storage_discard(f"sql:{name}")
        table.release()
        self.cold_tier.drop(table.group_name)

    def _lookup(self, name: str) -> tuple[TableSchema, list]:
        try:
            return self._tables[name]
        except KeyError:
            raise SqlError(f"unknown table {name!r}") from None

    def _check_open(self) -> None:
        if self._run is not None:
            raise SqlError("the engine is closed")

    @property
    def cached_bytes(self) -> int:
        return sum(t.memory_bytes for t in self._cached.values())

    @property
    def swap_copy_bytes(self) -> int:
        """Serializer bytes copied during swaps: always 0 on the mmap
        tier (pages move as raw bytes), > 0 on the heap tier."""
        return self.executor.serializer.swap_copy_bytes_total

    def layout_of(self, name: str) -> str | None:
        """The cached relation's layout (None when not cached)."""
        table = self._cached.get(name)
        return table.layout if table is not None else None

    # -- arena accounting -----------------------------------------------------
    def _charge(self, name: str, table: PagedRelation) -> None:
        self.arena.storage_acquire(
            f"sql:{name}", table.memory_bytes,
            evict=lambda: self._evict_for_arena(name))

    def _evict_for_arena(self, name: str) -> None:
        """Arena pressure: demote the relation to the cold tier.

        Called by the arena's LRU eviction; the arena discards the
        storage entry itself afterwards.
        """
        table = self._cached.get(name)
        if table is not None and table.resident:
            self._demote(table)

    # -- cold-tier swaps ------------------------------------------------------
    @property
    def tier_stats(self) -> dict[str, int]:
        return self.cold_tier.snapshot()

    def demote_table(self, name: str) -> int:
        """Swap a cached relation out of RAM; returns bytes moved.

        The relation stays cached (non-resident) and the next query
        promotes it back.  On the mmap tier the pages move as raw bytes
        (0 when a promoted relation still aliases its extent); on the
        heap tier they are drained into counted serializer copies.
        """
        self._check_open()
        table = self._cached.get(name)
        if table is None or not table.resident:
            return 0
        self.arena.storage_discard(f"sql:{name}")
        return self._demote(table)

    def _demote(self, table: PagedRelation) -> int:
        return self.cold_tier.demote_group(table.group_name,
                                           table.detach(), 0)

    def _promote(self, name: str, table: PagedRelation) -> None:
        self.cold_tier.promote_group(table.group_name, table.reattach(), 0)
        self._charge(name, table)

    def close(self) -> RunMetrics:
        """Uncache every relation and finish the context: the run's
        metrics (tier snapshot, sanitizer audit), the same on every
        call.  A closed engine refuses to cache, demote or run."""
        if self._run is None:
            for name in list(self._cached):
                self.uncache_table(name)
            self._run = self.context.finish()
        return self._run

    def __enter__(self) -> "SqlEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def sql(self, statement: str) -> QueryResult:
        """Parse and run a SQL statement (the §6.6 dialect)."""
        from .parser import parse
        return self.run(parse(statement))

    # -- execution --------------------------------------------------------------
    def run(self, query: Query) -> QueryResult:
        self._check_open()
        _check_types(self._lookup(query.table)[0], query)
        table = self.cache_table(query.table)   # promoted if demoted
        clock = self.executor.clock
        start = clock.ticks
        gc_start = self.heap.stats.pause_ticks
        if query.aggregation is not None:
            rows = self._run_aggregate(table, query.aggregation)
        else:
            rows = self._run_scan(table, query)
        return QueryResult(
            rows=rows, wall_ms=ticks_to_ms(clock.ticks - start),
            gc_pause_ms=ticks_to_ms(self.heap.stats.pause_ticks - gc_start))

    def _scan_cost_per_row(self, table: PagedRelation) -> int:
        """Cost of reading one predicate/key value: one column run when
        columnar; the whole record, boxed into a row tuple, when not."""
        prices = self.executor.prices
        if table.layout == "row":
            width = len(table.schema.columns)
            return prices.page_access * width + prices.boxing
        return prices.page_access

    def _run_scan(self, table: PagedRelation,
                  query: Query) -> list[tuple]:
        prices = self.executor.prices
        charge = self.executor.charge_compute
        count = table.row_count
        matches: Sequence[int]
        if query.where is not None:
            condition = query.where
            column = table.column(condition.column)
            # Columnar: one bulk predicate pass over the typed view.
            # Row-major: the same predicate, but every probe
            # reconstructs a record.
            charge(self._scan_cost_per_row(table) * count)
            matches = column.select(condition.op, condition.literal)
        else:
            matches = range(count)
        per_row = (self._scan_cost_per_row(table) if table.layout == "row"
                   else prices.page_access * max(1, len(query.projection)))
        charge(per_row * len(matches))
        # Result rows are short-lived driver objects.  The simulated
        # engine materializes every match before it sorts, so the
        # charges below stay functions of len(matches) even though the
        # real kernel gathers late.
        temp = self.heap.new_group("sql-result", Lifetime.TEMPORARY)
        self.heap.allocate(temp, len(matches), 48 * max(1, len(matches)))
        self.heap.free_group(temp)
        if query.order_by is not None:
            charge(prices.sort_per_record * len(matches))
            # Late materialization: order row ids on the key column
            # alone and project only the rows that survive LIMIT.
            keys = table.column(query.order_by).gather(matches)
            ctype = table.schema.column(query.order_by).ctype
            order = _ordered_rows(keys, query.descending, query.limit,
                                  ctype is ColumnType.DOUBLE)
            matches = [matches[i] for i in order]
        else:
            matches = matches[:query.limit]
        return table.gather(matches, query.projection)

    def _run_aggregate(self, table: PagedRelation,
                       agg: Aggregation) -> list[tuple]:
        prices = self.executor.prices
        schema = table.schema
        key_col = table.column(agg.key_column)
        value_col = table.column(agg.value_column)
        # The partial aggregates: read the key and the value, evaluate
        # SUBSTR (a new string per row) and hash into a buffer of
        # primitive accumulators (Tungsten-style), not boxed objects.
        per_row = self._scan_cost_per_row(table) * 2 + prices.hash_probe
        if agg.key_prefix is not None:
            per_row += prices.object_alloc
        self.executor.charge_compute(per_row * table.row_count)
        if agg.key_prefix is not None:
            keys = key_col.prefix_values(agg.key_prefix)
        else:
            keys = key_col.values()
        nan = None
        if schema.column(agg.key_column).ctype is ColumnType.DOUBLE:
            keys, nan = _one_nan_key(keys)
        func = agg.func
        if func == "COUNT":
            acc: dict[Any, Any] = _fold_count(keys)
        elif func in ("SUM", "AVG"):
            # The fold starts from the additive identity of the column's
            # type: -0.0 leaves every float (-0.0 included) unchanged,
            # and 0 keeps INT/LONG sums exact ints.
            zero = (-0.0 if schema.column(agg.value_column).ctype
                    is ColumnType.DOUBLE else 0)
            acc = _fold_sum(keys, value_col.values(), zero)
            if func == "AVG":
                counts = _fold_count(keys)
                acc = {key: total / counts[key]
                       for key, total in acc.items()}
        else:
            acc = _fold_extreme(keys, value_col.values(),
                                min if func == "MIN" else max)
        self._charge_exchange(acc)
        # One 56-byte buffer slot per group, in first-seen order: the
        # fold neither allocates nor advances the clock, so booking
        # after it leaves the heap's call and event sequence unchanged.
        buffer_group = self.heap.new_group("sql-agg-buffer",
                                           Lifetime.PINNED)
        for _ in acc:
            self.heap.allocate(buffer_group, 1, 56)
        self.heap.free_group(buffer_group)
        if nan is None:
            return sorted(acc.items())
        nan_result = acc.pop(nan)
        return sorted(acc.items()) + [(nan, nan_result)]

    def _charge_exchange(self, acc: dict[Any, Any]) -> None:
        """The shuffle of P partitions' G partial groups each, then the
        final aggregate's hash probe per partial row: P² blocks priced
        with :mod:`repro.spark.shuffle`'s per-block disk-write, disk-read
        and network formulas, summed in closed form.  A block is remote
        unless both partitions share an executor; one row sets the row
        width."""
        prices = self.executor.prices
        slots = self.config.tasks_per_executor
        parts = self.config.num_executors * slots
        remote = parts - slots
        groups = len(acc)
        width = measure_generic(next(iter(acc.items()), ())).serialized_bytes
        self.executor.charge_compute(
            parts * parts * 2 * prices.disk_seek
            + parts * groups * width * (prices.disk_write_per_byte
                                        + prices.disk_read_per_byte)
            + parts * remote * prices.network_rtt
            + remote * groups * width * prices.network_per_byte
            + parts * groups * prices.hash_probe)


# -- aggregate folds ----------------------------------------------------------
# Each fold visits the rows in order and keeps one value per group in a
# dict, so a group's floats are combined in row order on both layouts and
# its slot is created on the key's first appearance (first-seen order).

def _fold_sum(keys: Sequence[Any], values: Sequence[Any],
              zero: Any) -> dict[Any, Any]:
    acc: dict[Any, Any] = {}
    get = acc.get
    for key, value in zip(keys, values):
        acc[key] = get(key, zero) + value
    return acc


def _fold_count(keys: Sequence[Any]) -> dict[Any, int]:
    acc: dict[Any, int] = {}
    get = acc.get
    for key in keys:
        acc[key] = get(key, 0) + 1
    return acc


def _fold_extreme(keys: Sequence[Any], values: Sequence[Any],
                  pick: Callable[[Any, Any], Any]) -> dict[Any, Any]:
    """MIN (*pick* = ``min``) or MAX (``max``): a value replaces the held
    one only when strictly smaller (larger), so a NaN that comes first is
    kept, a later NaN is not, and of ``-0.0`` and ``0.0`` the first stays."""
    acc: dict[Any, Any] = {}
    get = acc.get
    for key, value in zip(keys, values):
        acc[key] = pick(get(key, value), value)
    return acc


def _one_nan_key(keys: list[Any]) -> tuple[list[Any], Any]:
    """Fold every NaN key of a DOUBLE column into one group, as Spark SQL
    does: each NaN row is replaced by the first NaN object, which a dict
    finds by identity.  Returns the keys and that NaN (``None`` if none)."""
    nan = next((key for key in keys if key != key), None)
    if nan is None:
        return keys, None
    return [nan if key != key else key for key in keys], nan


def _ordered_rows(keys: Sequence[Any], descending: bool,
                  limit: int | None, may_hold_nan: bool) -> list[int]:
    """Indexes into *keys* in ORDER BY order, cut to *limit*.

    Ties keep row order in either direction: ``heapq.nlargest`` /
    ``nsmallest`` equal ``sorted(...)[:k]``, which is stable under
    ``reverse=True`` too, and with no *limit* they take every row.  On
    a DOUBLE column NaN is the largest value, as in Spark: the NaN rows
    are split out first, in row order, and go last ascending and first
    descending, which also leaves the selection a total order to work
    on.
    """
    rows: Sequence[int] = range(len(keys))
    nans: list[int] = []
    if may_hold_nan:
        nans = [row for row in rows if keys[row] != keys[row]]
        if nans:
            rows = [row for row in rows if keys[row] == keys[row]]
    if limit is None:
        limit = len(keys)
    import heapq   # first loaded by a query, not by the engine import
    if descending:
        head = nans[:limit]
        return head + heapq.nlargest(limit - len(head), rows,
                                     key=keys.__getitem__)
    ordered = heapq.nsmallest(limit, rows, key=keys.__getitem__)
    return ordered + nans[:limit - len(ordered)]
