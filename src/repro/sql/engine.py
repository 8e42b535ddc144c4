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
The optimizer (:func:`repro.core.optimizer.plan_sql_layout`) picks the
layout per relation; opaque relations fall back to row-major kernels
that pay the record-reconstruction cost on every read.

Cached relations are ordinary Deca page groups: they are charged to the
engine's :class:`~repro.memory.unified.UnifiedMemoryManager` (with
``memory:acquire``/``memory:release`` trace events), demote to the mmap
cold tier by moving raw bytes (zero serializer bytes) and promote back
zero-copy, with the provenance ledger auditing the extents in sanitize
mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..config import DecaConfig
from ..errors import SqlError
from ..jvm.heap import SimHeap
from ..jvm.objects import Lifetime
from ..memory.manager import DecaMemoryManager
from ..memory.provenance import ProvenanceLedger
from ..memory.tier import PageStoreTier
from ..memory.unified import UnifiedMemoryManager
from ..obs.tracer import Tracer
from ..simtime import SimClock
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
    cached_bytes: int


class SqlEngine:
    """The Spark SQL stand-in: paged relation cache + batch operators."""

    def __init__(self, config: DecaConfig | None = None) -> None:
        self.config = config or DecaConfig()
        self.clock = SimClock()
        self.tracer = Tracer()
        self.heap = SimHeap(self.config, self.clock, "sql-engine")
        # Cached relations are charged to a real unified arena regardless
        # of memory_mode: the static arena has no storage ledger, and SQL
        # caches escaping memory accounting is exactly the bug this
        # engine used to have.
        self.arena = UnifiedMemoryManager(self.config, clock=self.clock,
                                          tracer=self.tracer)
        self.ledger: ProvenanceLedger | None = None
        if self.config.sanitize:
            self.ledger = ProvenanceLedger(tracer=self.tracer,
                                           clock=self.clock)
        self.memory_manager = DecaMemoryManager(self.config,
                                                heap=self.heap,
                                                arena=self.arena)
        self._tables: dict[str, tuple[TableSchema, list]] = {}
        self._cached: dict[str, PagedRelation] = {}
        self._arena_entries: set[str] = set()
        self._tier: PageStoreTier | None = None
        # Serializer bytes copied during swaps: always 0 on the mmap
        # tier (pages move as raw bytes), > 0 when the heap tier has to
        # drain-copy a relation out.
        self.swap_copy_bytes = 0

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
        ``row``.  The cached bytes are acquired from the unified arena
        (``memory:acquire``); under pressure the arena evicts relations
        LRU-first through :meth:`_evict_for_arena`.
        """
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
            layout = plan_sql_layout(schema).layout
        cpu = self.config.cpu
        # Encoding cost: one pass over every cell.
        self.clock.advance(
            cpu.record_op_ms * len(rows) * len(schema.columns) * 0.25)
        cls = ColumnarTable if layout == "columnar" else RowMajorTable
        table = cls(schema, rows, manager=self.memory_manager,
                    group_name=f"sql:{name}")
        self._cached[name] = table
        self._charge(name, table)
        return table

    def uncache_table(self, name: str) -> None:
        table = self._cached.pop(name, None)
        if table is None:
            return
        self._discharge(name)
        table.release()
        if table.tier_key is not None and self._tier is not None:
            self._tier.drop(table.tier_key)

    def _lookup(self, name: str) -> tuple[TableSchema, list]:
        try:
            return self._tables[name]
        except KeyError:
            raise SqlError(f"unknown table {name!r}") from None

    @property
    def cached_bytes(self) -> int:
        return sum(t.memory_bytes for t in self._cached.values())

    def layout_of(self, name: str) -> str | None:
        """The cached relation's layout (None when not cached)."""
        table = self._cached.get(name)
        return table.layout if table is not None else None

    # -- arena accounting -----------------------------------------------------
    def _charge(self, name: str, table: PagedRelation) -> None:
        granted = self.arena.storage_acquire(
            f"sql:{name}", table.memory_bytes,
            evict=lambda: self._evict_for_arena(name))
        if granted:
            self._arena_entries.add(name)

    def _discharge(self, name: str) -> None:
        if name in self._arena_entries:
            self._arena_entries.discard(name)
            if self.arena.storage_contains(f"sql:{name}"):
                self.arena.storage_discard(f"sql:{name}")

    def _evict_for_arena(self, name: str) -> None:
        """Arena pressure: demote the relation (mmap) or drop it (heap).

        Called by the arena's LRU eviction; the arena discards the
        storage entry itself afterwards.
        """
        self._arena_entries.discard(name)
        table = self._cached.get(name)
        if table is None or not table.resident:
            return
        if self.config.cold_tier == "mmap":
            table.demote(self._ensure_tier())
        else:
            # The heap tier has no byte-addressed extents: dropping the
            # relation costs a serializer pass on the next rebuild.
            self.swap_copy_bytes += table.used_bytes
            self._cached.pop(name, None)
            table.release()

    # -- cold-tier swaps ------------------------------------------------------
    def _ensure_tier(self) -> PageStoreTier:
        if self._tier is None:
            self._tier = PageStoreTier(tracer=self.tracer,
                                       clock=self.clock, tag="sql",
                                       ledger=self.ledger)
        return self._tier

    @property
    def tier_stats(self) -> dict[str, int] | None:
        if self._tier is None:
            return None
        return self._tier.stats.to_dict()

    def demote_table(self, name: str) -> int:
        """Swap a cached relation out of RAM; returns bytes moved.

        On the mmap tier the pages move as raw bytes and the relation
        stays cached (non-resident); on the heap tier the relation is
        dropped and its bytes counted as serializer copies.
        """
        table = self._cached.get(name)
        if table is None or not table.resident:
            return 0
        self._discharge(name)
        if self.config.cold_tier != "mmap":
            moved = table.used_bytes
            self.swap_copy_bytes += moved
            self._cached.pop(name, None)
            table.release()
            return moved
        return table.demote(self._ensure_tier())

    def _promote(self, name: str, table: PagedRelation) -> None:
        if self._tier is None or table.tier_key is None:
            raise SqlError(
                f"cached table {name!r} has no cold-tier extent")
        table.promote(self._tier, ledger=self.ledger)
        self._charge(name, table)

    def close(self) -> None:
        """Release every cached relation and the cold tier's file."""
        for name in list(self._cached):
            self.uncache_table(name)
        if self._tier is not None:
            self._tier.close()
            self._tier = None

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
        self._lookup(query.table)
        table = self._cached.get(query.table)
        if table is not None and not table.resident:
            self._promote(query.table, table)
        else:
            table = self.cache_table(query.table)
        start_ms = self.clock.now_ms
        gc_start = self.heap.stats.pause_ms
        if query.aggregation is not None:
            rows = self._run_aggregate(table, query.aggregation)
        else:
            rows = self._run_scan(table, query)
        return QueryResult(
            rows=rows,
            wall_ms=self.clock.now_ms - start_ms,
            gc_pause_ms=self.heap.stats.pause_ms - gc_start,
            cached_bytes=self.cached_bytes,
        )

    def _scan_cost_per_row(self, table: PagedRelation) -> float:
        """Bytes-touched cost of reading one predicate/key value.

        Columnar reads touch exactly one column run; row-major reads
        must walk the whole record (every column's bytes) and box the
        fields into a row tuple first.
        """
        cpu = self.config.cpu
        if table.layout == "row":
            width = len(table.schema.columns)
            return cpu.page_access_ms * width + cpu.boxing_ms
        return cpu.page_access_ms

    def _run_scan(self, table: PagedRelation,
                  query: Query) -> list[tuple]:
        cpu = self.config.cpu
        count = table.row_count
        matches: Sequence[int]
        if query.where is not None:
            condition = query.where
            column = table.column(condition.column)
            # Columnar: one bulk predicate pass over the typed view.
            # Row-major: the same predicate, but every probe
            # reconstructs a record.
            self.clock.advance(self._scan_cost_per_row(table) * count)
            matches = column.select(condition.op, condition.literal)
        else:
            matches = range(count)
        if table.layout == "row":
            per_row = (cpu.page_access_ms * len(table.schema.columns)
                       + cpu.boxing_ms)
        else:
            per_row = cpu.page_access_ms * max(1, len(query.projection))
        self.clock.advance(per_row * len(matches))
        # Result rows are short-lived driver objects.  The simulated
        # engine materializes every match before it sorts, so the
        # charges below stay functions of len(matches) even though the
        # real kernel gathers late.
        temp = self.heap.new_group("sql-result", Lifetime.TEMPORARY)
        self.heap.allocate(temp, len(matches), 48 * max(1, len(matches)))
        self.heap.free_group(temp)
        if query.order_by is not None:
            self.clock.advance(cpu.sort_per_record_ms * len(matches))
            # Late materialization: sort row ids on the key column
            # alone (stable, so ties keep row order under either
            # direction) and project only the rows that survive LIMIT.
            keys = table.column(query.order_by).gather(matches)
            order = sorted(range(len(keys)), key=keys.__getitem__,
                           reverse=query.descending)
            matches = [matches[i] for i in order[:query.limit]]
        else:
            matches = matches[:query.limit]
        return table.gather(matches, query.projection)

    def _run_aggregate(self, table: PagedRelation,
                       agg: Aggregation) -> list[tuple]:
        cpu = self.config.cpu
        key_col = table.column(agg.key_column)
        value_col = table.column(agg.value_column)
        key_type = table.schema.column(agg.key_column).ctype
        if agg.key_prefix is not None \
                and key_type is not ColumnType.STRING:
            raise SqlError("SUBSTR needs a string column")
        # One zipped pass over the key and value columns; the
        # aggregation buffer holds primitive accumulators
        # (Tungsten-style), not boxed objects.
        count = table.row_count
        if table.layout == "row":
            per_row = (self._scan_cost_per_row(table) * 2
                       + cpu.hash_probe_ms)
        else:
            per_row = cpu.page_access_ms * 2 + cpu.hash_probe_ms
        self.clock.advance(per_row * count)
        buffer_group = self.heap.new_group("sql-agg-buffer",
                                           Lifetime.PINNED)
        if agg.key_prefix is not None:
            keys = key_col.prefix_values(agg.key_prefix)
        else:
            keys = key_col.values()
        # Accumulators: (sum, count, min, max) cover every function.
        acc: dict[Any, list] = {}
        for key, value in zip(keys, value_col.values()):
            slot = acc.get(key)
            if slot is None:
                acc[key] = [value, 1, value, value]
                self.heap.allocate(buffer_group, 1, 56)
            else:
                slot[0] += value
                slot[1] += 1
                if value < slot[2]:
                    slot[2] = value
                if value > slot[3]:
                    slot[3] = value
        self.heap.free_group(buffer_group)
        out = []
        for key, (total, n, low, high) in acc.items():
            if agg.func == "SUM":
                result: Any = total
            elif agg.func == "COUNT":
                result = n
            elif agg.func == "AVG":
                result = total / n
            elif agg.func == "MIN":
                result = low
            else:
                result = high
            out.append((key, result))
        return sorted(out)
