"""Cached SQL relations as lifetime-decomposed Deca pages.

The Spark SQL in-memory cache and the decomposition layer used to be two
parallel stores; this module fuses them (ROADMAP item 3).  A cached
relation is one :class:`~repro.memory.page.PageGroup` allocated through
the executor's page manager:

* **column-major** (:class:`ColumnarTable`): one contiguous page run per
  column (offsets + blob runs for strings), read through typed zero-copy
  views (``memoryview.cast``) — the structure-of-arrays organization of
  Sparkle fused onto Deca pages;
* **row-major** (:class:`RowMajorTable`): the existing record layout of
  :mod:`repro.memory.layout`, one packed record per row — the fallback
  the optimizer picks for opaque relations.

Because both are plain page groups, everything built for Deca pages
applies to SQL caches for free: the unified arena charges them, the mmap
cold tier swaps them by moving raw bytes (zero serializer bytes), and the
provenance ledger tracks promoted extents as borrows.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterable, Sequence

from ..analysis.udt import CHAR, DOUBLE, INT, LONG
from ..errors import MemoryLayoutError, SchemaError, SqlError
from ..jvm.heap import SimHeap
from ..memory.layout import (
    FixedColumnLayout,
    PrimitiveSlot,
    RecordSchema,
    StringColumnLayout,
    StringRunView,
    VarArraySchema,
)
from ..memory.manager import DecaMemoryManager
from ..memory.page import PageGroup, PagePointer
from ..memory.provenance import ProvenanceLedger
from ..memory.tier import PageStoreTier
from .schema import ColumnType, TableSchema

# Page size for standalone (manager-less) tables; irrelevant for sizing
# because column runs and records always allocate exactly-sized pages via
# the group, but PageGroup requires a positive default.
_DEFAULT_PAGE_BYTES = 64 * 1024

_FIXED_CODES = {
    ColumnType.INT: "i",
    ColumnType.LONG: "q",
    ColumnType.DOUBLE: "d",
}

# The analysis primitives backing each fixed-width SQL type (row-major
# records reuse the decomposition schemas of repro.memory.layout).
_ROW_PRIMITIVES = {
    ColumnType.INT: INT,
    ColumnType.LONG: LONG,
    ColumnType.DOUBLE: DOUBLE,
}


# ``WHERE column <op> literal``: one whole-column pass per operator with
# the comparison inlined, so the predicate costs no call per row.
SELECTORS: dict[str, Callable[[Iterable[Any], Any], list[int]]] = {
    ">": lambda values, x: [r for r, v in enumerate(values) if v > x],
    ">=": lambda values, x: [r for r, v in enumerate(values) if v >= x],
    "<": lambda values, x: [r for r, v in enumerate(values) if v < x],
    "<=": lambda values, x: [r for r, v in enumerate(values) if v <= x],
    "=": lambda values, x: [r for r, v in enumerate(values) if v == x],
    "==": lambda values, x: [r for r, v in enumerate(values) if v == x],
    "!=": lambda values, x: [r for r, v in enumerate(values) if v != x],
}


def row_major_schema(schema: TableSchema) -> RecordSchema:
    """The record (row-major) layout schema for a SQL relation.

    Strings and opaque byte payloads become var-length char arrays —
    exactly how the decomposition layer lays out a JVM string's backing
    array.
    """
    fields: list[tuple[str, Any]] = []
    for column in schema.columns:
        primitive = _ROW_PRIMITIVES.get(column.ctype)
        if primitive is not None:
            fields.append((column.name, PrimitiveSlot(primitive)))
        else:
            fields.append((column.name, VarArraySchema(PrimitiveSlot(CHAR))))
    return RecordSchema(schema.name, fields)


class PagedRelation:
    """Base of both cached-relation layouts: one page group + swap state.

    The group is created through the executor's
    :class:`~repro.memory.manager.DecaMemoryManager` when one is given
    (the engine path) or standalone against a plain heap (the unit-test
    path).  ``tier_key`` survives a demote so a re-demote of promoted
    pages moves zero bytes, mirroring the cache manager's protocol.
    """

    layout = "paged"
    row_count = 0

    def __init__(self, schema: TableSchema,
                 heap: SimHeap | None = None,
                 manager: DecaMemoryManager | None = None,
                 group_name: str | None = None) -> None:
        self.schema = schema
        self._heap = heap
        self._manager = manager
        self.group_name = group_name or f"sql:{schema.name}"
        self.tier_key: str | None = None
        self._group: PageGroup | None = self._new_group()

    def _new_group(self) -> PageGroup:
        if self._manager is not None:
            return self._manager.new_page_group(
                self.group_name, page_bytes=_DEFAULT_PAGE_BYTES)
        return PageGroup(self.group_name, _DEFAULT_PAGE_BYTES,
                         heap=self._heap)

    # -- sizes ----------------------------------------------------------------
    @property
    def resident(self) -> bool:
        return self._group is not None and not self._group.reclaimed

    @property
    def memory_bytes(self) -> int:
        """Heap bytes held by the relation's pages (0 once demoted)."""
        if self._group is None or self._group.reclaimed:
            return 0
        return self._group.allocated_bytes

    @property
    def used_bytes(self) -> int:
        if self._group is None or self._group.reclaimed:
            return 0
        return self._group.used_bytes

    def _require_group(self) -> PageGroup:
        if self._group is None or self._group.reclaimed:
            raise SqlError(
                f"table {self.schema.name!r} is not resident; promote it "
                "from the cold tier first")
        return self._group

    # -- hooks the layouts provide -------------------------------------------
    def drop_views(self) -> None:
        """Release any typed views into the pages (no-op by default)."""

    def column(self, name: str) -> Any:
        """A batch column accessor (layout subclasses provide one)."""
        raise NotImplementedError

    def row(self, index: int) -> tuple:
        """Reconstruct one row (layout subclasses provide it)."""
        raise NotImplementedError

    def gather(self, rows: Sequence[int],
               columns: Sequence[str]) -> list[tuple]:
        """Project *columns* for *rows* (layout subclasses provide it)."""
        raise NotImplementedError

    # -- swap protocol --------------------------------------------------------
    def demote(self, tier: PageStoreTier) -> int:
        """Swap the relation's pages out to *tier* and reclaim them.

        The pages already are the wire format, so the extent write moves
        the raw bytes — no serializer runs.  Returns the bytes moved (0
        when the extent from a previous demote is still valid).
        """
        group = self._require_group()
        self.drop_views()
        moved = 0
        if self.tier_key is None:
            self.tier_key = f"sql:{self.schema.name}"
            moved = tier.swap_out(self.tier_key, group.swap_chunks())
        self._group = None
        group.reclaim()
        return moved

    def promote(self, tier: PageStoreTier,
                ledger: ProvenanceLedger | None = None) -> None:
        """Adopt the tier extent's bytes back as pages — zero copy.

        Pages are re-adopted in their original order, so every
        :class:`~repro.memory.page.PagePointer` held by the column
        accessors stays valid.  Under the sanitizer the extent borrow is
        retained against the new group.
        """
        if self.resident:
            return
        if self.tier_key is None:
            raise SqlError(
                f"table {self.schema.name!r} has no cold-tier extent")
        group = self._new_group()
        for view in tier.swap_in(self.tier_key):
            group.adopt_page(view)
        if ledger is not None:
            ledger.retain("extent", self.tier_key, group=group.name)
            group.ledger = ledger
        self._group = group

    def release(self) -> None:
        """Drop the cached pages (the relation's lifetime ends)."""
        group = self._group
        self._group = None
        if group is None or group.reclaimed:
            return
        self.drop_views()
        group.reclaim()

    def __repr__(self) -> str:
        state = "resident" if self.resident else "demoted"
        return (f"{type(self).__name__}({self.schema.name!r}, "
                f"rows={getattr(self, 'row_count', 0)}, "
                f"{self.memory_bytes} B, {state})")


# -- column-major ------------------------------------------------------------
class _FixedColumnReader:
    """Batch accessor over one fixed-width column run.

    Bulk reads are one ``tolist()`` over the typed view: a C loop that
    boxes the run once, into a list that dies with the query.
    """

    __slots__ = ("_table", "_index", "_layout", "count")

    def __init__(self, table: "ColumnarTable", index: int,
                 layout: FixedColumnLayout, count: int) -> None:
        self._table = table
        self._index = index
        self._layout = layout
        self.count = count

    def _view(self) -> memoryview:
        return self._table.typed_view(self._index)

    def get(self, row: int) -> Any:
        return self._view()[row]

    def values(self) -> list[Any]:
        return self._view().tolist()

    def select(self, op: str, literal: Any) -> list[int]:
        """Row indices where ``value <op> literal`` holds."""
        return SELECTORS[op](self.values(), literal)

    def gather(self, rows: Sequence[int]) -> list[Any]:
        view = self._view()
        if rows == range(self.count):
            return view.tolist()
        return [view[row] for row in rows]

    @property
    def nbytes(self) -> int:
        return self.count * self._layout.item_size


class _StringColumnReader:
    """Batch accessor over a string column's offsets + blob runs.

    Bulk reads go through :class:`StringRunView`'s one-decode-per-run
    methods; ``get``/``get_prefix`` are the point-access API only.
    """

    __slots__ = ("_table", "_index", "count")

    def __init__(self, table: "ColumnarTable", index: int,
                 count: int) -> None:
        self._table = table
        self._index = index
        self.count = count

    def _view(self) -> StringRunView:
        return self._table.string_view(self._index)

    def get(self, row: int) -> str:
        return self._view().get(row)

    def get_prefix(self, row: int, length: int) -> str:
        """``SUBSTR(col, 1, length)`` without decoding the whole string."""
        return self._view().get_prefix(row, length)

    def values(self) -> list[str]:
        return self._view().values()

    def prefix_values(self, length: int) -> list[str]:
        return self._view().prefixes(length)

    def select(self, op: str, literal: Any) -> list[int]:
        return SELECTORS[op](self.values(), literal)

    def gather(self, rows: Sequence[int]) -> list[str]:
        view = self._view()
        if rows == range(self.count):
            return view.values()
        return view.take(rows)

    @property
    def nbytes(self) -> int:
        view = self._view()
        return len(view.blob) + len(view.offsets) * 4


class ColumnarTable(PagedRelation):
    """One relation cached column-major: one page run per column.

    Fixed-width columns occupy one run each; string columns occupy two
    (uint32 offsets + UTF-8 blob).  Reads go through typed zero-copy
    views that the table caches and releases before any demote or
    reclaim — a cast view left open would keep an adopted tier extent
    exported, which the sanitizer reports.
    """

    layout = "columnar"

    def __init__(self, schema: TableSchema,
                 rows: Sequence[Sequence[Any]],
                 heap: SimHeap | None = None,
                 manager: DecaMemoryManager | None = None,
                 group_name: str | None = None) -> None:
        for row in rows:
            schema.validate_row(row)
        # Plan every column before touching the page manager, so an
        # unsupported schema fails without leaking a registered group.
        layouts: list[FixedColumnLayout | StringColumnLayout] = []
        for column in schema.columns:
            code = _FIXED_CODES.get(column.ctype)
            if code is not None:
                layouts.append(FixedColumnLayout(code))
            elif column.ctype is ColumnType.STRING:
                layouts.append(StringColumnLayout())
            else:
                raise MemoryLayoutError(
                    f"column {schema.name}.{column.name} "
                    f"({column.ctype.value}) has no column-major layout")
        super().__init__(schema, heap=heap, manager=manager,
                         group_name=group_name)
        self.row_count = len(rows)
        self._layouts = layouts
        self._runs: list[tuple[PagePointer, ...]] = []
        self._readers: dict[int, Any] = {}
        self._view_cache: dict[int, Any] = {}
        group = self._require_group()
        for index, layout in enumerate(layouts):
            values = [row[index] for row in rows]
            if isinstance(layout, FixedColumnLayout):
                self._runs.append((group.append_run(layout.emit(values)),))
            else:
                offsets_run, blob_run = layout.emit(values)
                self._runs.append((group.append_run(offsets_run),
                                   group.append_run(blob_run)))

    @property
    def run_count(self) -> int:
        """Contiguous page runs (= pages = heap objects) the table holds."""
        return sum(len(runs) for runs in self._runs)

    # -- typed views ----------------------------------------------------------
    def typed_view(self, index: int) -> memoryview:
        cached = self._view_cache.get(index)
        if cached is not None:
            return cached
        group = self._require_group()
        layout = self._layouts[index]
        assert isinstance(layout, FixedColumnLayout)
        (ptr,) = self._runs[index]
        page = group.page(ptr.page_index)
        view = layout.view(page.data, ptr.offset, ptr.length)
        self._view_cache[index] = view
        return view

    def string_view(self, index: int) -> StringRunView:
        cached = self._view_cache.get(index)
        if cached is not None:
            return cached
        group = self._require_group()
        layout = self._layouts[index]
        assert isinstance(layout, StringColumnLayout)
        offsets_ptr, blob_ptr = self._runs[index]
        offsets_page = group.page(offsets_ptr.page_index)
        blob_page = group.page(blob_ptr.page_index)
        view = layout.view(offsets_page.data, offsets_ptr.offset,
                           offsets_ptr.length,
                           blob_page.data, blob_ptr.offset,
                           blob_ptr.length)
        self._view_cache[index] = view
        return view

    def drop_views(self) -> None:
        """Release every cached typed view (before demote/reclaim)."""
        views = list(self._view_cache.values())
        self._view_cache = {}
        for view in views:
            try:
                view.release()
            except BufferError:
                pass

    # -- access ---------------------------------------------------------------
    def column(self, name: str) -> Any:
        index = self.schema.column_index(name)
        reader = self._readers.get(index)
        if reader is None:
            layout = self._layouts[index]
            if isinstance(layout, FixedColumnLayout):
                reader = _FixedColumnReader(self, index, layout,
                                            self.row_count)
            else:
                reader = _StringColumnReader(self, index, self.row_count)
            self._readers[index] = reader
        return reader

    def row(self, index: int) -> tuple:
        if not 0 <= index < self.row_count:
            raise SchemaError(f"row {index} out of range")
        return tuple(self.column(c.name).get(index)
                     for c in self.schema.columns)

    def gather(self, rows: Sequence[int],
               columns: Sequence[str]) -> list[tuple]:
        """Batch projection: one gather per column, zipped into tuples."""
        pulled = [self.column(name).gather(rows) for name in columns]
        return list(zip(*pulled)) if pulled else [() for _ in rows]


# -- row-major ---------------------------------------------------------------
class _RowColumnReader:
    """Column access over a row-major relation — every read reconstructs
    the whole record, which is exactly the cost columnar layout avoids."""

    __slots__ = ("_table", "_index", "count")

    def __init__(self, table: "RowMajorTable", index: int,
                 count: int) -> None:
        self._table = table
        self._index = index
        self.count = count

    def get(self, row: int) -> Any:
        return self._table.row(row)[self._index]

    def get_prefix(self, row: int, length: int) -> str:
        return self.get(row)[:length]

    def values(self) -> list[Any]:
        return [self.get(row) for row in range(self.count)]

    def prefix_values(self, length: int) -> list[str]:
        return [self.get(row)[:length] for row in range(self.count)]

    def select(self, op: str, literal: Any) -> list[int]:
        return SELECTORS[op](self.values(), literal)

    def gather(self, rows: Sequence[int]) -> list[Any]:
        return [self.get(row) for row in rows]

    @property
    def nbytes(self) -> int:
        return 0  # interleaved with every other column's bytes


class RowMajorTable(PagedRelation):
    """One relation cached row-major: one packed record per row.

    This is the decomposition layer's record layout applied unchanged —
    the fallback for opaque relations the column planner rejects.
    Strings (and opaque byte payloads) are stored as var-length char
    arrays inside each record.
    """

    layout = "row"

    def __init__(self, schema: TableSchema,
                 rows: Sequence[Sequence[Any]],
                 heap: SimHeap | None = None,
                 manager: DecaMemoryManager | None = None,
                 group_name: str | None = None) -> None:
        for row in rows:
            schema.validate_row(row)
        super().__init__(schema, heap=heap, manager=manager,
                         group_name=group_name)
        self.row_count = len(rows)
        self.record_schema = row_major_schema(schema)
        self._readers: dict[int, _RowColumnReader] = {}
        group = self._require_group()
        self._pointers = [
            group.append_bytes(
                self.record_schema.pack(self._encode(row)))
            for row in rows]
        # A cached relation never appends again: give the unused tail of
        # the last page back (the §2.3 "large unused memory spaces").
        group.trim()

    def _encode(self, row: Sequence[Any]) -> tuple:
        out = []
        for column, value in zip(self.schema.columns, row):
            if column.ctype in _ROW_PRIMITIVES:
                out.append(value)
            elif isinstance(value, str):
                # UTF-16 code units, as on the JVM: an astral character
                # is a surrogate pair, not one out-of-range unit.
                units = value.encode("utf-16-le", "surrogatepass")
                out.append(struct.unpack(f"<{len(units) // 2}H", units))
            else:
                out.append(tuple(value))  # opaque byte payload
        return tuple(out)

    def _decode(self, packed: tuple) -> tuple:
        out = []
        for column, value in zip(self.schema.columns, packed):
            if column.ctype in _ROW_PRIMITIVES:
                out.append(value)
            elif column.ctype is ColumnType.STRING:
                out.append(struct.pack(f"<{len(value)}H", *value)
                           .decode("utf-16-le", "surrogatepass"))
            else:
                out.append(bytes(value))
        return tuple(out)

    def row(self, index: int) -> tuple:
        if not 0 <= index < self.row_count:
            raise SchemaError(f"row {index} out of range")
        group = self._require_group()
        buffer, offset = group.read(self._pointers[index])
        value, _ = self.record_schema.unpack_from(buffer, offset)
        return self._decode(value)

    def column(self, name: str) -> _RowColumnReader:
        index = self.schema.column_index(name)
        reader = self._readers.get(index)
        if reader is None:
            reader = _RowColumnReader(self, index, self.row_count)
            self._readers[index] = reader
        return reader

    def gather(self, rows: Sequence[int],
               columns: Sequence[str]) -> list[tuple]:
        """Row-at-a-time projection: each output row re-reads its record."""
        indexes = [self.schema.column_index(name) for name in columns]
        out = []
        for row in rows:
            record = self.row(row)
            out.append(tuple(record[i] for i in indexes))
        return out
