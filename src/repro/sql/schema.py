"""Table schemas for the mini SQL engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Sequence

from ..analysis.udt import (BYTE, CHAR, DOUBLE, INT, LONG, ArrayType,
                            ClassType, Field)
from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types (the Big Data Benchmark schema needs these).

    ``OPAQUE`` holds byte payloads the analysis cannot see into (blobs a
    UDF serialized itself); relations carrying one are not fixed-schema,
    so the optimizer falls back to the row-major layout for them.
    """

    INT = "int"
    LONG = "long"
    DOUBLE = "double"
    STRING = "string"
    OPAQUE = "opaque"

    def validate(self, value: Any) -> None:
        accepted, expected = _ACCEPTS[self]
        if not isinstance(value, accepted) or (
                self in _INTEGRAL and isinstance(value, bool)):
            raise SchemaError(f"expected {expected}, got {value!r}")


#: Per column type, the classes its values must be instances of and the
#: word a refusal names; INT and LONG also refuse ``bool``, an ``int``
#: subclass.
_ACCEPTS: dict[ColumnType, tuple[type | tuple[type, ...], str]] = {
    ColumnType.INT: (int, "int"),
    ColumnType.LONG: (int, "int"),
    ColumnType.DOUBLE: ((int, float), "number"),
    ColumnType.STRING: (str, "str"),
    ColumnType.OPAQUE: ((bytes, bytearray), "bytes"),
}
_INTEGRAL = (ColumnType.INT, ColumnType.LONG)

#: The analysis primitive of each fixed-width column type — the one map
#: both a relation's UDT (:func:`table_udt`, what the optimizer plans)
#: and its row-major record
#: (:func:`~repro.sql.columnar.row_major_schema`, what a cached table
#: lays out) are built from.
COLUMN_PRIMITIVES = {
    ColumnType.INT: INT,
    ColumnType.LONG: LONG,
    ColumnType.DOUBLE: DOUBLE,
}


@dataclass(frozen=True)
class Column:
    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name cannot be empty")


class TableSchema:
    """An ordered list of named, typed columns."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise SchemaError(f"duplicate column names in {name!r}")
        self._udt: ClassType | None = None   # built by table_udt

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def validate_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} != {len(self.columns)} "
                f"for table {self.name!r}")
        for column, value in zip(self.columns, row):
            column.ctype.validate(value)

    def validate_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """:meth:`validate_row` on every row, a column at a time.

        One C-level pass checks every row's arity and one more each
        column's types (two for INT and LONG); only when a pass fails does
        the per-row loop run, so the error raised, and its message, is the
        one that loop meets first.
        """
        try:
            conform = self._rows_conform(rows)
        except (TypeError, LookupError):   # a row without len() or [i]
            conform = False
        if not conform:
            for row in rows:
                self.validate_row(row)

    def _rows_conform(self, rows: Sequence[Sequence[Any]]) -> bool:
        if not all(map(len(self.columns).__eq__, map(len, rows))):
            return False
        for index, column in enumerate(self.columns):
            cell = itemgetter(index)
            if not all(map(isinstance, map(cell, rows),
                           repeat(_ACCEPTS[column.ctype][0]))):
                return False
            if column.ctype in _INTEGRAL and any(
                    map(isinstance, map(cell, rows), repeat(bool))):
                return False
        return True

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"


def table_udt(schema: TableSchema) -> ClassType:
    """The analysis UDT of a SQL relation, synthesized once per schema.

    One final field per column: fixed-width columns map to primitives,
    strings to char arrays (RFSTs, like a JVM String's backing array),
    and opaque payloads to an array with a *polymorphic* element type-set
    — the analysis cannot prove anything about their contents, which is
    what pushes the optimizer's layout decision to row-major.

    The schema keeps the type it got first: every field added to a new
    ``ClassType`` bumps the type-graph epoch, which makes each footprint
    measurer compiled in the process recompile on its next call.
    """
    if schema._udt is None:
        schema._udt = _relation_udt(schema)
    return schema._udt


def _relation_udt(schema: TableSchema) -> ClassType:
    fields: list[Field] = []
    for column in schema.columns:
        primitive = COLUMN_PRIMITIVES.get(column.ctype)
        if primitive is not None:
            fields.append(Field(column.name, primitive, final=True))
        elif column.ctype is ColumnType.STRING:
            fields.append(Field(column.name, ArrayType(CHAR), final=True))
        else:
            fields.append(Field(
                column.name,
                ArrayType(BYTE, element_type_set=(BYTE, CHAR)),
                final=True))
    return ClassType(f"SqlRelation_{schema.name}", fields)


RANKINGS_SCHEMA = TableSchema("rankings", [
    Column("pageURL", ColumnType.STRING),
    Column("pageRank", ColumnType.INT),
    Column("avgDuration", ColumnType.INT),
])

USERVISITS_SCHEMA = TableSchema("uservisits", [
    Column("sourceIP", ColumnType.STRING),
    Column("destURL", ColumnType.STRING),
    Column("visitDate", ColumnType.INT),
    Column("adRevenue", ColumnType.DOUBLE),
    Column("userAgent", ColumnType.STRING),
    Column("countryCode", ColumnType.STRING),
    Column("languageCode", ColumnType.STRING),
    Column("searchWord", ColumnType.STRING),
    Column("duration", ColumnType.INT),
])
