"""Table schemas for the mini SQL engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import SchemaError

if TYPE_CHECKING:
    from ..analysis.udt import ClassType


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
        if self is ColumnType.STRING:
            if not isinstance(value, str):
                raise SchemaError(f"expected str, got {value!r}")
        elif self is ColumnType.OPAQUE:
            if not isinstance(value, (bytes, bytearray)):
                raise SchemaError(f"expected bytes, got {value!r}")
        elif self is ColumnType.DOUBLE:
            if not isinstance(value, (int, float)):
                raise SchemaError(f"expected number, got {value!r}")
        else:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"expected int, got {value!r}")


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

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"


def table_udt(schema: TableSchema) -> "ClassType":
    """Synthesize the analysis UDT for a SQL relation.

    One final field per column: fixed-width columns map to primitives,
    strings to char arrays (RFSTs, like a JVM String's backing array),
    and opaque payloads to an array with a *polymorphic* element type-set
    — the analysis cannot prove anything about their contents, which is
    what pushes the optimizer's layout decision to row-major.
    """
    from ..analysis.udt import (
        BYTE,
        CHAR,
        DOUBLE,
        INT,
        LONG,
        ArrayType,
        ClassType,
        Field,
    )
    primitives = {ColumnType.INT: INT, ColumnType.LONG: LONG,
                  ColumnType.DOUBLE: DOUBLE}
    fields: list[Field] = []
    for column in schema.columns:
        primitive = primitives.get(column.ctype)
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
