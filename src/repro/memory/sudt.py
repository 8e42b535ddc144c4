"""Synthesized UDT accessor classes — the paper's SUDTs (Appendix B).

For every decomposable UDT Deca generates a class whose ``this`` reference
is really ``(byte buffer, start offset)``: field reads/writes become buffer
accesses at computed offsets, method bodies operate on raw bytes, and no
per-record object graph exists.  :func:`synthesize_sudt` reproduces that
code generation in Python: given a :class:`~repro.memory.layout.RecordSchema`
it builds a new class with a property per field —

* primitive fields read/write the buffer in place;
* nested records return a nested SUDT accessor (sharing the buffer);
* arrays return an :class:`ArrayView` supporting indexing, iteration and
  in-place element writes — but never length changes, because an RFST's
  data-size is fixed once constructed (§3.1).

Accessors are flyweights (two slots), so scanning a page re-binds one
accessor instead of allocating per record.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import MemoryLayoutError, PageOverflowError
from .layout import (
    _STRUCT_CODES,
    FixedArraySchema,
    PrimitiveSlot,
    RecordSchema,
    Schema,
    VarArraySchema,
)


class ArrayView:
    """A mutable fixed-length view of a decomposed array."""

    __slots__ = ("_schema", "_element", "_buf", "_off", "_length",
                 "_data_off")

    def __init__(self, schema: FixedArraySchema | VarArraySchema,
                 buf, off: int) -> None:
        self._schema = schema
        self._element = schema.element
        self._buf = buf
        self._off = off
        if isinstance(schema, FixedArraySchema):
            self._length = schema.length
            self._data_off = off
        else:
            self._length = schema.length_at(buf, off)
            self._data_off = off + 4

    def __len__(self) -> int:
        return self._length

    def _element_offset(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._data_off + index * self._element.fixed_size

    def __getitem__(self, index: int) -> Any:
        value, _ = self._element.unpack_from(
            self._buf, self._element_offset(index))
        if isinstance(self._element, RecordSchema):
            return bind_accessor(self._element, self._buf,
                                 self._element_offset(index))
        return value

    def __setitem__(self, index: int, value: Any) -> None:
        self._element.pack_into(self._buf, self._element_offset(index),
                                value)

    def __iter__(self) -> Iterator[Any]:
        for i in range(self._length):
            yield self[i]

    def to_tuple(self) -> tuple:
        """Materialize the elements (a ``char[]``'s code units)."""
        if isinstance(self._element, RecordSchema):
            value, _ = self._schema.unpack_from(self._buf, self._off)
            return tuple(value)
        return tuple(self)

    def typed_view(self) -> memoryview:
        """A typed zero-copy view over the elements (``memoryview.cast``).

        Only primitive-element arrays have one; reads through it skip the
        per-element ``struct`` round-trip entirely, which is what the
        columnar SQL kernels scan.  The caller must release the view
        before the backing page group is reclaimed.
        """
        if not isinstance(self._element, PrimitiveSlot):
            raise MemoryLayoutError(
                "typed views exist only for primitive-element arrays")
        code = _STRUCT_CODES[self._element.primitive.name]
        nbytes = self._length * self._element.fixed_size
        raw = memoryview(self._buf)[self._data_off:self._data_off + nbytes]
        return raw.cast(code)

    def replace(self, values) -> None:
        """Overwrite all elements; the length must match exactly.

        Growing is forbidden: it would overwrite the next record in the
        page (the safety property of §3.1).
        """
        if len(values) != self._length:
            raise PageOverflowError(
                f"cannot resize decomposed array from {self._length} to "
                f"{len(values)} elements")
        for i, v in enumerate(values):
            self[i] = v


_ACCESSOR_CACHE: dict[int, type] = {}


class SudtClass:
    """Base class of every synthesized accessor.

    Instances are views: ``_buf`` is the backing buffer (a page's
    ``bytearray`` or ``memoryview``), ``_off`` the record's start offset.
    """

    __slots__ = ("_buf", "_off")
    _schema: RecordSchema  # set on synthesized subclasses

    def __init__(self, buf=None, off: int = 0) -> None:
        self._buf = buf
        self._off = off

    def bind(self, buf, off: int) -> "SudtClass":
        """Re-point this accessor at another record; returns self."""
        self._buf = buf
        self._off = off
        return self

    def data_size(self) -> int:
        """Byte size of the record this accessor is bound to."""
        schema = self._schema
        if schema.fixed_size is not None:
            return schema.fixed_size
        return schema.skip(self._buf, self._off) - self._off

    def to_tuple(self) -> tuple:
        """Materialize the record as a plain tuple (field order)."""
        value, _ = self._schema.unpack_from(self._buf, self._off)
        return value

    def write(self, value: tuple) -> None:
        """Overwrite the whole record with *value* (same layout size)."""
        schema = self._schema
        size = schema.size_of(value)
        old_size = self.data_size()
        if size != old_size:
            raise PageOverflowError(
                f"record size change {old_size} -> {size} would "
                "damage the page layout")
        schema.pack_into(self._buf, self._off, value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(off={self._off})"


def _make_property(index: int, name: str, schema: Schema):
    if isinstance(schema, PrimitiveSlot):
        def getter(self):
            off = self._schema.field_offset(self._buf, self._off, index)
            value, _ = schema.unpack_from(self._buf, off)
            return value

        def setter(self, value):
            off = self._schema.field_offset(self._buf, self._off, index)
            schema.pack_into(self._buf, off, value)

        return property(getter, setter, doc=f"primitive field {name!r}")

    if isinstance(schema, (FixedArraySchema, VarArraySchema)):
        def getter(self):
            off = self._schema.field_offset(self._buf, self._off, index)
            return ArrayView(schema, self._buf, off)

        return property(getter, doc=f"array field {name!r}")

    if isinstance(schema, RecordSchema):
        def getter(self):
            off = self._schema.field_offset(self._buf, self._off, index)
            return bind_accessor(schema, self._buf, off)

        return property(getter, doc=f"nested record field {name!r}")

    raise MemoryLayoutError(f"cannot synthesize accessor for {schema!r}")


def synthesize_sudt(schema: RecordSchema,
                    class_name: str | None = None) -> type:
    """Generate (and cache) the accessor class for *schema*."""
    cached = _ACCESSOR_CACHE.get(id(schema))
    if cached is not None:
        return cached
    name = class_name or f"Sudt_{schema.name}"
    namespace: dict[str, Any] = {
        "__slots__": (),
        "_schema": schema,
        "__doc__": (f"Synthesized accessor (SUDT) for {schema.name}: "
                    "field reads/writes go straight to the page bytes."),
    }
    for index, (fname, fschema) in enumerate(schema.fields):
        namespace[fname] = _make_property(index, fname, fschema)
    cls = type(name, (SudtClass,), namespace)
    _ACCESSOR_CACHE[id(schema)] = cls
    return cls


def bind_accessor(schema: RecordSchema, buf, off: int) -> SudtClass:
    """Create an accessor for the record of *schema* at ``buf[off:]``."""
    return synthesize_sudt(schema)(buf, off)
