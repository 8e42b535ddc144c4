"""Byte-layout schemas for decomposed UDTs (paper §2.3, Appendix B).

A *schema* describes how one UDT instance is flattened into a byte
sequence: all object headers and references are discarded; primitive fields
are stored in declaration order; nested SFST/RFST objects are inlined.
Arrays come in two flavours:

* **fixed-length** arrays (proved by the global analysis, e.g. the
  ``features.data`` array of LR whose length is the global constant ``D``)
  are inlined with no length slot — their element offsets are static;
* **variable-length** arrays (RFSTs: per-instance length fixed after
  construction, e.g. a String's character array) carry a 4-byte length
  prefix, and offsets after them are computed at access time — the
  "synthesized static methods to compute the data size" of Appendix B.

Schemas *pack* Python values into buffers and *unpack* them back; the
record values are plain tuples in field order, arrays are tuples of element
values.  :mod:`repro.memory.sudt` builds attribute-style accessors on top.

A fixed-size schema (an SFST: every offset static) compiles, on first use,
a :class:`FlatCodec` — Appendix B's statically scheduled access path.  Its
``pack_into``/``unpack_from`` go through it and :meth:`Schema.iter_unpack`
scans a whole buffer of records with it; the per-field walk stays as the
path of length-prefixed schemas (RFSTs) and as the slow path that raises
every error.
"""

from __future__ import annotations

import struct
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
)

from ..analysis.size_type import SizeType
from ..analysis.udt import (
    ArrayType,
    ClassType,
    DataType,
    PrimitiveType,
)
from ..errors import MemoryLayoutError

_STRUCT_CODES: dict[str, str] = {
    "boolean": "?",
    "byte": "b",
    "char": "H",   # a UTF-16 code unit, as on the JVM
    "short": "h",
    "int": "i",
    "float": "f",
    "long": "q",
    "double": "d",
}

_LENGTH_PREFIX = struct.Struct("<I")


class FlatCodec(NamedTuple):
    """One ``struct`` over a whole fixed-size record.

    ``slots`` are its primitive runs in layout order — ``(name, struct
    code, relative offset, count)``, *count* ``None`` for a scalar;
    ``reshape`` nests a flat tuple into the schema's value shape and
    ``flatten`` is the checking inverse: ``None`` for a value it cannot
    vouch for (not a tuple/list, wrong arity or array length).
    """

    slots: tuple[tuple[str, str, int, int | None], ...]
    struct: struct.Struct
    reshape: Callable[[tuple], Any]
    flatten: Callable[[Any], "tuple | None"]


class Schema:
    """Base class for layout nodes.

    ``fixed_size`` is the byte size of every instance, or ``None`` when the
    size is per-instance (variable-length arrays in the graph).
    """

    fixed_size: int | None
    # Compiled on first use, per instance; never pickled or deep-copied
    # (every schema's ``__reduce__`` rebuilds it from constructor args).
    _codec: FlatCodec | None = None

    def size_of(self, value: Any) -> int:
        """Packed size of *value* under this schema."""
        raise NotImplementedError

    def pack_into(self, buffer: bytearray | memoryview, offset: int,
                  value: Any) -> int:
        """Write *value* at *offset*; returns the offset past the data."""
        if self.fixed_size is not None:
            codec = self._codec or self.flat_codec()
            flat = codec.flatten(value)
            if flat is not None:
                try:
                    codec.struct.pack_into(buffer, offset, *flat)
                    return offset + self.fixed_size
                except (struct.error, TypeError, OverflowError):
                    pass    # the walk raises the per-field error
        return self._pack_fields(buffer, offset, value)

    def unpack_from(self, buffer: bytes | bytearray | memoryview,
                    offset: int) -> tuple[Any, int]:
        """Read one value at *offset*; returns ``(value, next_offset)``."""
        if self.fixed_size is not None:
            codec = self._codec or self.flat_codec()
            try:
                flat = codec.struct.unpack_from(buffer, offset)
                return codec.reshape(flat), offset + self.fixed_size
            except struct.error:
                pass        # the walk names the field that is short
        return self._unpack_fields(buffer, offset)

    def flat_codec(self) -> FlatCodec:
        """The compiled codec of this fixed-size schema."""
        if self._codec is None:
            self._codec = _compile_codec(self)
        return self._codec

    def iter_unpack(self, buffer: bytes | bytearray | memoryview
                    ) -> Iterator[Any]:
        """Decode *buffer*: records packed back to back, nothing else."""
        if not self.fixed_size:     # per-instance size (or a 0-byte array)
            return self._iter_walk(buffer)
        if len(buffer) % self.fixed_size:
            raise MemoryLayoutError(
                f"{len(buffer)} B is not a whole number of "
                f"{self.fixed_size}-byte records")
        codec = self._codec or self.flat_codec()
        return map(codec.reshape, codec.struct.iter_unpack(buffer))

    def _iter_walk(self, buffer) -> Iterator[Any]:
        # Length-prefixed records: each one is read to find the next.
        offset, end = 0, len(buffer)
        while offset < end:
            value, next_offset = self.unpack_from(buffer, offset)
            if next_offset <= offset:
                raise MemoryLayoutError(
                    f"zero-size record at offset {offset}; "
                    "scan cannot advance")
            yield value
            offset = next_offset

    def pack(self, value: Any) -> bytes:
        """Pack *value* into a fresh byte string."""
        out = bytearray(self.size_of(value))
        self.pack_into(out, 0, value)
        return bytes(out)

    def unpack(self, data: bytes | bytearray | memoryview) -> Any:
        """Unpack one value from the start of *data*."""
        value, _ = self.unpack_from(data, 0)
        return value


class PrimitiveSlot(Schema):
    """A single primitive value."""

    __slots__ = ("primitive", "_struct", "fixed_size")

    def __init__(self, primitive: PrimitiveType) -> None:
        code = _STRUCT_CODES.get(primitive.name)
        if code is None:
            raise MemoryLayoutError(
                f"no struct code for primitive {primitive.name!r}")
        self.primitive = primitive
        self._struct = struct.Struct("<" + code)
        self.fixed_size = self._struct.size

    def __reduce__(self):
        return PrimitiveSlot, (self.primitive,)

    def size_of(self, value: Any) -> int:
        return self.fixed_size

    def pack_into(self, buffer, offset: int, value: Any) -> int:
        self._struct.pack_into(buffer, offset, value)
        return offset + self.fixed_size

    def unpack_from(self, buffer, offset: int) -> tuple[Any, int]:
        (value,) = self._struct.unpack_from(buffer, offset)
        return value, offset + self.fixed_size

    def __repr__(self) -> str:
        return f"PrimitiveSlot({self.primitive.name})"


class RecordSchema(Schema):
    """A class flattened into its fields, in declaration order.

    When every field is fixed-size, per-field offsets are precomputed —
    these are the "relative offset values of all the UDT fields" the
    synthesized SUDTs use (Appendix B).
    """

    def __init__(self, name: str,
                 fields: Sequence[tuple[str, Schema]]) -> None:
        if not fields:
            raise MemoryLayoutError(
                f"record schema {name!r} needs at least one field")
        self.name = name
        self.fields = tuple(fields)
        self._index = {fname: i for i, (fname, _) in enumerate(self.fields)}
        if len(self._index) != len(self.fields):
            raise MemoryLayoutError(f"duplicate field names in {name!r}")
        sizes = [schema.fixed_size for _, schema in self.fields]
        if all(size is not None for size in sizes):
            self.fixed_size = sum(sizes)  # type: ignore[arg-type]
            if self.fixed_size == 0:
                # A zero-byte record cannot be addressed inside a page
                # (sequential scans could never advance past it).
                raise MemoryLayoutError(
                    f"record schema {name!r} has zero size")
            offsets: list[int | None] = []
            acc = 0
            for size in sizes:
                offsets.append(acc)
                acc += size  # type: ignore[operator]
            self.field_offsets: tuple[int | None, ...] = tuple(offsets)
        else:
            self.fixed_size = None
            # Offsets are static only up to the first variable field.
            offsets = []
            acc: int | None = 0
            for size in sizes:
                offsets.append(acc)
                if acc is None or size is None:
                    acc = None
                else:
                    acc += size
            self.field_offsets = tuple(offsets)

    def __reduce__(self):
        return RecordSchema, (self.name, self.fields)

    def field_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MemoryLayoutError(
                f"schema {self.name!r} has no field {name!r}") from None

    def field_schema(self, name: str) -> Schema:
        return self.fields[self.field_index(name)][1]

    def field_offset(self, buffer, base_offset: int, index: int) -> int:
        """Absolute offset of field *index* for the record at *base_offset*.

        Static when all preceding fields are fixed-size; otherwise computed
        by walking the preceding variable-size fields.
        """
        static = self.field_offsets[index]
        if static is not None:
            return base_offset + static
        offset = base_offset
        for _, schema in self.fields[:index]:
            if schema.fixed_size is not None:
                offset += schema.fixed_size
            else:
                offset = schema.skip(buffer, offset)
        return offset

    def size_of(self, value: Any) -> int:
        if self.fixed_size is not None:
            return self.fixed_size
        values = self._as_sequence(value)
        return sum(schema.size_of(v)
                   for (_, schema), v in zip(self.fields, values))

    def _pack_fields(self, buffer, offset: int, value: Any) -> int:
        values = self._as_sequence(value)
        for (_, schema), v in zip(self.fields, values):
            offset = schema.pack_into(buffer, offset, v)
        return offset

    def _unpack_fields(self, buffer, offset: int) -> tuple[Any, int]:
        out = []
        for _, schema in self.fields:
            value, offset = schema.unpack_from(buffer, offset)
            out.append(value)
        return tuple(out), offset

    def skip(self, buffer, offset: int) -> int:
        """Offset just past the record at *offset* without decoding it."""
        if self.fixed_size is not None:
            return offset + self.fixed_size
        for _, schema in self.fields:
            offset = schema.skip(buffer, offset)
        return offset

    def _as_sequence(self, value: Any) -> Sequence[Any]:
        if isinstance(value, (tuple, list)):
            if len(value) != len(self.fields):
                raise MemoryLayoutError(
                    f"record {self.name!r} expects {len(self.fields)} "
                    f"values, got {len(value)}")
            return value
        raise MemoryLayoutError(
            f"record {self.name!r} expects a tuple/list, got "
            f"{type(value).__name__}")

    def __repr__(self) -> str:
        return (f"RecordSchema({self.name}, "
                f"fields={[n for n, _ in self.fields]})")


class FixedArraySchema(Schema):
    """An array whose length was proved constant by the global analysis."""

    def __init__(self, element: Schema, length: int) -> None:
        if length < 0:
            raise MemoryLayoutError(f"negative array length {length}")
        if element.fixed_size is None:
            raise MemoryLayoutError(
                "fixed-length arrays need fixed-size elements")
        self.element = element
        self.length = length
        self.fixed_size = element.fixed_size * length
        self._bulk = None
        if isinstance(element, PrimitiveSlot):
            code = _STRUCT_CODES[element.primitive.name]
            self._bulk = struct.Struct(f"<{length}{code}")

    def __reduce__(self):
        return FixedArraySchema, (self.element, self.length)

    def size_of(self, value: Any) -> int:
        return self.fixed_size

    def _pack_fields(self, buffer, offset: int, value: Any) -> int:
        if len(value) != self.length:
            raise MemoryLayoutError(
                f"fixed array expects {self.length} elements, "
                f"got {len(value)}")
        if self._bulk is not None:
            self._bulk.pack_into(buffer, offset, *value)
            return offset + self.fixed_size
        for element in value:
            offset = self.element.pack_into(buffer, offset, element)
        return offset

    def _unpack_fields(self, buffer, offset: int) -> tuple[Any, int]:
        if self._bulk is not None:
            return (self._bulk.unpack_from(buffer, offset),
                    offset + self.fixed_size)
        out = []
        for _ in range(self.length):
            value, offset = self.element.unpack_from(buffer, offset)
            out.append(value)
        return tuple(out), offset

    def __repr__(self) -> str:
        return f"FixedArraySchema({self.element!r} x {self.length})"


class VarArraySchema(Schema):
    """An array sized per instance: 4-byte length prefix plus elements.

    Elements must be fixed-size (an RFST array of variable elements could
    not have been classified decomposable in the first place).
    """

    fixed_size = None

    def __init__(self, element: Schema) -> None:
        if element.fixed_size is None:
            raise MemoryLayoutError(
                "variable arrays need fixed-size elements")
        self.element = element
        self._element_code = None
        if isinstance(element, PrimitiveSlot):
            self._element_code = _STRUCT_CODES[element.primitive.name]

    def __reduce__(self):
        return VarArraySchema, (self.element,)

    def size_of(self, value: Any) -> int:
        return _LENGTH_PREFIX.size + self.element.fixed_size * len(value)

    def pack_into(self, buffer, offset: int, value: Any) -> int:
        _LENGTH_PREFIX.pack_into(buffer, offset, len(value))
        offset += _LENGTH_PREFIX.size
        if self._element_code is not None:
            packer = struct.Struct(f"<{len(value)}{self._element_code}")
            packer.pack_into(buffer, offset, *value)
            return offset + packer.size
        for element in value:
            offset = self.element.pack_into(buffer, offset, element)
        return offset

    def unpack_from(self, buffer, offset: int) -> tuple[Any, int]:
        (length,) = _LENGTH_PREFIX.unpack_from(buffer, offset)
        offset += _LENGTH_PREFIX.size
        if self._element_code is not None:
            unpacker = struct.Struct(f"<{length}{self._element_code}")
            return (unpacker.unpack_from(buffer, offset),
                    offset + unpacker.size)
        out = []
        for _ in range(length):
            value, offset = self.element.unpack_from(buffer, offset)
            out.append(value)
        return tuple(out), offset

    def skip(self, buffer, offset: int) -> int:
        (length,) = _LENGTH_PREFIX.unpack_from(buffer, offset)
        return (offset + _LENGTH_PREFIX.size
                + self.element.fixed_size * length)

    def length_at(self, buffer, offset: int) -> int:
        """The stored length of the array at *offset*."""
        (length,) = _LENGTH_PREFIX.unpack_from(buffer, offset)
        return length

    def __repr__(self) -> str:
        return f"VarArraySchema({self.element!r})"


# RecordSchema.skip needs PrimitiveSlot/FixedArraySchema to have skip too.
def _fixed_skip(self, buffer, offset: int) -> int:
    return offset + self.fixed_size


PrimitiveSlot.skip = _fixed_skip            # type: ignore[attr-defined]
FixedArraySchema.skip = _fixed_skip         # type: ignore[attr-defined]


def _compile_codec(schema: Schema) -> FlatCodec:
    """Generate *schema*'s :class:`FlatCodec` in one walk of its tree."""
    if schema.fixed_size is None:
        raise MemoryLayoutError(
            f"cannot generate static offsets for {schema!r}")
    slots: list[tuple[str, str, int, int | None]] = []
    checks: list[str] = []
    pos = 0     # index of the next slot's first value in the flat tuple

    def walk(node: Schema, name: str, offset: int,
             value: str) -> tuple[str, str]:
        """``(reshape expression, flatten terms)`` of *node*, whose value
        the flatten body reads as the expression *value*."""
        nonlocal pos
        if isinstance(node, PrimitiveSlot):
            slots.append(
                (name, _STRUCT_CODES[node.primitive.name], offset, None))
            pos += 1
            return f"t[{pos - 1}]", f"{value}, "
        array = isinstance(node, FixedArraySchema)
        var = f"v{len(checks)}"
        checks.append(
            f"    {var} = {value}\n"
            f"    if not (isinstance({var}, _seq) and len({var}) == "
            f"{node.length if array else len(node.fields)}): return None\n")
        if array and isinstance(node.element, PrimitiveSlot):
            code = _STRUCT_CODES[node.element.primitive.name]
            slots.append((name, code, offset, node.length))
            start, pos = pos, pos + node.length
            return f"t[{start}:{pos}]", f"*{var}, "
        if array:
            parts = [(f"{name}_{i}", node.element)
                     for i in range(node.length)]
        else:
            parts = [(f"{name}_{field}" if name else field, field_schema)
                     for field, field_schema in node.fields]
        shapes = terms = ""
        for index, (part_name, part) in enumerate(parts):
            shape, term = walk(part, part_name, offset, f"{var}[{index}]")
            offset += part.fixed_size
            shapes += shape + ", "
            terms += term
        return f"({shapes})", terms

    shape, terms = walk(schema, "", 0, "value")
    namespace: dict[str, Any] = {"_seq": (tuple, list)}
    exec(f"def reshape(t):\n    return {shape}\n"
         f"def flatten(value):\n{''.join(checks)}    return ({terms})\n",
         namespace)
    fmt = "<" + "".join(f"{'' if count is None else count}{code}"
                        for _, code, _, count in slots)
    # Popped, so the functions and their globals dict form no cycle and
    # a dropped schema's codec is freed by refcount.
    return FlatCodec(tuple(slots), struct.Struct(fmt),
                     namespace.pop("reshape"), namespace.pop("flatten"))


def build_schema(udt: DataType,
                 size_type: SizeType,
                 fixed_lengths: dict[int, int] | None = None,
                 _seen: set[int] | None = None) -> Schema:
    """Build the byte-layout schema for a decomposable *udt*.

    *size_type* is the (globally refined) classification; only SFSTs and
    RFSTs may be decomposed.  *fixed_lengths* maps ``id(array_type)`` to
    the constant length proved by the analysis — arrays present there are
    inlined, all others get length prefixes.

    Fields with polymorphic type-sets cannot be flattened (the layout would
    need runtime type tags), mirroring the paper's restriction to concrete
    object graphs.
    """
    if not size_type.decomposable:
        raise MemoryLayoutError(
            f"{udt.name} is {size_type.value}; only SFSTs/RFSTs can be "
            "decomposed (§3.1)")
    return _schema_for(udt, fixed_lengths or {}, _seen or set())


def _schema_for(udt: DataType, fixed_lengths: dict[int, int],
                seen: set[int]) -> Schema:
    if isinstance(udt, PrimitiveType):
        return PrimitiveSlot(udt)
    if id(udt) in seen:
        raise MemoryLayoutError(
            f"recursively-defined type {udt.name} cannot be laid out")
    seen = seen | {id(udt)}
    if isinstance(udt, ArrayType):
        element = _element_schema(udt, fixed_lengths, seen)
        length = fixed_lengths.get(id(udt))
        if length is not None:
            return FixedArraySchema(element, length)
        return VarArraySchema(element)
    if isinstance(udt, ClassType):
        if not udt.fields:
            raise MemoryLayoutError(
                f"class {udt.name!r} has no fields to lay out")
        fields: list[tuple[str, Schema]] = []
        for field in udt.fields:
            runtime = _sole_runtime_type(udt, field)
            fields.append(
                (field.name, _schema_for(runtime, fixed_lengths, seen)))
        return RecordSchema(udt.name, fields)
    raise MemoryLayoutError(f"cannot lay out {udt!r}")


def _element_schema(udt: ArrayType, fixed_lengths: dict[int, int],
                    seen: set[int]) -> Schema:
    type_set = udt.element_field.get_type_set()
    if len(type_set) != 1:
        raise MemoryLayoutError(
            f"array {udt.name} has a polymorphic element type-set; "
            "it cannot be decomposed")
    return _schema_for(type_set[0], fixed_lengths, seen)


def _sole_runtime_type(owner: ClassType, field) -> DataType:
    type_set = field.get_type_set()
    if len(type_set) != 1:
        raise MemoryLayoutError(
            f"field {owner.name}.{field.name} has a polymorphic type-set "
            f"({[t.name for t in type_set]}); it cannot be decomposed")
    return type_set[0]


# -- column-major emission (structure-of-arrays) ----------------------------
# The decomposition layer above lays one *record* out contiguously
# (row-major).  The column-major mode emits one contiguous run per *field*
# instead — the shared columnar organization of Sparkle (PAPERS.md) fused
# with Deca's lifetime-grouped pages: each run lives in its own page of a
# page group, and reads go through typed zero-copy views
# (``memoryview.cast``) rather than per-record ``struct`` unpacking.


class FixedColumnLayout:
    """A fixed-width column: values packed as one contiguous run."""

    __slots__ = ("code", "item_size")

    def __init__(self, code: str) -> None:
        if code not in _STRUCT_CODES.values():
            raise MemoryLayoutError(
                f"no fixed-width column layout for struct code {code!r}")
        self.code = code
        self.item_size = struct.calcsize("<" + code)

    def emit(self, values: Sequence[Any]) -> bytes:
        """Pack *values* into one run of ``len(values)`` items."""
        return struct.pack(f"<{len(values)}{self.code}", *values)

    def view(self, buffer: bytearray | memoryview, offset: int,
             length: int) -> memoryview:
        """Typed zero-copy view over the run's bytes.

        Indexing the result yields Python scalars directly — no
        per-element ``struct`` round-trip, no intermediate copy.
        """
        if length % self.item_size:
            raise MemoryLayoutError(
                f"run of {length} B is not a whole number of "
                f"{self.code!r} items")
        return memoryview(buffer)[offset:offset + length].cast(self.code)

    def __repr__(self) -> str:
        return f"FixedColumnLayout({self.code!r})"


class StringColumnLayout:
    """A var-width string column: a ``uint32`` offsets run + a UTF-8 blob
    run.

    ``offsets`` has ``count + 1`` entries; string *i* occupies blob bytes
    ``[offsets[i], offsets[i+1])``.  Prefix reads (``SUBSTR(col, 1, n)``)
    slice the blob without decoding the whole string.
    """

    __slots__ = ()

    offset_code = "I"
    offset_size = _LENGTH_PREFIX.size

    def emit(self, values: Sequence[str]) -> tuple[bytes, bytes]:
        """Pack *values* into ``(offsets_run, blob_run)``."""
        blob = bytearray()
        offsets = [0]
        for value in values:
            blob.extend(value.encode("utf-8"))
            offsets.append(len(blob))
        packed = struct.pack(f"<{len(offsets)}{self.offset_code}", *offsets)
        return packed, bytes(blob)

    def view(self, offsets_buffer: bytearray | memoryview,
             offsets_offset: int, offsets_length: int,
             blob_buffer: bytearray | memoryview,
             blob_offset: int, blob_length: int) -> "StringRunView":
        """Typed zero-copy reader over the column's two runs."""
        if offsets_length % self.offset_size:
            raise MemoryLayoutError(
                f"offsets run of {offsets_length} B is not a whole "
                "number of uint32 entries")
        offsets = memoryview(offsets_buffer)[
            offsets_offset:offsets_offset + offsets_length]
        blob = memoryview(blob_buffer)[blob_offset:blob_offset + blob_length]
        return StringRunView(offsets.cast(self.offset_code), blob)

    def __repr__(self) -> str:
        return "StringColumnLayout()"


class StringRunView:
    """Zero-copy accessor over a string column's offsets + blob views.

    :meth:`get`/:meth:`get_prefix` are the point accessors; the batch
    kernels use the bulk methods, which read the offsets with one
    ``tolist()`` and — when the blob is pure ASCII, so byte offsets are
    character offsets — decode the blob once and slice the result.
    Everything they return is a transient list of fresh ``str`` objects:
    nothing refers to the page views afterwards.
    """

    __slots__ = ("offsets", "blob")

    def __init__(self, offsets: memoryview, blob: memoryview) -> None:
        self.offsets = offsets
        self.blob = blob

    @property
    def count(self) -> int:
        return len(self.offsets) - 1

    def get(self, row: int) -> str:
        return str(self.blob[self.offsets[row]:self.offsets[row + 1]],
                   "utf-8")

    def get_prefix(self, row: int, length: int) -> str:
        """``SUBSTR(col, 1, length)``: the first *length* characters,
        decoding at most the ``4 * length`` bytes they can occupy."""
        start = self.offsets[row]
        end = min(start + 4 * length, self.offsets[row + 1])
        return str(self.blob[start:end], "utf-8", "ignore")[:length]

    def values(self) -> list[str]:
        """Every string of the run, in row order."""
        offsets = self.offsets.tolist()
        text = str(self.blob, "utf-8")
        if len(text) == len(self.blob):
            return [text[start:end]
                    for start, end in zip(offsets, offsets[1:])]
        blob = bytes(self.blob)
        return [str(blob[start:end], "utf-8")
                for start, end in zip(offsets, offsets[1:])]

    def prefixes(self, length: int) -> list[str]:
        """``SUBSTR(col, 1, length)`` of every string, in row order.

        A cut at ``4 * length`` bytes can only split a character past
        the prefix, so ``errors="ignore"`` drops nothing that survives
        the final character slice.
        """
        offsets = self.offsets.tolist()
        text = str(self.blob, "utf-8")
        if len(text) == len(self.blob):
            return [text[start:start + length] if start + length < end
                    else text[start:end]
                    for start, end in zip(offsets, offsets[1:])]
        blob = bytes(self.blob)
        width = 4 * length
        return [str(blob[start:start + width] if start + width < end
                    else blob[start:end], "utf-8", "ignore")[:length]
                for start, end in zip(offsets, offsets[1:])]

    def take(self, rows: Iterable[int]) -> list[str]:
        """The strings at *rows*, decoded one by one."""
        offsets, blob = self.offsets, self.blob
        return [str(blob[offsets[row]:offsets[row + 1]], "utf-8")
                for row in rows]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values())

    def release(self) -> None:
        """Release both backing views (before the pages are reclaimed)."""
        try:
            self.offsets.release()
        except BufferError:
            pass
        try:
            self.blob.release()
        except BufferError:
            pass


ColumnLayout = FixedColumnLayout | StringColumnLayout


def columnar_plan(schema: RecordSchema
                  ) -> tuple[tuple[str, ColumnLayout], ...]:
    """Per-field column layouts for a fixed-schema (UDT-F/RFST) record.

    Primitive fields map to :class:`FixedColumnLayout`; char/byte array
    fields (JVM strings) map to :class:`StringColumnLayout`.  Anything
    else — nested records, polymorphic fields, arrays of non-character
    elements — has no column-major form and raises
    :class:`MemoryLayoutError`, which is the optimizer's signal to fall
    back to the row-major layout above.
    """
    plan: list[tuple[str, ColumnLayout]] = []
    for name, field_schema in schema.fields:
        if isinstance(field_schema, PrimitiveSlot):
            plan.append((name, FixedColumnLayout(
                _STRUCT_CODES[field_schema.primitive.name])))
        elif (isinstance(field_schema, VarArraySchema)
              and isinstance(field_schema.element, PrimitiveSlot)
              and field_schema.element.primitive.name in ("char", "byte")):
            plan.append((name, StringColumnLayout()))
        else:
            raise MemoryLayoutError(
                f"field {schema.name}.{name} has no column-major layout; "
                "only primitives and char/byte arrays (strings) "
                "decompose per column")
    return tuple(plan)


def reorder_fields_fixed_first(schema: RecordSchema) -> RecordSchema:
    """Appendix B's optimization: put fixed-size fields first.

    With every fixed-size field leading, more field offsets become static,
    so more accessor reads avoid the offset-scan.
    """
    fixed = [(n, s) for n, s in schema.fields if s.fixed_size is not None]
    variable = [(n, s) for n, s in schema.fields if s.fixed_size is None]
    return RecordSchema(schema.name, fixed + variable)
