"""Object-graph footprint measurement.

The cache-size bars and GC-pressure numbers of every figure depend on how
many heap objects and bytes one record costs in each representation:

* **object form** (Spark): the full JVM object graph — headers, references,
  boxed primitives in generic containers (Fig. 2 top);
* **decomposed form** (Deca): the record's *data-size* — the primitives
  alone (Fig. 2 bottom);
* **serialized form** (SparkSer): Kryo bytes, essentially data-size plus a
  small per-object tag.

A record's footprint is a static function of its type (§3): constant for
an SFST, affine in the array lengths for an RFST.  So when a dataset
declares its UDT, the first measurement *compiles* one measurer per type —
a closure that already knows every field plan, shallow size and boxed size
and only reads the record's array lengths — and keeps it on the type
object.  Untyped datasets (plain driver-side values) fall back to a generic
measurer over Python values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.udt import ArrayType, ClassType, DataType, PrimitiveType
from ..errors import MemoryLayoutError
from ..jvm import sizing

# Kryo writes a 1-2 byte class registration tag per top-level object.
KRYO_TAG_BYTES = 2


@dataclass(frozen=True)
class RecordFootprint:
    """Heap cost of one record in its three representations."""

    objects: int          # heap objects in the object form
    object_bytes: int     # bytes of the object form
    data_bytes: int       # raw data size (the decomposed form)

    @property
    def serialized_bytes(self) -> int:
        """Approximate Kryo size (data plus a class tag)."""
        return self.data_bytes + KRYO_TAG_BYTES

    def __add__(self, other: "RecordFootprint") -> "RecordFootprint":
        return RecordFootprint(
            self.objects + other.objects,
            self.object_bytes + other.object_bytes,
            self.data_bytes + other.data_bytes,
        )


ZERO_FOOTPRINT = RecordFootprint(0, 0, 0)


# ``sizing.array_bytes``/``sizing.object_bytes`` for sizes that are known to
# be valid: ``(header + payload + ALIGNMENT - 1) & -ALIGNMENT``.
_ALIGN_MASK = -sizing.ALIGNMENT
_ARRAY_PAD = sizing.ARRAY_HEADER_BYTES + sizing.ALIGNMENT - 1
_OBJECT_PAD = sizing.OBJECT_HEADER_BYTES + sizing.ALIGNMENT - 1
_REFERENCE_BYTES = sizing.REFERENCE_BYTES

# A measurer takes ``(udt, value)`` — the type is passed, not captured, so a
# type and its measurer form no reference cycle — and returns a plain
# ``(objects, object_bytes, data_bytes)`` triple; only the public entry
# points build a RecordFootprint.
_Measurer = Callable[[Any, Any], "tuple[int, int, int]"]


def measure_typed(udt: DataType, value) -> RecordFootprint:
    """Measure *value* (in schema shape — nested tuples) against *udt*."""
    return RecordFootprint(*_measurer(udt)(udt, value))


def _measurer(udt: DataType) -> _Measurer:
    """The compiled measurer of *udt*, built on first use.

    It is stored on the type itself (``ClassType.add_field`` drops it), so
    it lives exactly as long as the type.  A measurer never holds another
    type's measurer: children are looked up per call, and every type-set is
    compared with the one compiled against, so growing a recursive type or
    re-pointing a field is seen by the next measurement.
    """
    return getattr(udt, "_measurer", None) or _compile(udt)


def _compile(udt: DataType) -> _Measurer:
    if isinstance(udt, PrimitiveType):
        # A bare primitive inside a generic container gets boxed.
        boxed = (1, sizing.boxed_bytes(udt.name), udt.nbytes)
        measurer: _Measurer = lambda udt, value: boxed
    elif isinstance(udt, ArrayType):
        measurer = _compile_array(udt)
    elif isinstance(udt, ClassType):
        measurer = _compile_class(udt)
    else:
        raise MemoryLayoutError(f"cannot measure {udt!r}")
    udt._measurer = measurer
    return measurer


def _sole(type_set: tuple) -> Any:
    """The only member of a monomorphic type-set, else None."""
    return type_set[0] if len(type_set) == 1 else None


def _compile_array(udt: ArrayType) -> _Measurer:
    element_field = udt.element_field
    type_set = element_field.type_set
    element = _sole(type_set)

    if isinstance(element, PrimitiveType):
        element_bytes = element.nbytes

        def measure_primitive_array(udt, value):
            length = len(value)
            if element_field.type_set is not type_set:
                return _compile(udt)(udt, value)
            data = element_bytes * length
            return 1, (_ARRAY_PAD + data) & _ALIGN_MASK, data

        return measure_primitive_array

    def measure_reference_array(udt, value):
        length = len(value)
        if element_field.type_set is not type_set:
            return _compile(udt)(udt, value)
        # The array object plus each element's graph.
        objects = 1
        object_bytes = (_ARRAY_PAD + _REFERENCE_BYTES * length) & _ALIGN_MASK
        data = 0
        if length:
            if element is None:
                raise MemoryLayoutError(
                    f"array {udt.name} has a polymorphic element type-set; "
                    "measure each element with its concrete type")
            measure_element = _measurer(element)
            for item in value:
                o, b, d = measure_element(element, item)
                objects += o
                object_bytes += b
                data += d
        return objects, object_bytes, data

    return measure_reference_array


def _compile_class(udt: ClassType) -> _Measurer:
    name = udt.name
    arity = len(udt.fields)
    shallow = udt.shallow_object_bytes
    payload = udt.primitive_payload_bytes
    # (position, field, the type-set compiled against, its sole member)
    references = tuple(
        (index, field, field.type_set, _sole(field.type_set))
        for index, field in enumerate(udt.fields)
        if not isinstance(field.declared_type, PrimitiveType))

    def measure_class(udt, value):
        values = value if isinstance(value, (tuple, list)) else (value,)
        if len(values) != arity:
            raise MemoryLayoutError(
                f"value arity {len(values)} does not match "
                f"{name}'s {arity} fields")
        objects = 1
        object_bytes = shallow
        data = payload
        for index, field, type_set, target in references:
            if field.type_set is not type_set:
                return _compile(udt)(udt, value)
            if target is None:
                raise MemoryLayoutError(
                    f"field {name}.{field.name} has a polymorphic "
                    "type-set; cannot measure statically")
            o, b, d = _measurer(target)(target, values[index])
            objects += o
            object_bytes += b
            data += d
        return objects, object_bytes, data

    return measure_class


_NONE = (0, 0, 0)
_BOXED_BOOLEAN = (1, sizing.boxed_bytes("boolean"), 1)
_BOXED_LONG = (1, sizing.boxed_bytes("long"), 8)
_BOXED_DOUBLE = (1, sizing.boxed_bytes("double"), 8)
_STRING_BYTES = sizing.object_bytes(1, 4)
_DICT_BYTES = sizing.object_bytes(1, 12)
# Opaque object: one header, unknown payload.
_OPAQUE = (1, sizing.object_bytes(0, 16), 16)


def measure_generic(value) -> RecordFootprint:
    """Measure an untyped Python value as its JVM-equivalent graph.

    Used for driver-side collections and datasets without a declared UDT.
    Numbers box, strings become ``String`` + ``char[]``, tuples/lists
    become objects with reference fields.
    """
    if value is None:
        return ZERO_FOOTPRINT
    return RecordFootprint(*_generic(value))


def _generic(value) -> tuple[int, int, int]:
    kind = type(value)
    if kind is float:
        return _BOXED_DOUBLE
    if kind is int:
        return _BOXED_LONG
    if value is None:
        return _NONE
    if isinstance(value, bool):
        return _BOXED_BOOLEAN
    if isinstance(value, int):
        return _BOXED_LONG
    if isinstance(value, float):
        return _BOXED_DOUBLE
    if isinstance(value, str):
        chars = 2 * len(value)
        return 2, _STRING_BYTES + ((_ARRAY_PAD + chars) & _ALIGN_MASK), chars
    if isinstance(value, (bytes, bytearray)):
        length = len(value)
        return 1, (_ARRAY_PAD + length) & _ALIGN_MASK, length
    if isinstance(value, (tuple, list)):
        return _generic_items(
            value,
            (_OBJECT_PAD + _REFERENCE_BYTES * len(value)) & _ALIGN_MASK)
    if isinstance(value, dict):
        return _generic_items(
            (item for entry in value.items() for item in entry), _DICT_BYTES)
    return _OPAQUE


def _generic_items(items, object_bytes: int) -> tuple[int, int, int]:
    """One container object of *object_bytes* plus the graphs of *items*."""
    objects = 1
    data = 0
    for item in items:
        o, b, d = _generic(item)
        objects += o
        object_bytes += b
        data += d
    return objects, object_bytes, data
