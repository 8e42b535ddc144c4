"""The annotated UDT model (paper §3.1–§3.2).

Applications describe their user-defined types with this model, mirroring
what Deca's pre-processing phase extracts from Scala bytecode: each class has
*fields*; each field has a declared type, a ``final`` flag (Scala ``val`` vs
``var``) and a **type-set** — the set of runtime types that may actually be
assigned to it, as computed by points-to analysis.  Arrays are modelled with
an implicit *element field* (never final, never init-only) plus a length,
exactly as Algorithm 1 treats them.

Example — the paper's running LR example (Fig. 1/Fig. 3)::

    data = Field("data", ArrayType(DOUBLE), final=True)
    dense_vector = ClassType("DenseVector", [
        data,
        Field("offset", INT), Field("stride", INT), Field("length", INT),
    ])
    features = Field("features", vector, type_set=(dense_vector,))
    labeled_point = ClassType("LabeledPoint", [
        Field("label", DOUBLE), features,
    ])
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..errors import TypeGraphError
from ..jvm import sizing

if TYPE_CHECKING:
    from .ir import Method


# The type-graph epoch: bumped by every edit that can change a footprint
# (``ClassType.add_field``, assigning ``Field.type_set``).  A measurer
# ``repro.spark.measure`` compiled for one type has the types below it
# folded in, so it cannot be dropped from here when one of them changes;
# instead it remembers the epoch it was compiled at and compares it with
# this one on every call.
epoch = 0


def _bump_epoch() -> None:
    global epoch
    epoch += 1


class DataType:
    """Base class of every type in the model."""

    name: str
    # The footprint measurer ``repro.spark.measure`` compiled for this type.
    # It lives on the type so it dies with it; being generated code, it is
    # left out of pickles and deep copies and rebuilt on demand.
    _measurer: Callable[[Any, Any], Any] | None = None

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_measurer", None)
        return state

    @property
    def is_primitive(self) -> bool:
        return isinstance(self, PrimitiveType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def __repr__(self) -> str:
        return self.name


class PrimitiveType(DataType):
    """A JVM primitive (``int``, ``double``, ...)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nbytes = sizing.primitive_bytes(name)


BOOLEAN = PrimitiveType("boolean")
BYTE = PrimitiveType("byte")
CHAR = PrimitiveType("char")
SHORT = PrimitiveType("short")
INT = PrimitiveType("int")
FLOAT = PrimitiveType("float")
LONG = PrimitiveType("long")
DOUBLE = PrimitiveType("double")

PRIMITIVES: tuple[PrimitiveType, ...] = (
    BOOLEAN, BYTE, CHAR, SHORT, INT, FLOAT, LONG, DOUBLE,
)


class Field:
    """One instance field of a UDT.

    *type_set* lists the runtime types that may be assigned to the field; it
    defaults to the declared type alone.  ``final`` mirrors Scala's ``val``:
    a final field is assigned exactly once, in the constructor, which the
    local classifier exploits (Algorithm 1, lines 28–30).
    """

    __slots__ = ("name", "declared_type", "_type_set", "final")

    def __init__(self, name: str, declared_type: DataType,
                 type_set: Sequence[DataType] | None = None,
                 final: bool = False) -> None:
        if not name:
            raise TypeGraphError("field name cannot be empty")
        self.name = name
        self.declared_type = declared_type
        if type_set is None:
            resolved: tuple[DataType, ...] = (declared_type,)
        else:
            resolved = tuple(type_set)
            if not resolved:
                raise TypeGraphError(
                    f"field {name!r} has an empty type-set")
        # Not through the property: nothing compiled can reach a new field.
        self._type_set = resolved
        self.final = final

    @property
    def type_set(self) -> tuple[DataType, ...]:
        return self._type_set

    @type_set.setter
    def type_set(self, type_set: tuple[DataType, ...]) -> None:
        self._type_set = type_set
        _bump_epoch()

    def get_type_set(self) -> tuple[DataType, ...]:
        """The possible runtime types of this field (paper: ``getTypeSet``)."""
        return self._type_set

    def __repr__(self) -> str:
        modifier = "val" if self.final else "var"
        return f"Field({modifier} {self.name}: {self.declared_type.name})"


class ClassType(DataType):
    """A user-defined class with named fields.

    Fields may be supplied at construction or added later with
    :meth:`add_field`, which allows building recursively-defined types
    (a ``Node`` whose ``next`` field is a ``Node``).
    """

    def __init__(self, name: str,
                 fields: Iterable[Field] | None = None) -> None:
        if not name:
            raise TypeGraphError("class name cannot be empty")
        self.name = name
        self._fields: list[Field] = []
        self._by_name: dict[str, Field] = {}
        # The ``<init>`` body, when the class is declared with one
        # (``repro.apps.udts.record``); ``NewObject`` sites run it.
        self.constructor: Method | None = None
        for field in fields or ():
            self.add_field(field)

    def add_field(self, field: Field) -> Field:
        """Append *field*; names must be unique within the class."""
        if field.name in self._by_name:
            raise TypeGraphError(
                f"duplicate field {field.name!r} in class {self.name!r}")
        self._fields.append(field)
        self._by_name[field.name] = field
        # Everything derived from the field list is recomputed on demand.
        for derived in ("fields", "primitive_payload_bytes",
                        "reference_field_count", "shallow_object_bytes"):
            self.__dict__.pop(derived, None)
        _bump_epoch()
        return field

    @cached_property
    def fields(self) -> tuple[Field, ...]:
        return tuple(self._fields)

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise TypeGraphError(
                f"class {self.name!r} has no field {name!r}") from None

    @cached_property
    def primitive_payload_bytes(self) -> int:
        """Summed size of this class's own primitive fields."""
        return sum(f.declared_type.nbytes for f in self._fields
                   if isinstance(f.declared_type, PrimitiveType))

    @cached_property
    def reference_field_count(self) -> int:
        """Number of this class's own reference-typed fields."""
        return sum(1 for f in self._fields
                   if not isinstance(f.declared_type, PrimitiveType))

    @cached_property
    def shallow_object_bytes(self) -> int:
        """JVM footprint of one instance, excluding referenced objects."""
        return sizing.object_bytes(self.reference_field_count,
                                   self.primitive_payload_bytes)


class ArrayType(DataType):
    """An array type ``Array[T]``.

    Modelled as having a length plus an *element field* whose type-set is
    the set of runtime types its elements may hold.  The element field is
    never final: Algorithm 1 therefore classifies arrays of SFST elements as
    RFSTs (same data-size for one instance, different across instances), and
    the global analysis never treats element fields as init-only (§3.3,
    footnote 1).
    """

    def __init__(self, element_type: DataType,
                 element_type_set: Sequence[DataType] | None = None) -> None:
        self.element_type = element_type
        self.name = f"Array[{element_type.name}]"
        self.element_field = Field(
            "<element>", element_type, type_set=element_type_set, final=False)

    @property
    def element_bytes(self) -> int:
        """Per-slot size in the *object* representation."""
        if isinstance(self.element_type, PrimitiveType):
            return self.element_type.nbytes
        return sizing.REFERENCE_BYTES


def referenced_types(data_type: DataType) -> Iterator[DataType]:
    """Yield every type reachable in one hop from *data_type*'s fields."""
    if isinstance(data_type, ClassType):
        for field in data_type.fields:
            yield from field.get_type_set()
    elif isinstance(data_type, ArrayType):
        yield from data_type.element_field.get_type_set()


def type_dependency_cycle(root: DataType) -> list[DataType] | None:
    """Return one cycle in the type-dependency graph of *root*, if any.

    The local classifier uses this to detect recursively-defined types
    (Algorithm 1, lines 1–2).  Primitives terminate recursion.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    colors: dict[int, int] = {}
    stack: list[DataType] = []

    def visit(node: DataType) -> list[DataType] | None:
        if isinstance(node, PrimitiveType):
            return None
        state = colors.get(id(node), WHITE)
        if state == GRAY:
            start = next(i for i, t in enumerate(stack) if t is node)
            return stack[start:] + [node]
        if state == BLACK:
            return None
        colors[id(node)] = GRAY
        stack.append(node)
        for child in referenced_types(node):
            cycle = visit(child)
            if cycle is not None:
                return cycle
        stack.pop()
        colors[id(node)] = BLACK
        return None

    return visit(root)


def walk_types(root: DataType) -> Iterator[DataType]:
    """Yield every distinct type reachable from *root* (root included)."""
    seen: set[int] = set()
    pending = [root]
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        pending.extend(referenced_types(node))
