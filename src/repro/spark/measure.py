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
declares its UDT, the first measurement *compiles* the root type: one walk
of its type graph generates one straight-line function — every shallow
size, boxed size and primitive payload folded into literals, a tuple/list
coercion and an arity check per class level, ``len()`` at each primitive
array, a ``for`` loop at an array of class elements — and keeps it on the
type object.  The types below the root are folded in, so an edit to any of
them must reach the root's function: every edit bumps the type graph's
*epoch* (``repro.analysis.udt.epoch``) and every compiled function checks,
once per call, that it was compiled at the current one.

Untyped datasets (plain driver-side values) fall back to a generic
measurer over Python values.  It dispatches on the exact type first: a
boxed leaf (``float``, ``int``, ``bool``, ``None``) is one table lookup,
and a flat tuple or list whose items share one leaf type is the same §3
case as a primitive array — ``(1 + n·o, shell + n·b, n·d)`` from its
length alone, after one C-level pass that checks the item types.  Mixed,
nested and subclassed values, dicts, bytes and opaque objects take the
recursive walker.
"""

from __future__ import annotations

from operator import countOf
from typing import Any, Callable, NamedTuple

from ..analysis import udt as _type_graph
from ..analysis.udt import CHAR, ArrayType, ClassType, DataType, PrimitiveType
from ..errors import MemoryLayoutError
from ..jvm import sizing
from ..memory.layout import record_shape

# Kryo writes a 1-2 byte class registration tag per top-level object.
KRYO_TAG_BYTES = 2


class RecordFootprint(NamedTuple):
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

# The hot paths build footprints without the Python-level ``__new__`` a
# NamedTuple generates: ``_new_footprint(RecordFootprint, triple)``.
_new_footprint = tuple.__new__


# ``sizing.array_bytes``/``sizing.object_bytes`` for sizes that are known to
# be valid: ``(header + payload + ALIGNMENT - 1) & -ALIGNMENT``.
_ALIGN_MASK = -sizing.ALIGNMENT
_ARRAY_PAD = sizing.ARRAY_HEADER_BYTES + sizing.ALIGNMENT - 1
_OBJECT_PAD = sizing.OBJECT_HEADER_BYTES + sizing.ALIGNMENT - 1
_REFERENCE_BYTES = sizing.REFERENCE_BYTES

# A measurer takes ``(udt, value)`` — the type is passed, not captured, so a
# type and its measurer form no reference cycle — and returns the record's
# RecordFootprint.
_Measurer = Callable[[Any, Any], RecordFootprint]


def measure_typed(udt: DataType, value) -> RecordFootprint:
    """Measure *value*, a value of *udt* (``layout.record_shape``)."""
    return (getattr(udt, "_measurer", None) or _compile(udt))(udt, value)


def _compile(udt: DataType) -> _Measurer:
    """Generate, store on *udt* and return its measurer.

    One walk of the type graph below *udt* emits the function's source in
    the order the record is measured — depth first, fields in declaration
    order — so a bad value raises where, and what, a level-by-level walk
    would.  A polymorphic type-set or an unmeasurable type becomes a
    ``raise`` at its place in that order: it fires only when reached, and
    an empty polymorphic array still measures.  Only a type that contains
    itself is not folded in: the back-edge calls that type's own measurer.
    """
    if not isinstance(udt, _MEASURABLE):
        raise MemoryLayoutError(_unmeasurable(udt))
    namespace: dict[str, Any] = {
        "_type_graph": _type_graph, "_compile": _compile,
        "_seq": (tuple, list), "_error": MemoryLayoutError,
        "_new": _new_footprint, "_footprint": RecordFootprint,
    }
    lines: list[str] = []
    count = 0

    def walk(node: Any, value: str, total: _Sum, pad: str,
             path: tuple) -> None:
        """Emit the code that adds the footprint of the expression
        *value*, measured as a *node*, to *total*."""
        nonlocal count
        count += 1
        k = count
        if isinstance(node, PrimitiveType):
            # A bare primitive inside a generic container gets boxed.
            total.add(1, sizing.boxed_bytes(node.name), node.nbytes)
        elif not isinstance(node, _MEASURABLE):
            lines.append(f"{pad}raise _error({_unmeasurable(node)!r})\n")
        elif any(node is ancestor for ancestor in path):
            namespace[f"t{k}"] = node
            lines.append(
                f"{pad}o{k}, b{k}, d{k} = (getattr(t{k}, '_measurer', None)"
                f" or _compile(t{k}))(t{k}, {value})\n")
            total.add(f"o{k}", f"b{k}", f"d{k}")
        elif isinstance(node, ArrayType):
            element = _sole(node.element_field.type_set)
            lines.append(f"{pad}a{k} = {value}\n{pad}n{k} = len(a{k})\n")
            if element is CHAR:
                # A str counts the UTF-16 code units a layout packs.
                lines.append(
                    f"{pad}if a{k}.__class__ is str and not a{k}.isascii():"
                    f" n{k} = len(a{k}.encode('utf-16-le', "
                    f"'surrogatepass')) >> 1\n")
            if isinstance(element, PrimitiveType):
                lines.append(f"{pad}d{k} = {element.nbytes} * n{k}\n")
                total.add(1, f"(({_ARRAY_PAD} + d{k}) & {_ALIGN_MASK})",
                          f"d{k}")
                return
            # The array object plus each element's graph.
            total.add(1, f"(({_ARRAY_PAD} + {_REFERENCE_BYTES} * n{k})"
                         f" & {_ALIGN_MASK})", 0)
            if element is None:
                message = (f"array {node.name} has a polymorphic element "
                           "type-set; measure each element with its "
                           "concrete type")
                lines.append(f"{pad}if n{k}: raise _error({message!r})\n")
                return
            each = _Sum()
            lines.append(f"{pad}o{k} = b{k} = d{k} = 0\n"
                         f"{pad}for i{k} in a{k}:\n")
            walk(element, f"i{k}", each, pad + "    ", path + (node,))
            objects, nbytes, data = each.sources()
            lines.append(f"{pad}    o{k} += {objects}\n"
                         f"{pad}    b{k} += {nbytes}\n"
                         f"{pad}    d{k} += {data}\n")
            total.add(f"o{k}", f"b{k}", f"d{k}")
        else:
            shape = record_shape(node)
            arguments = shape[0] if shape else range(len(node.fields))
            if shape and len(arguments) == 1:
                sources = {arguments[0]: value}
            else:
                mismatch = (f" does not match {node.name}'s "
                            f"{len(arguments)} fields")
                lines.append(
                    f"{pad}v{k} = {value}\n"
                    f"{pad}if not isinstance(v{k}, _seq): v{k} = (v{k},)\n"
                    f"{pad}if len(v{k}) != {len(arguments)}: raise _error("
                    f"'value arity ' + str(len(v{k})) + {mismatch!r})\n")
                sources = {index: f"v{k}[{position}]"
                           for position, index in enumerate(arguments)}
            total.add(1, node.shallow_object_bytes,
                      node.primitive_payload_bytes)
            for index, field in enumerate(node.fields):
                if isinstance(field.declared_type, PrimitiveType):
                    continue
                target = _sole(field.type_set)
                if target is None:
                    message = (f"field {node.name}.{field.name} has a "
                               "polymorphic type-set; cannot measure "
                               "statically")
                    lines.append(f"{pad}raise _error({message!r})\n")
                    return      # the fields after it are never reached
                walk(target, sources[index], total, pad, path + (node,))

    total = _Sum()
    walk(udt, "value", total, "    ", ())
    exec(f"def measure(udt, value):\n"
         f"    if _type_graph.epoch != {_type_graph.epoch}:\n"
         f"        return _compile(udt)(udt, value)\n"
         f"{''.join(lines)}"
         f"    return _new(_footprint, ({', '.join(total.sources())}))\n",
         namespace)
    # Popped, so the function and its globals dict form no cycle and a
    # dropped type's measurer is freed by refcount.
    udt._measurer = measurer = namespace.pop("measure")
    return measurer


class _Sum:
    """One running footprint in generated code: the literal parts folded
    into three ints, the per-record parts kept as source terms."""

    def __init__(self) -> None:
        self._literals = [0, 0, 0]
        self._terms: tuple[list[str], ...] = ([], [], [])

    def add(self, *parts: int | str) -> None:
        for slot, part in enumerate(parts):
            if isinstance(part, str):
                self._terms[slot].append(part)
            else:
                self._literals[slot] += part

    def sources(self) -> list[str]:
        """The ``objects``, ``object_bytes`` and ``data_bytes`` expressions."""
        return [" + ".join([str(literal), *terms])
                for literal, terms in zip(self._literals, self._terms)]


_MEASURABLE = (PrimitiveType, ArrayType, ClassType)


def _unmeasurable(node: Any) -> str:
    return f"cannot measure {node!r}"


def _sole(type_set: tuple) -> Any:
    """The only member of a monomorphic type-set, else None."""
    return type_set[0] if len(type_set) == 1 else None


_BOXED_LONG = RecordFootprint(1, sizing.boxed_bytes("long"), 8)
_BOXED_DOUBLE = RecordFootprint(1, sizing.boxed_bytes("double"), 8)
_STRING_BYTES = sizing.object_bytes(1, 4)
_DICT_BYTES = sizing.object_bytes(1, 12)
# Opaque object: one header, unknown payload.
_OPAQUE = (1, sizing.object_bytes(0, 16), 16)

# The boxed leaves, keyed by *exact* type: a leaf's footprint does not
# depend on its value (``None`` is a null reference, no object at all).
# Subclasses — an ``IntEnum``, a ``float`` subclass — miss the table and
# take the walker's ``isinstance`` chain.
_LEAVES = {float: _BOXED_DOUBLE, int: _BOXED_LONG,
           bool: RecordFootprint(1, sizing.boxed_bytes("boolean"), 1),
           type(None): ZERO_FOOTPRINT}


def measure_generic(value) -> RecordFootprint:
    """Measure an untyped Python value as its JVM-equivalent graph.

    Used for driver-side collections and datasets without a declared UDT.
    Numbers box, strings become ``String`` + ``char[]``, tuples/lists
    become objects with reference fields.
    """
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf
    if kind is tuple or kind is list:
        return _new_footprint(RecordFootprint, _sequence(value))
    return _new_footprint(RecordFootprint, _generic(value))


def _sequence(items) -> tuple[int, int, int]:
    """An exact tuple or list: the object with one reference per item,
    plus the items' graphs.

    A flat sequence of one boxed-leaf type is the array-of-primitives
    case of §3 — its footprint depends only on the length — and is
    measured in closed form.  The guard costs one dict lookup and two
    ``type`` calls, so a mixed pair like ``("word", 1)`` never pays for
    the homogeneity pass.
    """
    n = len(items)
    shell = (_OBJECT_PAD + _REFERENCE_BYTES * n) & _ALIGN_MASK
    if n:
        kind = type(items[0])
        leaf = _LEAVES.get(kind)
        if (leaf is not None and kind is type(items[-1])
                and countOf(map(type, items), kind) == n):
            objects, nbytes, data = leaf
            return 1 + n * objects, shell + n * nbytes, n * data
    return _generic_items(items, shell)


def _generic(value) -> tuple[int, int, int]:
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf
    if kind is tuple or kind is list:
        return _sequence(value)
    if isinstance(value, str):
        # UTF-16 code units, as a ``char[]`` counts them.
        chars = 2 * len(value) if value.isascii() else len(
            value.encode("utf-16-le", "surrogatepass"))
        return 2, _STRING_BYTES + ((_ARRAY_PAD + chars) & _ALIGN_MASK), chars
    # Subclasses of the leaf types (``bool`` has none) and the rest.
    if isinstance(value, int):
        return _BOXED_LONG
    if isinstance(value, float):
        return _BOXED_DOUBLE
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
