"""Differential property test: compiled measurers vs the recursive walkers.

``repro.spark.measure`` compiles one straight-line measurer per root type,
with the types below the root folded in.  The walkers it replaced — which
re-derive everything from the type graph on every call — are kept here,
verbatim, as the oracle: over random type graphs and random Python values
both must return equal footprints, or raise the same exception type with
the same message.
"""

import collections
import copy
import enum
import gc
import pickle
import weakref

from hypothesis import given, settings, strategies as st

from repro.analysis.udt import (
    CHAR, ArrayType, ClassType, DataType, Field, PRIMITIVES, PrimitiveType,
)
from repro.errors import MemoryLayoutError
from repro.jvm import sizing
from repro.spark.measure import ZERO_FOOTPRINT, RecordFootprint
from repro.spark.measure import measure_generic as compiled_generic
from repro.spark.measure import measure_typed as compiled_typed


# -- the oracle: the recursive walkers as they stood before compilation ------

def measure_typed(udt: DataType, value) -> RecordFootprint:
    """Measure *value* (in schema shape — nested tuples) against *udt*."""
    if isinstance(udt, PrimitiveType):
        # A bare primitive inside a generic container gets boxed.
        return RecordFootprint(
            objects=1,
            object_bytes=sizing.boxed_bytes(udt.name),
            data_bytes=udt.nbytes,
        )
    if isinstance(udt, ArrayType):
        return _measure_array(udt, value)
    if isinstance(udt, ClassType):
        return _measure_class(udt, value)
    raise MemoryLayoutError(f"cannot measure {udt!r}")


def _measure_array(udt: ArrayType, value) -> RecordFootprint:
    length = len(value)
    element_types = udt.element_field.get_type_set()
    element = element_types[0] if len(element_types) == 1 else None
    if element is CHAR and isinstance(value, str):
        # A str in a char[] is its UTF-16 code units, as a layout packs
        # it: an astral character is two.
        length = len(value.encode("utf-16-le", "surrogatepass")) // 2
    if isinstance(element, PrimitiveType) or element is None and not length:
        element_bytes = (element.nbytes if isinstance(element, PrimitiveType)
                         else sizing.REFERENCE_BYTES)
        return RecordFootprint(
            objects=1,
            object_bytes=sizing.array_bytes(element_bytes, length),
            data_bytes=(element_bytes * length
                        if isinstance(element, PrimitiveType) else 0),
        )
    # Reference array: the array object plus each element's graph.
    total = RecordFootprint(
        objects=1,
        object_bytes=sizing.array_bytes(sizing.REFERENCE_BYTES, length),
        data_bytes=0,
    )
    for item in value:
        if element is None:
            raise MemoryLayoutError(
                f"array {udt.name} has a polymorphic element type-set; "
                "measure each element with its concrete type")
        total = total + measure_typed(element, item)
    return total


def _measure_class(udt: ClassType, value) -> RecordFootprint:
    total = RecordFootprint(
        objects=1, object_bytes=udt.shallow_object_bytes, data_bytes=0)
    values = value if isinstance(value, (tuple, list)) else (value,)
    if len(values) != len(udt.fields):
        raise MemoryLayoutError(
            f"value arity {len(values)} does not match "
            f"{udt.name}'s {len(udt.fields)} fields")
    for field, item in zip(udt.fields, values):
        declared = field.declared_type
        if isinstance(declared, PrimitiveType):
            total = total + RecordFootprint(0, 0, declared.nbytes)
            continue
        type_set = field.get_type_set()
        if len(type_set) != 1:
            raise MemoryLayoutError(
                f"field {udt.name}.{field.name} has a polymorphic "
                "type-set; cannot measure statically")
        total = total + measure_typed(type_set[0], item)
    return total


def measure_generic(value) -> RecordFootprint:
    """Measure an untyped Python value as its JVM-equivalent graph.

    Used for driver-side collections and datasets without a declared UDT.
    Numbers box, strings become ``String`` + ``char[]``, tuples/lists
    become objects with reference fields.
    """
    if value is None:
        return ZERO_FOOTPRINT
    if isinstance(value, bool):
        return RecordFootprint(1, sizing.boxed_bytes("boolean"), 1)
    if isinstance(value, int):
        return RecordFootprint(1, sizing.boxed_bytes("long"), 8)
    if isinstance(value, float):
        return RecordFootprint(1, sizing.boxed_bytes("double"), 8)
    if isinstance(value, str):
        # A String's char[] holds UTF-16 code units: an astral character
        # is two.
        units = len(value.encode("utf-16-le", "surrogatepass")) // 2
        chars = sizing.array_bytes(2, units)
        return RecordFootprint(
            objects=2,
            object_bytes=sizing.object_bytes(1, 4) + chars,
            data_bytes=2 * units,
        )
    if isinstance(value, (bytes, bytearray)):
        return RecordFootprint(
            1, sizing.array_bytes(1, len(value)), len(value))
    if isinstance(value, (tuple, list)):
        total = RecordFootprint(
            1, sizing.object_bytes(len(value), 0), 0)
        for item in value:
            total = total + measure_generic(item)
        return total
    if isinstance(value, dict):
        total = RecordFootprint(1, sizing.object_bytes(1, 12), 0)
        for k, v in value.items():
            total = total + measure_generic(k) + measure_generic(v)
        return total
    # Opaque object: one header, unknown payload.
    return RecordFootprint(1, sizing.object_bytes(0, 16), 16)


# -- harness ----------------------------------------------------------------

def outcome(fn, *args):
    """The footprint *fn* returns, or the (type, message) it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle decides what is legal
        return type(exc), str(exc)


def assert_same_typed(udt, value):
    expected = outcome(measure_typed, udt, value)
    # Twice: the first call compiles, the second runs the cached measurer.
    assert outcome(compiled_typed, udt, value) == expected
    assert outcome(compiled_typed, udt, value) == expected
    return expected


# -- random type graphs with (mostly) matching values -------------------------

scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                    st.floats(allow_nan=False), st.text(max_size=3))


class NotAType:
    """Something that is not part of the UDT model at all."""

    def __repr__(self):
        return "NotAType"


@st.composite
def typed_cases(draw, depth=3):
    """A ``(type, value)`` pair; the value usually, not always, fits."""
    kinds = ["primitive", "primitive-array"]
    if depth > 0:
        kinds += ["class", "class", "reference-array", "polymorphic-array"]
    kind = draw(st.sampled_from(kinds))
    if kind == "primitive":
        return draw(st.sampled_from(PRIMITIVES)), draw(scalars)
    if kind == "primitive-array":
        items = draw(st.one_of(st.lists(scalars, max_size=6).map(tuple),
                               st.lists(scalars, max_size=6),
                               st.text(max_size=6), st.integers(0, 3)))
        return ArrayType(draw(st.sampled_from(PRIMITIVES))), items
    if kind == "reference-array":
        element, _ = draw(typed_cases(depth=depth - 1))
        if isinstance(element, PrimitiveType):
            # A primitive *declared* type with a single boxed member.
            element = draw(st.sampled_from([NotAType(), ClassType("Box", [
                Field("v", element)])]))
        length = draw(st.integers(0, 3))
        values = [draw(typed_cases(depth=depth - 1))[1]
                  for _ in range(length)]
        if isinstance(element, ClassType):
            values = [draw(class_value(element, depth - 1))
                      for _ in range(length)]
        declared = element if isinstance(element, DataType) \
            else ClassType("Object")
        return ArrayType(declared, element_type_set=(element,)), \
            tuple(values)
    if kind == "polymorphic-array":
        a = ClassType("A", [Field("x", draw(st.sampled_from(PRIMITIVES)))])
        b = ClassType("B")
        length = draw(st.sampled_from([0, 0, 0, 1, 2]))
        return ArrayType(a, element_type_set=(a, b)), \
            tuple((0,) for _ in range(length))
    udt = draw(class_types(depth))
    return udt, draw(class_value(udt, depth))


@st.composite
def class_types(draw, depth):
    fields = []
    for index in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(
            ["primitive"] * 3 + ["single"] * 4 + ["polymorphic"]))
        if shape == "primitive":
            # The type-set of a primitive field is never consulted.
            fields.append(Field(f"f{index}", draw(st.sampled_from(PRIMITIVES)),
                                type_set=draw(st.sampled_from(
                                    [None, (ClassType("X"), ClassType("Y"))]))))
            continue
        target, _ = draw(typed_cases(depth=depth - 1))
        declared = target if not isinstance(target, PrimitiveType) \
            else ClassType("Object")
        if shape == "single":
            fields.append(Field(f"f{index}", declared, type_set=(target,)))
        else:
            fields.append(Field(f"f{index}", declared,
                                type_set=(target, ClassType("Other"))))
    return ClassType(draw(st.sampled_from(["P", "Q", "R"])), fields)


@st.composite
def class_value(draw, udt, depth):
    """A value for *udt*: right arity and shape, unless drawn otherwise."""
    items = []
    for field in udt.fields:
        target = field.get_type_set()[0]
        if isinstance(field.declared_type, PrimitiveType) \
                or not isinstance(target, DataType):
            items.append(draw(scalars))
        elif isinstance(target, ClassType):
            items.append(draw(class_value(target, depth - 1)))
        elif isinstance(target, ArrayType):
            items.append(draw(array_value(target, depth - 1)))
        else:
            items.append(draw(scalars))
    mutation = draw(st.sampled_from(
        ["none"] * 8 + ["list", "list", "drop", "extra", "bare"]))
    if mutation == "list":
        return items
    if mutation == "drop" and items:
        items.pop()
    elif mutation == "extra":
        items.append(draw(scalars))
    elif mutation == "bare" and len(items) == 1:
        return items[0]      # a one-field class accepts the bare value
    return tuple(items)


@st.composite
def array_value(draw, udt, depth):
    targets = udt.element_field.get_type_set()
    length = draw(st.integers(0, 3))
    if len(targets) == 1 and isinstance(targets[0], ClassType):
        return tuple(draw(class_value(targets[0], depth - 1))
                     for _ in range(length))
    if len(targets) == 1 and isinstance(targets[0], ArrayType):
        return tuple(draw(array_value(targets[0], depth - 1))
                     for _ in range(length))
    return tuple(draw(scalars) for _ in range(length))


@given(typed_cases())
@settings(max_examples=400, deadline=None)
def test_compiled_typed_matches_walker(case):
    udt, value = case
    assert_same_typed(udt, value)


@given(typed_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_compiled_typed_sees_type_graph_edits(case, data):
    """Edits made after the first measurement are never answered stale."""
    udt, value = case
    assert_same_typed(udt, value)
    classes = [t for t in _reachable(udt) if isinstance(t, ClassType)]
    arrays = [t for t in _reachable(udt) if isinstance(t, ArrayType)]
    edit = data.draw(st.sampled_from(["add-field", "retarget", "element"]))
    if edit == "add-field" and classes:
        data.draw(st.sampled_from(classes)).add_field(
            Field("added", data.draw(st.sampled_from(PRIMITIVES))))
    elif edit == "retarget" and any(c.fields for c in classes):
        owner = data.draw(st.sampled_from([c for c in classes if c.fields]))
        field = data.draw(st.sampled_from(owner.fields))
        field.type_set = data.draw(st.sampled_from([
            (ArrayType(PRIMITIVES[3]),), (ClassType("Empty"),),
            (ClassType("A"), ClassType("B"))]))
    elif edit == "element" and arrays:
        data.draw(st.sampled_from(arrays)).element_field.type_set = \
            data.draw(st.sampled_from([(PRIMITIVES[7],), (ClassType("E"),),
                                       (ClassType("A"), ClassType("B"))]))
    assert_same_typed(udt, value)


def _reachable(root):
    seen, pending = [], [root]
    while pending:
        node = pending.pop()
        if any(node is s for s in seen) or not isinstance(node, DataType):
            continue
        seen.append(node)
        if isinstance(node, ClassType):
            for field in node.fields:
                pending.extend(field.get_type_set())
        elif isinstance(node, ArrayType):
            pending.extend(node.element_field.get_type_set())
    return seen


# -- the cases the issue names, pinned ---------------------------------------

def _poly_array():
    a, b = ClassType("A", [Field("x", PRIMITIVES[4])]), ClassType("B")
    return ArrayType(a, element_type_set=(a, b))


def test_empty_polymorphic_array_measures_but_a_filled_one_raises():
    arr = _poly_array()
    assert assert_same_typed(arr, ()) == RecordFootprint(1, 16, 0)
    kind, message = assert_same_typed(arr, ((1,),))
    assert kind is MemoryLayoutError and "polymorphic element" in message


def test_arity_check_precedes_polymorphism_checks():
    holder = ClassType("Holder", [
        Field("poly", ClassType("Object"),
              type_set=(ClassType("A"), ClassType("B"))),
        Field("items", _poly_array())])
    kind, message = assert_same_typed(holder, (None,))
    assert kind is MemoryLayoutError and "arity 1" in message
    kind, message = assert_same_typed(holder, (None, ((1,),)))
    assert kind is MemoryLayoutError and "Holder.poly" in message


def test_polymorphic_field_raises_only_when_reached():
    inner = ClassType("Inner", [Field("v", PRIMITIVES[4])])
    holder = ClassType("Holder", [
        Field("first", inner),
        Field("poly", ClassType("Object"),
              type_set=(ClassType("A"), ClassType("B")))])
    # The earlier field's own error wins: fields are measured in order.
    kind, message = assert_same_typed(holder, ((1, 2), None))
    assert kind is MemoryLayoutError and "Inner" in message
    kind, message = assert_same_typed(holder, ((1,), None))
    assert kind is MemoryLayoutError and "Holder.poly" in message


def test_unknown_type_cannot_be_measured():
    kind, message = assert_same_typed(NotAType(), 1)
    assert (kind, message) == (MemoryLayoutError, "cannot measure NotAType")


def test_recursive_type_grown_with_add_field_is_never_stale():
    """Recursive types are built incrementally: measure, grow, measure."""
    node = ClassType("Node", [Field("value", PRIMITIVES[4])])
    assert assert_same_typed(node, (7,)) == RecordFootprint(1, 16, 4)
    node.add_field(Field("children", ArrayType(node)))
    tree = (1, ((2, ()), (3, ((4, ()),))))
    grown = assert_same_typed(node, tree)
    assert grown.objects == 8 and grown.data_bytes == 16
    # The one-field shape no longer fits the two-field class.
    kind, _ = assert_same_typed(node, (7,))
    assert kind is MemoryLayoutError
    # Memoized class properties were invalidated too.
    assert [f.name for f in node.fields] == ["value", "children"]
    assert node.reference_field_count == 1
    assert node.primitive_payload_bytes == 4
    assert node.shallow_object_bytes == sizing.object_bytes(1, 4)


def _nested():
    """``Outer(id, Inner(xs: double[], tag: int))`` and a fitting value."""
    xs = Field("xs", ArrayType(PRIMITIVES[7]))
    inner = ClassType("Inner", [xs, Field("tag", PRIMITIVES[4])])
    held = Field("inner", inner)
    outer = ClassType("Outer", [Field("id", PRIMITIVES[6]), held])
    return outer, inner, xs, held, (1, ((1.0, 2.0), 3))


def test_parent_measurer_sees_add_field_on_a_child_type():
    """The child is folded into the parent's function, so dropping the
    child's own compiled state cannot be what keeps the parent fresh."""
    outer, inner, _, _, value = _nested()
    before = assert_same_typed(outer, value)
    compiled = outer._measurer
    inner.add_field(Field("extra", PRIMITIVES[7]))
    kind, message = assert_same_typed(outer, value)
    assert kind is MemoryLayoutError and "Inner's 3 fields" in message
    grown = assert_same_typed(outer, (1, ((1.0, 2.0), 3, 0.5)))
    assert grown.data_bytes == before.data_bytes + 8
    assert outer._measurer is not compiled


def test_parent_measurer_sees_a_child_type_set_repointed():
    outer, _, xs, held, value = _nested()
    before = assert_same_typed(outer, value)
    # A grandchild edge: double[] becomes byte[].
    xs.type_set = (ArrayType(PRIMITIVES[1]),)
    assert assert_same_typed(outer, value).data_bytes \
        == before.data_bytes - 2 * 7
    # The child edge itself: Inner becomes a one-field class.
    held.type_set = (ClassType("Slim", [Field("v", PRIMITIVES[4])]),)
    kind, message = assert_same_typed(outer, value)
    assert kind is MemoryLayoutError and "Slim's 1 fields" in message
    assert assert_same_typed(outer, (1, (5,))) == RecordFootprint(2, 40, 12)
    # ... and polymorphic: the raise is emitted in place.
    held.type_set = (ClassType("A"), ClassType("B"))
    kind, message = assert_same_typed(outer, value)
    assert kind is MemoryLayoutError and "Outer.inner" in message


def test_an_array_element_type_set_repointed_under_a_compiled_parent():
    boxes = ArrayType(ClassType("Box", [Field("v", PRIMITIVES[4])]))
    holder = ClassType("Holder", [Field("items", boxes)])
    value = (((1,), (2,)),)
    assert assert_same_typed(holder, value).objects == 4
    boxes.element_field.type_set = (
        ClassType("Pair", [Field("a", PRIMITIVES[4]),
                           Field("b", PRIMITIVES[4])]),)
    kind, message = assert_same_typed(holder, value)
    assert kind is MemoryLayoutError and "Pair's 2 fields" in message
    assert assert_same_typed(holder, (((1, 2), (3, 4)),)).data_bytes == 16


def test_an_unrelated_edit_recompiles_but_measures_the_same():
    """The epoch is global: any edit makes every compiled function stale,
    and a stale function rebuilds itself to the same answer."""
    outer, _, _, _, value = _nested()
    expected = assert_same_typed(outer, value)
    compiled = outer._measurer
    assert_same_typed(outer, value)
    assert outer._measurer is compiled        # no edit: no recompile
    ClassType("Elsewhere", [Field("x", PRIMITIVES[4])])
    assert assert_same_typed(outer, value) == expected
    assert outer._measurer is not compiled


def test_mutually_recursive_types_call_back_through_the_edge():
    """A <-> B: each is folded into the other's function up to the
    back-edge, which calls the ancestor's own measurer."""
    a = ClassType("A", [Field("x", PRIMITIVES[4])])
    b = ClassType("B", [Field("y", PRIMITIVES[6]), Field("as", ArrayType(a))])
    a.add_field(Field("bs", ArrayType(b)))
    value = (1, ((2, ((3, ()),)),))
    assert assert_same_typed(a, value).objects == 6
    assert assert_same_typed(b, (2, ((3, ()),))).objects == 4
    b.add_field(Field("z", PRIMITIVES[4]))
    kind, message = assert_same_typed(a, value)
    assert kind is MemoryLayoutError and "B's 3 fields" in message


def test_compiled_state_stays_out_of_pickles_and_deep_copies():
    arr = ArrayType(PRIMITIVES[7])
    point = ClassType("Point", [Field("label", PRIMITIVES[7]),
                                Field("xs", arr, final=True)])
    value = (1.0, (1.0, 2.0))
    expected = assert_same_typed(point, value)
    # Only the root holds compiled state: ``arr`` is folded into it.
    assert point._measurer is not None and arr._measurer is None
    for clone in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point)):
        assert "_measurer" not in vars(clone)
        assert [f.name for f in clone.fields] == ["label", "xs"]
        assert compiled_typed(clone, value) == expected
    for primitive in PRIMITIVES:
        compiled_typed(primitive, 0)
        clone = pickle.loads(pickle.dumps(primitive))
        assert (clone.name, clone.nbytes) == (primitive.name,
                                              primitive.nbytes)


def test_compiled_measurer_dies_with_its_type():
    """No module-level table, and no type <-> measurer reference cycle:
    dropping the last reference frees the type at once, collector off."""
    arr = ArrayType(PRIMITIVES[7])
    point = ClassType("Point", [Field("xs", arr, final=True)])
    compiled_typed(point, ((1.0, 2.0),))
    alive = [weakref.ref(point), weakref.ref(arr)]
    gc.disable()
    try:
        del point, arr
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


# -- random Python values -----------------------------------------------------

class Color(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


class Ratio(float):
    pass


Pair = collections.namedtuple("Pair", "left right")


class Opaque:
    pass


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8),
    st.binary(max_size=8).map(bytearray),
    st.sampled_from([Color.RED, Tag("tag"), Ratio(0.5), Opaque(),
                     frozenset({1}), 2 + 3j, range(3)]))

hashable = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.text(max_size=4),
                     st.tuples(st.integers(), st.text(max_size=2)))

python_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda pair: Pair(*pair)),
        st.dictionaries(hashable, inner, max_size=3),
        st.dictionaries(hashable, inner, max_size=3).map(
            collections.OrderedDict)),
    max_leaves=12)


@given(python_values)
@settings(max_examples=400, deadline=None)
def test_compiled_generic_matches_walker(value):
    assert outcome(compiled_generic, value) \
        == outcome(measure_generic, value)


def test_generic_none_is_the_zero_footprint():
    assert compiled_generic(None) is ZERO_FOOTPRINT
    assert compiled_generic((None, 1)) == measure_generic((None, 1))


# -- flat sequences: the closed form against the walker ------------------------

# One kind of item per draw: the boxed leaves the closed form takes, and
# look-alikes it must leave to the walker (subclasses, strings).
item_kinds = st.sampled_from([
    st.floats(allow_nan=False), st.integers(), st.booleans(), st.none(),
    st.just(Color.RED), st.floats(allow_nan=False).map(Ratio),
    st.text(max_size=3)])
odd_items = st.one_of(st.text(max_size=2), st.integers(), st.booleans(),
                      st.none(), st.floats(allow_nan=False),
                      st.just(Color.RED), st.just(Ratio(0.5)),
                      st.just(Opaque()))


@st.composite
def flat_sequences(draw):
    """A tuple or list of one kind of item, or nearly: a ``bool`` among
    ``int``s, or a different item between a first and last of one type."""
    items = draw(st.lists(draw(item_kinds), max_size=12))
    shape = draw(st.sampled_from(["same", "same", "bool-int", "odd-middle"]))
    if shape == "bool-int":
        items = [draw(st.one_of(st.booleans(), st.integers()))
                 for _ in items]
    elif shape == "odd-middle" and len(items) >= 3:
        items[draw(st.integers(1, len(items) - 2))] = draw(odd_items)
    return draw(st.sampled_from([tuple, list]))(items)


@given(st.one_of(flat_sequences(),
                 st.lists(flat_sequences().map(tuple), max_size=4),
                 st.lists(flat_sequences().map(tuple), max_size=4).map(
                     tuple)))
@settings(max_examples=500, deadline=None)
def test_closed_form_matches_walker(value):
    assert outcome(compiled_generic, value) \
        == outcome(measure_generic, value)


def test_closed_form_pinned_cases():
    cases = [(), [], (1.0,) * 10, [2] * 3, (True, False), (None,) * 4,
             (True, 1), (1, True, 2), (1.0, "x", 2.0), (None, 1, None),
             (Color.RED,) * 3, (Ratio(0.5), Ratio(1.5)), [(1.0, 2.0), (3,)]]
    for value in cases:
        assert compiled_generic(value) == measure_generic(value), value
    assert compiled_generic((None,) * 4) == RecordFootprint(1, 32, 0)
    assert compiled_generic((True,) * 2) == RecordFootprint(
        3, sizing.object_bytes(2, 0) + 2 * sizing.boxed_bytes("boolean"), 2)


def test_flat_homogeneous_sequences_never_reach_the_walker(monkeypatch):
    import repro.spark.measure as measure

    def walker(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(measure, "_generic_items", walker)
    for value in ((1.0,) * 10, [7] * 5, (False,), [None, None]):
        assert compiled_generic(value) == measure_generic(value)
    # Lists of flat tuples walk the list, not the tuples.
    monkeypatch.undo()
    calls = []
    original = measure._generic_items
    monkeypatch.setattr(measure, "_generic_items",
                        lambda *args: calls.append(1) or original(*args))
    value = [(1.0, 2.0), (3.0, 4.0), (5, 6)]
    assert compiled_generic(value) == measure_generic(value)
    assert len(calls) == 1
    # A mixed pair skips the homogeneity pass and walks.
    assert compiled_generic(("word", 1)) == measure_generic(("word", 1))
    assert len(calls) == 2
