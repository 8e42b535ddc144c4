"""Property-based tests: byte layouts and SUDT accessors.

The core safety property of the whole system (§3.1): packing records into
byte segments and reading them back must be lossless, for any record shape
the classifier admits, and in-place writes must never disturb neighbours.
"""


import copy
import pickle
from struct import error as struct_error

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.udt import (
    BOOLEAN,
    CHAR,
    DOUBLE,
    INT,
    LONG,
    SHORT,
)
from repro.errors import MemoryLayoutError
from repro.memory.layout import (
    FixedArraySchema,
    PrimitiveSlot,
    RecordSchema,
    VarArraySchema,
)
from repro.memory.page import PageGroup
from repro.memory.sudt import synthesize_sudt

_PRIMS = {
    "boolean": (BOOLEAN, st.booleans()),
    "short": (SHORT, st.integers(-2**15, 2**15 - 1)),
    "int": (INT, st.integers(-2**31, 2**31 - 1)),
    "long": (LONG, st.integers(-2**63, 2**63 - 1)),
    "double": (DOUBLE, st.floats(allow_nan=False, width=64)),
    "char": (CHAR, st.integers(0, 2**16 - 1)),
}


@st.composite
def schema_and_value(draw, max_fields=5, kinds=("prim", "fixed-array",
                                                "var-array"), depth=1):
    """A random record schema together with a matching value.

    The first field is always a primitive so the record never has zero
    size (which :class:`RecordSchema` rejects).  With ``depth > 0`` and
    the kinds ``"record"`` / ``"record-array"`` enabled, fields may be
    nested records or fixed arrays of records (one level per *depth*).
    """
    field_count = draw(st.integers(1, max_fields))
    fields = []
    values = []
    for index in range(field_count):
        kind = ("prim" if index == 0 else draw(st.sampled_from(
            [k for k in kinds if depth > 0 or not k.startswith("record")])))
        prim_name = draw(st.sampled_from(sorted(_PRIMS)))
        prim, value_strategy = _PRIMS[prim_name]
        if kind == "prim":
            fields.append((f"f{index}", PrimitiveSlot(prim)))
            values.append(draw(value_strategy))
        elif kind == "fixed-array":
            length = draw(st.integers(0, 6))
            fields.append((f"f{index}",
                           FixedArraySchema(PrimitiveSlot(prim), length)))
            values.append(tuple(draw(value_strategy)
                                for _ in range(length)))
        elif kind == "var-array":
            length = draw(st.integers(0, 6))
            fields.append((f"f{index}",
                           VarArraySchema(PrimitiveSlot(prim))))
            values.append(tuple(draw(value_strategy)
                                for _ in range(length)))
        else:
            # Array elements must be fixed-size.
            inner_kinds = (kinds if kind == "record" else
                           tuple(k for k in kinds if k != "var-array"))
            inner, inner_value = draw(schema_and_value(
                max_fields=3, kinds=inner_kinds, depth=depth - 1))
            if kind == "record":
                fields.append((f"f{index}", inner))
                values.append(inner_value)
            else:   # record-array: every element shares the drawn value
                length = draw(st.integers(0, 3))
                fields.append((f"f{index}",
                               FixedArraySchema(inner, length)))
                values.append((inner_value,) * length)
    return RecordSchema("R", fields), tuple(values)


_FIXED_KINDS = ("prim", "fixed-array", "record", "record-array")
fixed_schema_and_value = schema_and_value(kinds=_FIXED_KINDS, depth=2)
any_schema_and_value = schema_and_value(
    kinds=_FIXED_KINDS + ("var-array",), depth=2)


@given(schema_and_value())
@settings(max_examples=200)
def test_pack_unpack_roundtrip(case):
    schema, value = case
    packed = schema.pack(value)
    assert len(packed) == schema.size_of(value)
    assert schema.unpack(packed) == value


@given(st.lists(schema_and_value(max_fields=3), min_size=1, max_size=1),
       st.integers(2, 40))
@settings(max_examples=50)
def test_page_group_scan_matches_appends(case, count):
    """Appending N records and scanning returns them in order."""
    (schema, value), = case
    group = PageGroup("g", page_bytes=64)
    for _ in range(count):
        group.append_record(schema, value)
    records = list(group.records(schema))
    assert records == [value] * count
    assert group.used_bytes == schema.size_of(value) * count


@given(schema_and_value(), st.data())
@settings(max_examples=100)
def test_accessor_reads_match_unpack(case, data):
    schema, value = case
    buf = bytearray(schema.size_of(value))
    schema.pack_into(buf, 0, value)
    Sudt = synthesize_sudt(schema)
    accessor = Sudt(buf, 0)
    for (name, field_schema), expected in zip(schema.fields, value):
        got = getattr(accessor, name)
        if isinstance(field_schema, PrimitiveSlot):
            assert got == expected
        else:
            assert tuple(got) == tuple(expected)
    assert accessor.data_size() == schema.size_of(value)


@given(schema_and_value())
@settings(max_examples=100)
def test_neighbouring_records_are_isolated(case):
    """Writing through an accessor never disturbs adjacent records."""
    schema, value = case
    size = schema.size_of(value)
    buf = bytearray(3 * size)
    for slot in range(3):
        schema.pack_into(buf, slot * size, value)
    Sudt = synthesize_sudt(schema)
    middle = Sudt(buf, size)
    # Overwrite every primitive field of the middle record with zeros.
    for name, field_schema in schema.fields:
        if isinstance(field_schema, PrimitiveSlot):
            setattr(middle, name, type(getattr(middle, name))(0))
    left, _ = schema.unpack_from(buf, 0)
    right, _ = schema.unpack_from(buf, 2 * size)
    assert left == value
    assert right == value


# -- the flat codec against the per-field walk ------------------------------
# The per-field walkers (``_pack_fields`` / ``_unpack_fields``) stay in the
# engine as the slow path behind the compiled codec; here they are the
# oracle the codec is compared with.


@given(fixed_schema_and_value)
@settings(max_examples=200)
def test_codec_matches_field_walk(case):
    schema, value = case
    size = schema.fixed_size
    fast, slow = bytearray(size + 3), bytearray(size + 3)
    assert schema.pack_into(fast, 3, value) == size + 3
    assert schema._pack_fields(slow, 3, value) == size + 3
    assert fast == slow
    assert schema.unpack_from(fast, 3) == schema._unpack_fields(fast, 3) \
        == (value, size + 3)
    codec = schema.flat_codec()
    assert codec.reshape(codec.flatten(value)) == value
    assert codec.struct.size == size
    # Lists are vouched for too, at every level.
    as_lists = _listify(value)
    assert codec.flatten(as_lists) == codec.flatten(value)


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


@given(any_schema_and_value, st.integers(0, 5))
@settings(max_examples=200)
def test_iter_unpack_matches_repeated_unpack_from(case, count):
    schema, value = case
    blob = schema.pack(value) * count
    expected = []
    offset = 0
    while offset < len(blob):
        item, offset = schema.unpack_from(blob, offset)
        expected.append(item)
    assert list(schema.iter_unpack(blob)) == expected == [value] * count
    assert list(schema.iter_unpack(memoryview(bytearray(blob)))) == expected


@given(any_schema_and_value, st.integers(1, 3), st.data())
@settings(max_examples=100)
def test_iter_unpack_refuses_a_partial_trailing_record(case, count, data):
    schema, value = case
    packed = schema.pack(value)
    assume(len(packed) > 1)
    cut = data.draw(st.integers(1, len(packed) - 1))
    with pytest.raises((MemoryLayoutError, struct_error)):
        list(schema.iter_unpack((packed * count)[:-cut]))


def _outcome(call):
    try:
        return call()
    except Exception as exc:    # compared, not swallowed
        return type(exc), str(exc)


def _corruptions(schema, value):
    """Malformed variants of *value*: each replaces one node of the tree."""
    yield value[:-1]                        # wrong arity
    yield value + (0,)
    yield "x" * len(value)                  # str for a record
    yield dict.fromkeys(range(len(value)))  # dict for a record
    yield None
    for index, (_, field) in enumerate(schema.fields):
        def patched(item):
            return value[:index] + (item,) + value[index + 1:]
        if isinstance(field, PrimitiveSlot):
            yield patched(None)
            if field.primitive.name == "short":
                yield patched(2 ** 15)
        elif isinstance(field, FixedArraySchema):
            yield patched(value[index] + value[index][:1]
                          if value[index] else (0,))     # wrong length
            yield patched(None)
        elif isinstance(field, RecordSchema):
            for bad in _corruptions(field, value[index]):
                yield patched(bad)


@given(fixed_schema_and_value)
@settings(max_examples=150)
def test_malformed_values_fail_identically_on_both_paths(case):
    schema, value = case
    size = schema.fixed_size
    for bad in _corruptions(schema, value):
        fast, slow = bytearray(size), bytearray(size)
        got = _outcome(lambda: schema.pack_into(fast, 0, bad))
        want = _outcome(lambda: schema._pack_fields(slow, 0, bad))
        assert got == want
        assert fast == slow         # partial writes agree as well
    # A buffer too small for the record fails the same way too.
    assert _outcome(lambda: schema.pack_into(bytearray(size - 1), 0, value)) \
        == _outcome(lambda: schema._pack_fields(bytearray(size - 1), 0,
                                                value))
    assert _outcome(lambda: schema.unpack_from(bytes(size - 1), 0)) \
        == _outcome(lambda: schema._unpack_fields(bytes(size - 1), 0))


@given(any_schema_and_value)
@settings(max_examples=50)
def test_schema_pickles_and_deep_copies_after_first_use(case):
    schema, value = case
    packed = schema.pack(value)         # first use compiles the codec
    assert list(schema.iter_unpack(packed)) == [value]
    for clone in (pickle.loads(pickle.dumps(schema)),
                  copy.deepcopy(schema)):
        assert clone is not schema
        assert "_codec" not in vars(clone)
        assert repr(clone) == repr(schema)
        assert clone.fixed_size == schema.fixed_size
        assert clone.pack(value) == packed
        assert clone.unpack(packed) == value


def test_short_out_of_range_message_is_the_field_walk_message():
    schema = RecordSchema("R", [("a", PrimitiveSlot(DOUBLE)),
                                ("b", PrimitiveSlot(SHORT))])
    with pytest.raises(struct_error, match="short format requires"):
        schema.pack_into(bytearray(schema.fixed_size), 0, (1.0, 2 ** 15))
    with pytest.raises(MemoryLayoutError, match="expects 2 values, got 3"):
        schema.pack_into(bytearray(schema.fixed_size), 0, (1.0, 2, 3))
    with pytest.raises(MemoryLayoutError, match="expects a tuple/list, got str"):
        schema.pack_into(bytearray(schema.fixed_size), 0, "ab")
