"""Tests for repro.memory.sudt — synthesized accessor classes."""

import pytest

from repro.analysis import CallGraph, GlobalClassifier
from repro.apps.udts import DOUBLE_ARRAY, LabeledPoint, Tuple2, WC_STAGE
from repro.errors import PageOverflowError
from repro.memory import PageGroup, build_schema, synthesize_sudt
from repro.memory.layout import (
    PrimitiveSlot,
    RecordSchema,
    VarArraySchema,
)
from repro.analysis import CHAR, INT
from tests.lr_programs import lr_stage


def labeled_point_schema(dims=4):
    cg = CallGraph.build(lr_stage(dims), known_types=(LabeledPoint,))
    size_type = GlobalClassifier(cg).classify(LabeledPoint)
    return build_schema(LabeledPoint, size_type,
                        fixed_lengths={id(DOUBLE_ARRAY): dims})


class TestPrimitiveAccess:
    def test_read_fields(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (1.5, (1.0, 2.0, 3.0, 4.0)))
        acc = Sudt(buf, 0)
        assert acc.label == 1.5
        assert acc.features.offset == 0
        assert acc.features.stride == 1

    def test_write_fields_in_place(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (1.5, (0.0,) * 4))
        acc = Sudt(buf, 0)
        acc.label = -3.0
        assert acc.label == -3.0
        # The change hit the underlying bytes, not a shadow object.
        assert schema.unpack(buf)[0] == -3.0

    def test_accessor_is_flyweight(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(2 * schema.fixed_size)
        schema.pack_into(buf, 0, (1.0, (0.0,) * 4))
        schema.pack_into(buf, schema.fixed_size,
                         (2.0, (0.0,) * 4))
        acc = Sudt()
        labels = [acc.bind(buf, off).label
                  for off in (0, schema.fixed_size)]
        assert labels == [1.0, 2.0]

    def test_class_is_cached_per_schema(self):
        schema = labeled_point_schema()
        assert synthesize_sudt(schema) is synthesize_sudt(schema)


class TestArrayAccess:
    def test_fixed_array_view(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (0.0, (1.0, 2.0, 3.0, 4.0)))
        data = Sudt(buf, 0).features.data
        assert len(data) == 4
        assert data[2] == 3.0
        assert list(data) == [1.0, 2.0, 3.0, 4.0]
        data[0] = 9.0
        assert Sudt(buf, 0).features.data[0] == 9.0

    def test_out_of_bounds(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (0.0, (0.0,) * 4))
        with pytest.raises(IndexError):
            Sudt(buf, 0).features.data[4]

    def test_var_array_length_is_per_record(self):
        schema = RecordSchema("S", [
            ("chars", VarArraySchema(PrimitiveSlot(CHAR))),
            ("n", PrimitiveSlot(INT)),
        ])
        Sudt = synthesize_sudt(schema)
        group = PageGroup("g", page_bytes=128)
        p1 = group.append_record(schema, ((104, 105), 1))
        p2 = group.append_record(schema, ((104, 105, 106), 2))
        buf, off = group.read(p2)
        acc = Sudt(buf, off)
        assert len(acc.chars) == 3
        assert acc.n == 2
        buf, off = group.read(p1)
        assert len(acc.bind(buf, off).chars) == 2

    def test_resizing_is_forbidden(self):
        schema = RecordSchema("S", [
            ("chars", VarArraySchema(PrimitiveSlot(CHAR))),
        ])
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.size_of(((1, 2),)))
        schema.pack_into(buf, 0, ((1, 2),))
        view = Sudt(buf, 0).chars
        with pytest.raises(PageOverflowError):
            view.replace((1, 2, 3))

    def test_replace_same_length_ok(self):
        schema = RecordSchema("S", [
            ("chars", VarArraySchema(PrimitiveSlot(CHAR))),
        ])
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.size_of(((1, 2),)))
        schema.pack_into(buf, 0, ((1, 2),))
        acc = Sudt(buf, 0)
        acc.chars.replace((7, 8))
        assert acc.chars.to_tuple() == (7, 8)


class TestDataSize:
    def test_fixed_record_data_size(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (0.0, (0.0,) * 4))
        assert Sudt(buf, 0).data_size() == schema.fixed_size

    def test_variable_record_data_size(self):
        cg = CallGraph.build(WC_STAGE, known_types=(Tuple2,))
        size_type = GlobalClassifier(cg).classify(Tuple2)
        schema = build_schema(Tuple2, size_type)
        Sudt = synthesize_sudt(schema)
        value = ("spark", 3)
        buf = bytearray(schema.size_of(value))
        schema.pack_into(buf, 0, value)
        # 4 (prefix) + 5*2 (chars) + 4 (count)
        assert Sudt(buf, 0).data_size() == 18

    def test_whole_record_rewrite_same_size(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (0.0, (0.0,) * 4))
        acc = Sudt(buf, 0)
        acc.write((5.0, (9.0, 8.0, 7.0, 6.0)))
        assert acc.label == 5.0
        assert acc.features.data.to_tuple() == (9.0, 8.0, 7.0, 6.0)

    def test_whole_record_resize_is_forbidden(self):
        # Two records back to back in one page: growing the first would
        # overwrite the second (§3.1), so the write must fail before it
        # touches a byte.
        schema = RecordSchema("S", [
            ("chars", VarArraySchema(PrimitiveSlot(CHAR))),
        ])
        group = PageGroup("resize", 4096)
        first = group.append_record(schema, ((1, 2),))
        group.append_record(schema, ((3, 4),))
        buf, off = group.read(first)
        before = bytes(buf[:group.used_bytes])
        acc = synthesize_sudt(schema)(buf, off)
        with pytest.raises(PageOverflowError):
            acc.write(((5, 6, 7),))
        assert bytes(buf[:group.used_bytes]) == before
        assert acc.to_tuple() == ((1, 2),)


class TestTypedArrayView:
    def test_typed_view_casts_primitive_array(self):
        schema = labeled_point_schema()
        Sudt = synthesize_sudt(schema)
        buf = bytearray(schema.fixed_size)
        schema.pack_into(buf, 0, (1.5, (1.0, 2.0, 3.0, 4.0)))
        view = Sudt(buf, 0).features.data.typed_view()
        assert view.format == "d"
        assert list(view) == [1.0, 2.0, 3.0, 4.0]
        view.release()

    def test_typed_view_matches_to_tuple(self):
        cg = CallGraph.build(WC_STAGE, known_types=(Tuple2,))
        size_type = GlobalClassifier(cg).classify(Tuple2)
        schema = build_schema(Tuple2, size_type)
        Sudt = synthesize_sudt(schema)
        value = ("page", 2)
        buf = bytearray(schema.size_of(value))
        schema.pack_into(buf, 0, value)
        arr = Sudt(buf, 0).word.value
        assert tuple(arr.typed_view()) == arr.to_tuple()
