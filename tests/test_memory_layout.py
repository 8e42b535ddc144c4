"""Tests for repro.memory.layout — byte-layout schemas."""

import pytest

from repro.analysis import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    Field,
    INT,
    LONG,
    SizeType,
)
from repro.errors import MemoryLayoutError
from repro.memory import (
    FixedArraySchema,
    PrimitiveSlot,
    RecordSchema,
    VarArraySchema,
    build_schema,
)
from repro.memory.layout import reorder_fields_fixed_first


class TestPrimitiveSlot:
    @pytest.mark.parametrize("prim,value", [
        (DOUBLE, 3.25), (INT, -7), (LONG, 2**40), (BOOLEAN, True),
        (CHAR, ord("x")),
    ])
    def test_roundtrip(self, prim, value):
        slot = PrimitiveSlot(prim)
        assert slot.unpack(slot.pack(value)) == value

    def test_sizes_match_jvm(self):
        assert PrimitiveSlot(DOUBLE).fixed_size == 8
        assert PrimitiveSlot(INT).fixed_size == 4
        assert PrimitiveSlot(CHAR).fixed_size == 2


class TestRecordSchema:
    def make_point(self):
        return RecordSchema("Point", [
            ("x", PrimitiveSlot(DOUBLE)),
            ("y", PrimitiveSlot(DOUBLE)),
            ("id", PrimitiveSlot(INT)),
        ])

    def test_fixed_size_is_sum(self):
        assert self.make_point().fixed_size == 20

    def test_static_offsets(self):
        schema = self.make_point()
        assert schema.field_offsets == (0, 8, 16)

    def test_roundtrip(self):
        schema = self.make_point()
        value = (1.5, -2.5, 42)
        assert schema.unpack(schema.pack(value)) == value

    def test_wrong_arity_rejected(self):
        with pytest.raises(MemoryLayoutError):
            self.make_point().pack((1.0, 2.0))

    def test_empty_record_rejected(self):
        with pytest.raises(MemoryLayoutError):
            RecordSchema("Empty", [])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(MemoryLayoutError):
            RecordSchema("Dup", [("x", PrimitiveSlot(INT)),
                                 ("x", PrimitiveSlot(INT))])

    def test_variable_record(self):
        schema = RecordSchema("S", [
            ("chars", VarArraySchema(PrimitiveSlot(CHAR))),
            ("count", PrimitiveSlot(INT)),
        ])
        assert schema.fixed_size is None
        value = ((104, 105), 7)
        packed = schema.pack(value)
        assert schema.unpack(packed) == value
        # offset of count is dynamic (after the var array).
        assert schema.field_offsets == (0, None)
        assert schema.field_offset(packed, 0, 1) == 4 + 2 * 2


class TestArraySchemas:
    def test_fixed_array_roundtrip(self):
        schema = FixedArraySchema(PrimitiveSlot(DOUBLE), 4)
        assert schema.fixed_size == 32
        value = (1.0, 2.0, 3.0, 4.0)
        assert schema.unpack(schema.pack(value)) == value

    def test_fixed_array_length_mismatch(self):
        schema = FixedArraySchema(PrimitiveSlot(DOUBLE), 4)
        with pytest.raises(MemoryLayoutError):
            schema.pack((1.0,))

    def test_var_array_roundtrip(self):
        schema = VarArraySchema(PrimitiveSlot(LONG))
        for value in [(), (5,), tuple(range(100))]:
            assert schema.unpack(schema.pack(value)) == value

    def test_var_array_size_of(self):
        schema = VarArraySchema(PrimitiveSlot(LONG))
        assert schema.size_of((1, 2, 3)) == 4 + 24

    def test_var_array_needs_fixed_elements(self):
        with pytest.raises(MemoryLayoutError):
            VarArraySchema(VarArraySchema(PrimitiveSlot(INT)))

    def test_nested_record_elements(self):
        point = RecordSchema("P", [("x", PrimitiveSlot(INT))])
        schema = VarArraySchema(point)
        value = ((1,), (2,), (3,))
        assert schema.unpack(schema.pack(value)) == value


class TestBuildSchema:
    def test_vst_is_rejected(self):
        holder = ClassType("H", [
            Field("buf", ArrayType(DOUBLE), final=False)])
        with pytest.raises(MemoryLayoutError):
            build_schema(holder, SizeType.VARIABLE)

    def test_recursive_type_is_rejected(self):
        node = ClassType("Node", [Field("v", INT)])
        node.add_field(Field("next", node))
        with pytest.raises(MemoryLayoutError):
            build_schema(node, SizeType.RUNTIME_FIXED)

    def test_polymorphic_field_is_rejected(self):
        a = ClassType("A", [Field("x", INT)])
        b = ClassType("B", [Field("y", DOUBLE)])
        holder = ClassType("H", [Field("v", a, type_set=(a, b), final=True)])
        with pytest.raises(MemoryLayoutError):
            build_schema(holder, SizeType.RUNTIME_FIXED)

    def test_sfst_with_fixed_length_hint(self):
        arr = ArrayType(DOUBLE)
        holder = ClassType("H", [Field("data", arr, final=True),
                                 Field("n", INT)])
        schema = build_schema(holder, SizeType.STATIC_FIXED,
                              fixed_lengths={id(arr): 3})
        assert schema.fixed_size == 3 * 8 + 4

    def test_rfst_without_hint_gets_length_prefix(self):
        arr = ArrayType(DOUBLE)
        holder = ClassType("H", [Field("data", arr, final=True)])
        schema = build_schema(holder, SizeType.RUNTIME_FIXED)
        assert schema.fixed_size is None
        value = ((1.0, 2.0),)
        assert schema.size_of(value) == 4 + 16


class TestFieldReordering:
    def test_fixed_fields_move_first(self):
        schema = RecordSchema("S", [
            ("chars", VarArraySchema(PrimitiveSlot(CHAR))),
            ("count", PrimitiveSlot(INT)),
        ])
        reordered = reorder_fields_fixed_first(schema)
        assert [n for n, _ in reordered.fields] == ["count", "chars"]
        # count now has a static offset.
        assert reordered.field_offsets[0] == 0


class TestColumnLayouts:
    def test_fixed_column_roundtrip(self):
        from repro.memory.layout import FixedColumnLayout
        layout = FixedColumnLayout("i")
        values = [3, -7, 2**30, 0]
        run = layout.emit(values)
        assert len(run) == len(values) * layout.item_size
        view = layout.view(bytearray(run), 0, len(run))
        assert list(view) == values
        view.release()

    @pytest.mark.parametrize("code,values", [
        ("q", [2**40, -2**40, 0]),
        ("d", [1.5, -0.25, 1e9]),
    ])
    def test_fixed_column_codes(self, code, values):
        from repro.memory.layout import FixedColumnLayout
        layout = FixedColumnLayout(code)
        run = layout.emit(values)
        assert list(layout.view(bytearray(run), 0, len(run))) == values

    def test_fixed_view_rejects_misaligned_length(self):
        from repro.memory.layout import FixedColumnLayout
        layout = FixedColumnLayout("i")
        with pytest.raises(MemoryLayoutError):
            layout.view(bytearray(7), 0, 7)

    def test_string_column_roundtrip(self):
        from repro.memory.layout import StringColumnLayout
        layout = StringColumnLayout()
        values = ["", "spark", "déca", "x" * 100]
        offsets_run, blob_run = layout.emit(values)
        view = layout.view(bytearray(offsets_run), 0, len(offsets_run),
                           bytearray(blob_run), 0, len(blob_run))
        assert view.count == len(values)
        assert list(view) == values
        assert [view.get(i) for i in range(len(values))] == values

    def test_string_prefix_is_clamped(self):
        from repro.memory.layout import StringColumnLayout
        layout = StringColumnLayout()
        offsets_run, blob_run = layout.emit(["ab", "wxyz"])
        view = layout.view(bytearray(offsets_run), 0, len(offsets_run),
                           bytearray(blob_run), 0, len(blob_run))
        assert view.get_prefix(0, 10) == "ab"
        assert view.get_prefix(1, 2) == "wx"

    @pytest.mark.parametrize("values", [
        ["", "spark", "x" * 100, "deca"],          # ASCII: one decode, sliced
        ["", "déca", "\U0001F600x", "abc", "日本語"],  # decoded per row
    ])
    def test_string_bulk_reads_match_point_reads(self, values):
        from repro.memory.layout import StringColumnLayout
        layout = StringColumnLayout()
        offsets_run, blob_run = layout.emit(values)
        view = layout.view(bytearray(offsets_run), 0, len(offsets_run),
                           bytearray(blob_run), 0, len(blob_run))
        rows = range(len(values))
        assert view.values() == values
        assert view.take([2, 0, 2]) == [values[2], values[0], values[2]]
        for length in (0, 1, 3, 64):
            # SUBSTR is a character prefix, never a byte prefix.
            expected = [value[:length] for value in values]
            assert view.prefixes(length) == expected
            assert [view.get_prefix(row, length) for row in rows] \
                == expected

    def test_string_view_release_is_idempotent(self):
        from repro.memory.layout import StringColumnLayout
        layout = StringColumnLayout()
        offsets_run, blob_run = layout.emit(["a"])
        view = layout.view(bytearray(offsets_run), 0, len(offsets_run),
                           bytearray(blob_run), 0, len(blob_run))
        view.release()
        view.release()


class TestColumnarPlan:
    def test_primitive_fields_plan_fixed(self):
        from repro.memory.layout import FixedColumnLayout, columnar_plan
        udt = ClassType("P", [Field("a", INT, final=True),
                              Field("b", DOUBLE, final=True)])
        schema = build_schema(udt, SizeType.STATIC_FIXED)
        plan = columnar_plan(schema)
        assert [name for name, _ in plan] == ["a", "b"]
        assert [type(c) for _, c in plan] == [FixedColumnLayout] * 2

    def test_char_array_plans_string(self):
        from repro.memory.layout import StringColumnLayout, columnar_plan
        udt = ClassType("S", [Field("s", ArrayType(CHAR), final=True)])
        schema = build_schema(udt, SizeType.RUNTIME_FIXED)
        ((name, layout),) = columnar_plan(schema)
        assert name == "s"
        assert isinstance(layout, StringColumnLayout)

    def test_double_array_has_no_column_layout(self):
        from repro.memory.layout import columnar_plan
        udt = ClassType("V", [Field("v", ArrayType(DOUBLE), final=True)])
        schema = build_schema(udt, SizeType.RUNTIME_FIXED)
        with pytest.raises(MemoryLayoutError):
            columnar_plan(schema)
