"""Tests for Algorithm 1 — the local classification analysis."""

import pytest

from repro.analysis import (
    ArrayType,
    ClassType,
    DOUBLE,
    Field,
    INT,
    LONG,
    SizeType,
    classify_locally,
    max_variability,
)
from repro.analysis.udt import type_dependency_cycle
from repro.apps.udts import DOUBLE_ARRAY, DenseVector, LabeledPoint, Vector
from repro.errors import AnalysisError, TypeGraphError


class TestPrimitivesAndSimpleClasses:
    def test_primitive_is_sfst(self):
        assert classify_locally(DOUBLE) is SizeType.STATIC_FIXED

    def test_class_of_primitives_is_sfst(self):
        point = ClassType("Point", [Field("x", DOUBLE), Field("y", DOUBLE)])
        assert classify_locally(point) is SizeType.STATIC_FIXED

    def test_empty_class_is_sfst(self):
        assert classify_locally(ClassType("Marker")) is SizeType.STATIC_FIXED


class TestArrays:
    def test_array_of_primitives_is_rfst(self):
        assert classify_locally(ArrayType(DOUBLE)) is SizeType.RUNTIME_FIXED

    def test_array_of_sfst_classes_is_rfst(self):
        point = ClassType("Point", [Field("x", DOUBLE)])
        assert classify_locally(ArrayType(point)) is SizeType.RUNTIME_FIXED

    def test_array_of_arrays_is_vst(self):
        # Inner arrays are RFSTs held by a (non-final) element field.
        assert classify_locally(ArrayType(ArrayType(INT))) \
            is SizeType.VARIABLE


class TestFieldFinality:
    def test_final_rfst_field_keeps_rfst(self):
        holder = ClassType("Holder", [
            Field("data", ArrayType(DOUBLE), final=True)])
        assert classify_locally(holder) is SizeType.RUNTIME_FIXED

    def test_nonfinal_rfst_field_becomes_vst(self):
        holder = ClassType("Holder", [
            Field("data", ArrayType(DOUBLE), final=False)])
        assert classify_locally(holder) is SizeType.VARIABLE

    def test_nonfinal_sfst_field_stays_sfst(self):
        # Reassigning to an object of the same static size is harmless.
        point = ClassType("Point", [Field("x", DOUBLE)])
        holder = ClassType("Holder", [Field("p", point, final=False)])
        assert classify_locally(holder) is SizeType.STATIC_FIXED


class TestTypeSets:
    def test_field_takes_most_variable_member_of_type_set(self):
        fixed = ClassType("Fixed", [Field("x", DOUBLE)])
        growable = ClassType("Growable", [
            Field("buf", ArrayType(DOUBLE), final=False)])
        holder = ClassType("Holder", [
            Field("v", fixed, type_set=(fixed, growable), final=True)])
        assert classify_locally(holder) is SizeType.VARIABLE

    def test_empty_type_set_is_rejected(self):
        with pytest.raises(TypeGraphError):
            Field("v", DOUBLE, type_set=())


class TestRecursiveTypes:
    def test_self_reference_is_recursively_defined(self):
        node = ClassType("Node", [Field("value", INT)])
        node.add_field(Field("next", node))
        assert classify_locally(node) is SizeType.RECURSIVELY_DEFINED

    def test_mutual_recursion_is_detected(self):
        a = ClassType("A")
        b = ClassType("B", [Field("a", a)])
        a.add_field(Field("b", b))
        assert classify_locally(a) is SizeType.RECURSIVELY_DEFINED
        cycle = type_dependency_cycle(a)
        assert cycle is not None and cycle[0] is cycle[-1]

    def test_recursion_through_array(self):
        node = ClassType("TreeNode", [Field("key", LONG)])
        node.add_field(Field("children", ArrayType(node), final=True))
        assert classify_locally(node) is SizeType.RECURSIVELY_DEFINED

    def test_diamond_sharing_is_not_a_cycle(self):
        shared = ClassType("Shared", [Field("x", INT)])
        left = ClassType("Left", [Field("s", shared)])
        right = ClassType("Right", [Field("s", shared)])
        top = ClassType("Top", [Field("l", left), Field("r", right)])
        assert type_dependency_cycle(top) is None
        assert classify_locally(top) is SizeType.STATIC_FIXED


class TestPaperRunningExample:
    """Fig. 3: LabeledPoint classifies as VST locally."""

    def test_labeled_point_is_vst(self):
        assert classify_locally(LabeledPoint) is SizeType.VARIABLE

    def test_dense_vector_is_rfst(self):
        assert classify_locally(DenseVector) is SizeType.RUNTIME_FIXED

    def test_data_array_is_rfst(self):
        assert classify_locally(DOUBLE_ARRAY) is SizeType.RUNTIME_FIXED

    def test_final_features_would_still_be_rfst(self):
        """§3.3: even a final features field only reaches RFST locally."""
        lp = ClassType("LabeledPoint2", [
            Field("label", DOUBLE),
            Field("features", Vector, type_set=(DenseVector,),
                  final=True),
        ])
        assert classify_locally(lp) is SizeType.RUNTIME_FIXED


class TestVariabilityOrder:
    def test_total_order(self):
        assert max_variability([]) is SizeType.STATIC_FIXED
        assert max_variability(
            [SizeType.STATIC_FIXED, SizeType.RUNTIME_FIXED]
        ) is SizeType.RUNTIME_FIXED
        assert max_variability(
            [SizeType.RUNTIME_FIXED, SizeType.VARIABLE,
             SizeType.STATIC_FIXED]
        ) is SizeType.VARIABLE

    def test_recursively_defined_has_no_rank(self):
        with pytest.raises(AnalysisError):
            max_variability([SizeType.RECURSIVELY_DEFINED])

    def test_decomposability(self):
        assert SizeType.STATIC_FIXED.decomposable
        assert SizeType.RUNTIME_FIXED.decomposable
        assert not SizeType.VARIABLE.decomposable
        assert not SizeType.RECURSIVELY_DEFINED.decomposable
