"""Tests for Algorithms 2–4 — global classification and its predicates."""

from repro.analysis import (
    ArrayType,
    Assign,
    CallGraph,
    ClassType,
    Const,
    DOUBLE,
    Field,
    GlobalClassifier,
    INT,
    Local,
    Loop,
    Method,
    NewArray,
    NewObject,
    Return,
    SizeType,
    StoreField,
    SymInput,
    classify_locally,
)
from repro.analysis.ir import Call
from repro.apps.udts import (
    AdjacencyList,
    CHAR_ARRAY,
    DOUBLE_ARRAY,
    Edge,
    GRAPH_BUILD,
    GRAPH_ITERATE,
    LR_STAGE,
    LabeledPoint,
    RankMessage,
    Tuple2,
    WC_STAGE,
)
from tests.lr_programs import lr_stage


class TestPaperRunningExample:
    """Fig. 1/Fig. 3: LabeledPoint refines from VST to SFST globally."""

    def test_labeled_point_refines_to_sfst(self):
        cg = CallGraph.build(lr_stage(10), known_types=(LabeledPoint,))
        classifier = GlobalClassifier(cg)
        assert classify_locally(LabeledPoint) is SizeType.VARIABLE
        assert classifier.classify(LabeledPoint) is SizeType.STATIC_FIXED

    def test_symbolic_dimension_also_refines(self):
        cg = CallGraph.build(LR_STAGE, known_types=(LabeledPoint,))
        assert GlobalClassifier(cg).classify(LabeledPoint) \
            is SizeType.STATIC_FIXED

    def test_mixed_lengths_stay_variable(self):
        cg = CallGraph.build(lr_stage(10, fixed_length=False),
                             known_types=(LabeledPoint,))
        assert GlobalClassifier(cg).classify(LabeledPoint) \
            is SizeType.VARIABLE

    def test_features_field_is_init_only(self):
        cg = CallGraph.build(lr_stage(), known_types=(LabeledPoint,))
        assert cg.is_init_only(LabeledPoint.field("features"))

    def test_data_array_is_fixed_length(self):
        cg = CallGraph.build(lr_stage(), known_types=(LabeledPoint,))
        assert GlobalClassifier(cg).is_fixed_length(DOUBLE_ARRAY)


class TestWordCountTypes:
    def test_tuple2_refines_to_rfst(self):
        cg = CallGraph.build(WC_STAGE, known_types=(Tuple2,))
        result = GlobalClassifier(cg).classify(Tuple2)
        assert result is SizeType.RUNTIME_FIXED

    def test_char_array_is_not_fixed_length(self):
        cg = CallGraph.build(WC_STAGE, known_types=(Tuple2,))
        assert not GlobalClassifier(cg).is_fixed_length(CHAR_ARRAY)


class TestGraphTypes:
    def test_adjacency_is_vst_in_build_stage(self):
        cg = CallGraph.build(GRAPH_BUILD,
                             known_types=(AdjacencyList,))
        assert GlobalClassifier(cg).classify(AdjacencyList) \
            is SizeType.VARIABLE

    def test_adjacency_is_rfst_in_iterate_stage(self):
        cg = CallGraph.build(GRAPH_ITERATE,
                             known_types=(AdjacencyList,))
        classifier = GlobalClassifier(
            cg, assume_init_only=(AdjacencyList.field("neighbors"),))
        assert classifier.classify(AdjacencyList) is SizeType.RUNTIME_FIXED

    def test_edge_and_message_are_sfst(self):
        cg = CallGraph.build(GRAPH_BUILD, known_types=(Edge,))
        classifier = GlobalClassifier(cg)
        assert classifier.classify(Edge) is SizeType.STATIC_FIXED
        assert classifier.classify(RankMessage) is SizeType.STATIC_FIXED


class TestInitOnlyRules:
    def _scope(self, ctor_body, extra_methods=(), cls=None):
        entry_body = [NewObject("o", cls, ctor=ctor_body)]
        for method in extra_methods:
            entry_body.append(Call(None, method, receiver="o"))
        entry = Method(name="entry", body=tuple(entry_body) + (Return(),))
        return CallGraph.build(entry, known_types=(cls,))

    def test_final_field_is_init_only(self):
        arr = ArrayType(DOUBLE)
        f = Field("data", arr, final=True)
        cls = ClassType("C", [f])
        ctor = Method("<init>", body=(), owner=cls, is_constructor=True)
        cg = self._scope(ctor, cls=cls)
        assert cg.is_init_only(f)

    def test_element_field_is_never_init_only(self):
        arr = ArrayType(DOUBLE)
        cls = ClassType("C", [Field("data", arr, final=True)])
        ctor = Method("<init>", body=(), owner=cls, is_constructor=True)
        cg = self._scope(ctor, cls=cls)
        assert not cg.is_init_only(arr.element_field)

    def test_single_ctor_store_is_init_only(self):
        arr = ArrayType(DOUBLE)
        f = Field("data", arr, final=False)
        cls = ClassType("C", [f])
        ctor = Method(
            "<init>", params=("d",),
            body=(StoreField("this", f, Local("d")),),
            owner=cls, is_constructor=True)
        cg = self._scope(ctor, cls=cls)
        assert cg.is_init_only(f)

    def test_double_ctor_store_is_not_init_only(self):
        arr = ArrayType(DOUBLE)
        f = Field("data", arr, final=False)
        cls = ClassType("C", [f])
        ctor = Method(
            "<init>", params=("d",),
            body=(StoreField("this", f, Local("d")),
                  StoreField("this", f, Local("d"))),
            owner=cls, is_constructor=True)
        cg = self._scope(ctor, cls=cls)
        assert not cg.is_init_only(f)

    def test_store_in_plain_method_is_not_init_only(self):
        arr = ArrayType(DOUBLE)
        f = Field("data", arr, final=False)
        cls = ClassType("C", [f])
        ctor = Method("<init>", body=(), owner=cls, is_constructor=True)
        setter = Method(
            "setData", params=("d",),
            body=(StoreField("this", f, Local("d")),),
            owner=cls)
        cg = self._scope(ctor, extra_methods=(setter,), cls=cls)
        assert not cg.is_init_only(f)

    def test_store_in_loop_inside_ctor_is_not_init_only(self):
        arr = ArrayType(DOUBLE)
        f = Field("data", arr, final=False)
        cls = ClassType("C", [f])
        ctor = Method(
            "<init>", params=("d",),
            body=(Loop((StoreField("this", f, Local("d")),)),),
            owner=cls, is_constructor=True)
        cg = self._scope(ctor, cls=cls)
        assert not cg.is_init_only(f)

    def test_delegating_ctor_sequence_counts_both_stores(self):
        arr = ArrayType(DOUBLE)
        f = Field("data", arr, final=False)
        cls = ClassType("C", [f])
        base_ctor = Method(
            "<init>", params=("d",),
            body=(StoreField("this", f, Local("d")),),
            owner=cls, is_constructor=True)
        delegating = Method(
            "<init>2", params=("d",),
            body=(
                Call(None, base_ctor, args=(Local("d"),), receiver="this"),
                StoreField("this", f, Local("d")),
            ),
            owner=cls, is_constructor=True)
        entry = Method(
            name="entry",
            body=(NewObject("o", cls, ctor=delegating), Return()))
        cg = CallGraph.build(entry, known_types=(cls,))
        assert cg.max_stores_per_constructor_sequence(f) == 2
        assert not cg.is_init_only(f)


class TestRefinementLemmas:
    def test_rfst_refinement_requires_init_only(self):
        """Lemma 2: a VST with a non-init-only RFST field stays VST."""
        arr = ArrayType(DOUBLE)
        f = Field("buf", arr, final=False)
        cls = ClassType("Growable", [f])
        ctor = Method(
            "<init>", params=("b",),
            body=(StoreField("this", f, Local("b")),),
            owner=cls, is_constructor=True)
        grow = Method(
            "grow", params=(),
            body=(
                NewArray("bigger", arr, SymInput("newsize")),
                StoreField("this", f, Local("bigger")),
            ),
            owner=cls)
        entry = Method(
            name="entry",
            body=(
                NewArray("b", arr, SymInput("n")),
                NewObject("o", cls, ctor=ctor, args=(Local("b"),)),
                Call(None, grow, receiver="o"),
                Return(),
            ))
        cg = CallGraph.build(entry, known_types=(cls,))
        assert GlobalClassifier(cg).classify(cls) is SizeType.VARIABLE

    def test_sfst_refinement_requires_all_arrays_fixed(self):
        """Lemma 1: one variable-length array blocks SFST."""
        arr_fixed = ArrayType(DOUBLE)
        arr_var = ArrayType(INT)
        cls = ClassType("Two", [
            Field("a", arr_fixed, final=True),
            Field("b", arr_var, final=True),
        ])
        ctor = Method(
            "<init>", params=("a", "b"),
            body=(StoreField("this", cls.field("a"), Local("a")),
                  StoreField("this", cls.field("b"), Local("b"))),
            owner=cls, is_constructor=True)
        entry = Method(
            name="entry",
            body=(
                Assign("n", SymInput("n")),
                Loop((
                    NewArray("x", arr_fixed, Const(16)),
                    Assign("m", SymInput("m")),
                    NewArray("y", arr_var, Local("m")),
                    NewObject("o", cls, ctor=ctor,
                              args=(Local("x"), Local("y"))),
                )),
                Return(),
            ))
        cg = CallGraph.build(entry, known_types=(cls,))
        classifier = GlobalClassifier(cg)
        assert classifier.is_fixed_length(arr_fixed)
        assert not classifier.is_fixed_length(arr_var)
        # b's array varies across instances but is final -> RFST overall.
        assert classifier.classify(cls) is SizeType.RUNTIME_FIXED

    def test_recursively_defined_never_refines(self):
        node = ClassType("Node", [Field("v", INT)])
        node.add_field(Field("next", node))
        entry = Method(name="entry", body=(Return(),))
        cg = CallGraph.build(entry, known_types=(node,))
        assert GlobalClassifier(cg).classify(node) \
            is SizeType.RECURSIVELY_DEFINED

    def test_assumed_fixed_length_hint(self):
        arr = ArrayType(DOUBLE)
        entry = Method(name="entry", body=(Return(),))
        cg = CallGraph.build(entry)
        assert not GlobalClassifier(cg).is_fixed_length(arr)
        hinted = GlobalClassifier(cg, assume_fixed_length=(arr,))
        assert hinted.is_fixed_length(arr)
        assert hinted.classify(arr) is SizeType.STATIC_FIXED
