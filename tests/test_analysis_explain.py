"""Tests for the classification explainer."""

import pytest

from repro.analysis import (
    ArrayType,
    CallGraph,
    ClassType,
    DOUBLE,
    Field,
    INT,
    Phase,
    SizeType,
    explain_classification,
    explain_phases,
    explain_provenance,
    render_provenance,
)
from repro.analysis.phased import PhasedClassifier
from repro.apps.udts import (
    AdjacencyList,
    GRAPH_BUILD,
    GRAPH_ITERATE,
    LabeledPoint,
    Tuple2,
    WC_STAGE,
)
from tests.lr_programs import lr_stage

NEIGHBORS = AdjacencyList.field("neighbors")


class TestExplainLocal:
    def test_running_example_names_the_culprit_field(self):
        text = explain_classification(LabeledPoint)
        assert "local (Algorithm 1): variable" in text
        assert "var features" in text
        assert "non-final field holding RFSTs" in text
        assert "verdict: variable" in text

    def test_recursive_type_shows_the_cycle(self):
        node = ClassType("Node", [Field("v", INT)])
        node.add_field(Field("next", node))
        text = explain_classification(node)
        assert "recursively-defined" in text
        assert "Node -> Node" in text

    def test_array_explanation(self):
        text = explain_classification(ArrayType(DOUBLE))
        assert "element: static-fixed" in text


class TestExplainGlobal:
    def test_refined_verdict_with_fixed_length_evidence(self):
        cg = CallGraph.build(lr_stage(10), known_types=(LabeledPoint,))
        text = explain_classification(LabeledPoint, cg)
        assert "global (Algorithms 2-4): static-fixed" in text
        assert "fixed-length" in text
        assert "length = 10" in text
        assert "(decomposable)" in text

    def test_wordcount_explains_variable_lengths(self):
        cg = CallGraph.build(WC_STAGE, known_types=(Tuple2,))
        text = explain_classification(Tuple2, cg)
        assert "runtime-fixed" in text

    def test_adjacency_not_init_only_in_build_stage(self):
        cg = CallGraph.build(GRAPH_BUILD,
                             known_types=(AdjacencyList,))
        text = explain_classification(AdjacencyList, cg)
        assert "NOT init-only" in text
        assert "kept in object form" in text

    def test_assume_init_only_flips_the_verdict(self):
        cg = CallGraph.build(GRAPH_ITERATE,
                             known_types=(AdjacencyList,))
        text = explain_classification(
            AdjacencyList, cg, assume_init_only=(NEIGHBORS,))
        assert "verdict: runtime-fixed (decomposable)" in text

    def test_no_callgraph_notes_the_limitation(self):
        text = explain_classification(LabeledPoint)
        assert "global refinement unavailable" in text


class TestProvenance:
    def test_provenance_steps_carry_stable_rule_ids(self):
        cg = CallGraph.build(lr_stage(10), known_types=(LabeledPoint,))
        prov = explain_provenance(LabeledPoint, cg)
        assert prov.verdict is SizeType.STATIC_FIXED
        assert prov.decomposable
        rules = prov.rules_fired()
        assert "algorithm-1.local" in rules
        assert "algorithm-2.global" in rules
        assert "algorithm-3.fixed-length" in rules
        assert "verdict" in rules

    def test_provenance_to_dict_is_machine_readable(self):
        cg = CallGraph.build(lr_stage(10), known_types=(LabeledPoint,))
        prov = explain_provenance(LabeledPoint, cg)
        data = prov.to_dict()
        assert data["udt"] == "LabeledPoint"
        assert data["verdict"] == "static-fixed"
        assert data["decomposable"] is True
        assert all({"rule", "subject", "verdict"} <= set(step)
                   for step in data["steps"])

    def test_render_provenance_matches_explain_classification(self):
        cg = CallGraph.build(lr_stage(10), known_types=(LabeledPoint,))
        assert render_provenance(explain_provenance(LabeledPoint, cg)) \
            == explain_classification(LabeledPoint, cg)

    def test_assumption_source_names_the_vouching_phase(self):
        known = (AdjacencyList,)
        phases = (
            Phase("build", CallGraph.build(GRAPH_BUILD,
                                           known_types=known)),
            Phase("iterate", CallGraph.build(GRAPH_ITERATE,
                                             known_types=known),
                  reads_materialized=True),
        )
        provs = explain_phases(AdjacencyList, phases,
                               materialized_fields=(NEIGHBORS,))
        assert provs[0].phase == "build"
        assert provs[1].phase == "iterate"
        iterate_text = render_provenance(provs[1])
        assert "vouched for by phase 'build'" in iterate_text

    def test_phase_report_keyerror_lists_known_phases(self):
        phases = (Phase("build", CallGraph.build(
            GRAPH_BUILD, known_types=(AdjacencyList,))),)
        report = PhasedClassifier(phases).classify(AdjacencyList)
        with pytest.raises(KeyError, match="build"):
            report.size_type_in("no-such-phase")
