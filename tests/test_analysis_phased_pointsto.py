"""Tests for phased refinement (§3.4) and container ownership (§4.3)."""

import pytest

from repro.analysis import (
    CallGraph,
    ContainerKind,
    ContainerRef,
    CreationSite,
    Phase,
    PhasedClassifier,
    PointsToBinding,
    SizeType,
    assign_all,
    assign_ownership,
)
from repro.apps.udts import AdjacencyList, Edge, GRAPH_BUILD, GRAPH_ITERATE
from repro.errors import AnalysisError

NEIGHBORS = AdjacencyList.field("neighbors")


def graph_phases():
    build = Phase(
        name="build",
        callgraph=CallGraph.build(GRAPH_BUILD,
                                  known_types=(AdjacencyList,)))
    iterate = Phase(
        name="iterate",
        callgraph=CallGraph.build(GRAPH_ITERATE,
                                  known_types=(AdjacencyList,)),
        reads_materialized=True)
    return PhasedClassifier((build, iterate))


class TestPhasedRefinement:
    def test_adjacency_varies_by_phase(self):
        """Fig. 7(b): VST while grouped, RFST once cached."""
        classifier = graph_phases()
        report = classifier.classify(
            AdjacencyList, materialized_fields=(NEIGHBORS,))
        assert report.size_type_in("build") is SizeType.VARIABLE
        assert report.size_type_in("iterate") is SizeType.RUNTIME_FIXED
        assert report.ever_decomposable

    def test_local_result_is_recorded(self):
        classifier = graph_phases()
        report = classifier.classify(
            AdjacencyList, materialized_fields=(NEIGHBORS,))
        assert report.local is SizeType.VARIABLE

    def test_sfst_stays_sfst_everywhere(self):
        classifier = graph_phases()
        report = classifier.classify(Edge)
        assert all(st is SizeType.STATIC_FIXED
                   for _, st in report.by_phase)

    def test_unknown_phase_raises(self):
        classifier = graph_phases()
        report = classifier.classify(Edge)
        with pytest.raises(KeyError):
            report.size_type_in("nonexistent")


def site(name="points", stage=0):
    from repro.analysis import DOUBLE
    return CreationSite(name=name, udt=DOUBLE, stage_id=stage)


def ref(kind, name, stage=0, order=0):
    return ContainerRef(kind=kind, name=name, stage_id=stage,
                        creation_order=order)


class TestOwnershipRules:
    def test_cache_outranks_udf_variables(self):
        binding = PointsToBinding(site())
        binding.bind(ref(ContainerKind.UDF_VARIABLES, "locals"))
        binding.bind(ref(ContainerKind.CACHE_BLOCK, "rdd1", order=1))
        ownership = assign_ownership(binding)
        assert ownership.primary.kind is ContainerKind.CACHE_BLOCK
        assert ownership.secondaries[0].kind is ContainerKind.UDF_VARIABLES

    def test_shuffle_outranks_udf_variables(self):
        binding = PointsToBinding(site())
        binding.bind(ref(ContainerKind.UDF_VARIABLES, "locals"))
        binding.bind(ref(ContainerKind.SHUFFLE_BUFFER, "shuf", order=1))
        assert assign_ownership(binding).primary.kind \
            is ContainerKind.SHUFFLE_BUFFER

    def test_first_created_high_priority_wins(self):
        """§4.3 rule 2: earliest-created container owns the objects."""
        binding = PointsToBinding(site())
        binding.bind(ref(ContainerKind.CACHE_BLOCK, "rdd2", order=5))
        binding.bind(ref(ContainerKind.SHUFFLE_BUFFER, "shuf", order=2))
        ownership = assign_ownership(binding)
        assert ownership.primary.name == "shuf"
        assert [c.name for c in ownership.secondaries] == ["rdd2"]

    def test_single_container_has_no_secondaries(self):
        binding = PointsToBinding(site())
        binding.bind(ref(ContainerKind.CACHE_BLOCK, "rdd"))
        ownership = assign_ownership(binding)
        assert ownership.secondaries == ()
        assert ownership.all_containers == (ownership.primary,)

    def test_unbound_site_is_an_error(self):
        with pytest.raises(AnalysisError):
            assign_ownership(PointsToBinding(site()))

    def test_assign_all_preserves_order(self):
        b1 = PointsToBinding(site("a"))
        b1.bind(ref(ContainerKind.CACHE_BLOCK, "rdd"))
        b2 = PointsToBinding(site("b"))
        b2.bind(ref(ContainerKind.UDF_VARIABLES, "locals"))
        results = assign_all([b1, b2])
        assert [o.site.name for o in results] == ["a", "b"]

    def test_earlier_stage_wins_across_stages(self):
        binding = PointsToBinding(site())
        binding.bind(ref(ContainerKind.CACHE_BLOCK, "late", stage=2,
                         order=0))
        binding.bind(ref(ContainerKind.CACHE_BLOCK, "early", stage=1,
                         order=9))
        assert assign_ownership(binding).primary.name == "early"
