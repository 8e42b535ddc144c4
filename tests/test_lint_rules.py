"""Per-rule tests: each DECA0xx rule has a pre-fail and a post-pass fixture."""

from repro.analysis import ArrayType, ClassType, Field, INT, LONG, SizeType
from repro.analysis.callgraph import CallGraph
from repro.analysis.phased import Phase
from repro.apps.udts import make_graph_model, make_labeled_point_model, \
    make_wordcount_model
from repro.core.plan import ContainerPlan
from repro.lint import LintTarget, Severity, run_plan_rules, \
    run_static_rules
from repro.spark.rdd import UdtInfo


def _target(info: UdtInfo, name: str = "test/cache:t", **kwargs
            ) -> LintTarget:
    return LintTarget(name=name, udt_info=info, container="cache", **kwargs)


def _rules_fired(findings):
    return {f.rule_id for f in findings}


class TestDeca001MutableField:
    def test_fires_when_a_reassigned_field_holds_rfsts(self):
        model = make_labeled_point_model(dimensions=10, fixed_length=False)
        info = UdtInfo(udt=model.labeled_point,
                       entry_method=model.stage_entry)
        findings = run_static_rules(_target(info))
        assert _rules_fired(findings) == {"DECA001"}
        finding = findings[0]
        assert finding.severity is Severity.WARNING
        assert finding.subject == "LabeledPoint.features"
        assert finding.why  # the provenance chain explains the verdict
        assert any("algorithm" in step for step in finding.why)

    def test_clean_on_the_papers_fixed_length_program(self):
        model = make_labeled_point_model(dimensions=10, fixed_length=True)
        info = UdtInfo(udt=model.labeled_point,
                       entry_method=model.stage_entry)
        assert run_static_rules(_target(info)) == []


class TestDeca002PhaseEscape:
    def test_fires_when_the_phase_itself_assigns_an_assumed_field(self):
        model = make_graph_model()
        # The build stage grows the neighbor array (stores outside the
        # constructor) — vouching init-only for it there is unsound.
        info = UdtInfo(udt=model.adjacency,
                       entry_method=model.build_stage_entry,
                       known_types=(model.adjacency,),
                       assume_init_only=(model.neighbors_field,))
        findings = run_static_rules(_target(info))
        assert "DECA002" in _rules_fired(findings)
        escape = next(f for f in findings if f.rule_id == "DECA002")
        assert escape.severity is Severity.ERROR
        assert escape.subject == "AdjacencyList.neighbors"

    def test_clean_when_the_phase_only_reads(self):
        model = make_graph_model()
        info = UdtInfo(udt=model.adjacency,
                       entry_method=model.iterate_stage_entry,
                       known_types=(model.adjacency,),
                       assume_init_only=(model.neighbors_field,))
        assert run_static_rules(_target(info)) == []

    def test_names_the_vouching_phase_when_known(self):
        model = make_graph_model()
        known = (model.adjacency,)
        phases = (
            Phase("build", CallGraph.build(model.build_stage_entry,
                                           known_types=known)),
            # Deliberately broken: the "iterate" phase runs the build
            # entry, so it assigns the field it claims was materialized.
            Phase("iterate", CallGraph.build(model.build_stage_entry,
                                             known_types=known),
                  reads_materialized=True),
        )
        info = UdtInfo(udt=model.adjacency,
                       entry_method=model.build_stage_entry,
                       known_types=known)
        findings = run_static_rules(_target(
            info, phases=phases,
            materialized_fields=(model.neighbors_field,),
            container_phase="iterate"))
        escape = next(f for f in findings if f.rule_id == "DECA002")
        assert "phase 'build'" in escape.message


class TestDeca003RecursiveType:
    def test_fires_on_a_linked_list(self):
        node = ClassType("Node", [Field("value", INT)])
        node.add_field(Field("next", node))
        findings = run_static_rules(_target(UdtInfo(udt=node)))
        assert _rules_fired(findings) == {"DECA003"}
        assert findings[0].severity is Severity.WARNING
        assert "Node -> Node" in findings[0].message

    def test_clean_on_an_acyclic_type(self):
        model = make_wordcount_model()
        info = UdtInfo(udt=model.tuple2, entry_method=model.stage_entry)
        assert run_static_rules(_target(info)) == []


class TestDeca004UnprovenSymbolicLength:
    def test_fires_when_the_dimension_symbol_has_no_runtime_binding(self):
        model = make_labeled_point_model(dimensions=None)
        info = UdtInfo(udt=model.labeled_point,
                       entry_method=model.stage_entry)  # no runtime_symbols
        findings = run_static_rules(_target(info))
        assert _rules_fired(findings) == {"DECA004"}
        finding = findings[0]
        assert finding.severity is Severity.WARNING
        assert finding.subject == "Array[double]"
        assert "D" in finding.message

    def test_clean_once_the_symbol_is_bound(self):
        model = make_labeled_point_model(dimensions=None)
        info = UdtInfo(udt=model.labeled_point,
                       entry_method=model.stage_entry,
                       runtime_symbols={"D": 8, "D2": 8})
        assert run_static_rules(_target(info)) == []


class TestDeca005PlanContradiction:
    def test_fires_when_a_plan_decomposes_a_vst(self):
        report = ContainerPlan(target="cache:x.rows", udt="LabeledPoint",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.VARIABLE,
                               decomposed=True, reason="forced for the test")
        findings = run_plan_rules("x", (report,), ())
        assert _rules_fired(findings) == {"DECA005"}
        assert findings[0].severity is Severity.ERROR
        assert "variable" in findings[0].message

    def test_fires_when_the_container_phase_disagrees(self):
        model = make_graph_model()
        known = (model.adjacency,)
        phases = (
            Phase("build", CallGraph.build(model.build_stage_entry,
                                           known_types=known)),
            Phase("iterate", CallGraph.build(model.iterate_stage_entry,
                                             known_types=known),
                  reads_materialized=True),
        )
        info = UdtInfo(udt=model.adjacency,
                       entry_method=model.iterate_stage_entry,
                       known_types=known,
                       assume_init_only=(model.neighbors_field,))
        # Deliberately broken: the cache claims to live in the *build*
        # phase, where the neighbor array still grows.
        target = _target(info, name="x/cache:x.adjacency", phases=phases,
                         materialized_fields=(model.neighbors_field,),
                         container_phase="build")
        report = ContainerPlan(target="cache:x.adjacency",
                               udt="AdjacencyList",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.RUNTIME_FIXED,
                               decomposed=True, reason="decomposed")
        findings = run_plan_rules("x", (report,), (target,))
        assert _rules_fired(findings) == {"DECA005"}
        assert "phase 'build'" in findings[0].message

    def test_clean_when_plan_and_phases_agree(self):
        model = make_graph_model()
        known = (model.adjacency,)
        phases = (
            Phase("build", CallGraph.build(model.build_stage_entry,
                                           known_types=known)),
            Phase("iterate", CallGraph.build(model.iterate_stage_entry,
                                             known_types=known),
                  reads_materialized=True),
        )
        info = UdtInfo(udt=model.adjacency,
                       entry_method=model.iterate_stage_entry,
                       known_types=known,
                       assume_init_only=(model.neighbors_field,))
        target = _target(info, name="x/cache:x.adjacency", phases=phases,
                         materialized_fields=(model.neighbors_field,),
                         container_phase="iterate")
        report = ContainerPlan(target="cache:x.adjacency",
                               udt="AdjacencyList",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.RUNTIME_FIXED,
                               decomposed=True, reason="decomposed")
        assert run_plan_rules("x", (report,), (target,)) == []


class TestDeca006UnanalyzedContainer:
    def test_notes_containers_without_a_udt(self):
        report = ContainerPlan(target="shuffle:0:x.edges", udt=None,
                               local_size_type=None, global_size_type=None,
                               decomposed=False, reason="no UDT declared")
        findings = run_plan_rules("x", (report,), ())
        assert _rules_fired(findings) == {"DECA006"}
        assert findings[0].severity is Severity.NOTE

    def test_silent_for_analyzed_object_form_containers(self):
        report = ContainerPlan(target="cache:x.rows", udt="LabeledPoint",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.VARIABLE,
                               decomposed=False,
                               reason="size-type variable cannot be safely "
                                      "decomposed")
        assert run_plan_rules("x", (report,), ()) == []


class TestDeca007ElementAssumption:
    def test_fires_when_an_element_field_is_assumed_init_only(self):
        array = ArrayType(LONG)
        holder = ClassType("Holder", [Field("xs", array, final=True)])
        info = UdtInfo(udt=holder,
                       assume_init_only=(array.element_field,))
        findings = run_static_rules(_target(info))
        assert _rules_fired(findings) == {"DECA007"}
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert finding.subject == "Holder.<element>"

    def test_clean_without_the_element_assumption(self):
        array = ArrayType(LONG)
        holder = ClassType("Holder", [Field("xs", array, final=True)])
        assert run_static_rules(_target(UdtInfo(udt=holder))) == []


class TestBundledTargets:
    def test_every_registered_app_is_statically_clean(self):
        from repro.lint import LINT_APPS

        for app in LINT_APPS:
            for target in app.make_targets():
                assert run_static_rules(target) == [], \
                    f"unexpected findings on {target.name}"
