"""The static deca-lint rules (``DECA001``–``DECA007``).

Each rule walks the same artifacts the classification pipeline produces —
the UDT model, the per-stage call graph, the symbolized-constant facts and
the optimizer's :class:`~repro.core.plan.ContainerPlan` per container — and
emits findings whose ``why`` chains are the provenance steps of
:func:`repro.analysis.explain.explain_provenance`, so a finding always
shows the algorithm trail that led to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.callgraph import CallGraph
from ..analysis.explain import Provenance, explain_provenance
from ..analysis.global_refine import GlobalClassifier
from ..analysis.phased import Phase, PhasedClassifier
from ..analysis.symconst import Affine
from ..analysis.udt import ArrayType, ClassType, Field, PrimitiveType, \
    type_dependency_cycle, walk_types
from ..core.plan import ContainerPlan
from ..spark.rdd import UdtInfo
from .findings import Finding, make_finding


@dataclass(frozen=True)
class LintTarget:
    """One container-of-records the linter audits.

    *container* is ``"cache"`` or ``"shuffle"`` (the two primary container
    families of §4.2); *phases*/*materialized_fields*/*container_phase*
    describe the phased refinement context (§3.4) when the target's
    classification rests on another phase's work.
    """

    name: str
    udt_info: UdtInfo
    container: str
    location: str = "src/repro/apps/udts.py"
    phases: tuple[Phase, ...] = ()
    materialized_fields: tuple[Field, ...] = ()
    container_phase: str | None = None

    def assumed_fields(self) -> tuple[Field, ...]:
        """All fields whose init-only status is assumed, deduplicated."""
        seen: dict[int, Field] = {}
        for field in (*self.udt_info.assume_init_only,
                      *self.materialized_fields):
            seen.setdefault(id(field), field)
        return tuple(seen.values())


def run_static_rules(target: LintTarget) -> list[Finding]:
    """Run every static rule against *target*."""
    findings: list[Finding] = []
    info = target.udt_info
    callgraph = info.callgraph()
    assumed = target.assumed_fields()
    provenance = explain_provenance(
        info.udt, callgraph, assume_init_only=assumed,
        assumption_source=_vouching_phase(target))

    findings.extend(_check_recursive(target, provenance))
    findings.extend(_check_assumed_elements(target, assumed, provenance))
    if callgraph is not None:
        classifier = GlobalClassifier(
            callgraph, assume_init_only=assumed,
            assumption_source=_vouching_phase(target))
        findings.extend(_check_mutable_fields(target, classifier,
                                              provenance))
        findings.extend(_check_phase_escapes(target, callgraph, assumed,
                                             provenance))
        findings.extend(_check_symbolic_lengths(target, classifier,
                                                provenance))
    return findings


def run_plan_rules(app: str, plans: tuple[ContainerPlan, ...],
                   targets: tuple[LintTarget, ...]) -> list[Finding]:
    """Rules over the optimizer's decomposition decisions.

    ``DECA005`` — a decomposition plan contradicting the (phased)
    classification; ``DECA006`` — containers holding records the analysis
    never saw.
    """
    findings: list[Finding] = []
    for plan in plans:
        plan_target = f"{app}/{plan.target}"
        if plan.udt is None:
            kind = ("cache block" if plan.target.startswith("cache:")
                    else "shuffle buffer")
            findings.append(make_finding(
                "DECA006", plan_target, plan.target,
                f"{kind} holds records with no declared UDT; the analysis "
                f"never saw their type and they stay in object form "
                f"({plan.reason})",
                why=(f"[optimizer.plan] {plan.reason}",)))
            continue
        if not plan.decomposed:
            continue
        if plan.global_size_type is None \
                or not plan.global_size_type.decomposable:
            claimed = (plan.global_size_type.value
                       if plan.global_size_type else "?")
            findings.append(make_finding(
                "DECA005", plan_target, plan.udt,
                f"plan decomposed {plan.udt} although its global "
                f"size-type is {claimed} — only SFSTs/RFSTs may be "
                "decomposed (§3.1)",
                why=(f"[optimizer.plan] {plan.reason}",)))
            continue
        findings.extend(_check_phase_contradiction(app, plan, targets))
    return findings


# -- DECA001 ----------------------------------------------------------------
def _check_mutable_fields(target: LintTarget,
                          classifier: GlobalClassifier,
                          provenance: Provenance) -> list[Finding]:
    findings: list[Finding] = []
    for node in walk_types(target.udt_info.udt):
        if not isinstance(node, ClassType):
            continue
        for field in node.fields:
            if field.name == "<element>" or field.final:
                continue
            holds_rfst = any(
                not isinstance(t, PrimitiveType)
                and not classifier.srefine(t)
                and classifier.rrefine(t)
                for t in field.get_type_set())
            if holds_rfst and not classifier.is_init_only(field):
                subject = f"{node.name}.{field.name}"
                findings.append(make_finding(
                    "DECA001", target.name, subject,
                    f"non-final field {subject} holds runtime-fixed "
                    "types and is reassigned in scope; the reassignment "
                    "can change the record's data-size, so "
                    f"{target.udt_info.udt.name} stays variable-sized "
                    "and is kept in object form",
                    location=target.location,
                    why=_why(provenance, subjects=(subject,))))
    return findings


# -- DECA002 ----------------------------------------------------------------
def _check_phase_escapes(target: LintTarget, callgraph: CallGraph,
                         assumed: tuple[Field, ...],
                         provenance: Provenance) -> list[Finding]:
    findings: list[Finding] = []
    for field in assumed:
        if field.name == "<element>":
            continue  # DECA007's business
        if not callgraph.stores_outside_constructors(field):
            continue
        owner = callgraph.field_owner(field)
        subject = (f"{owner.name}.{field.name}" if owner is not None
                   else field.name)
        vouched_by = _vouching_phase(target)
        vouched = (f"phase {vouched_by!r}" if vouched_by
                   else "an earlier phase")
        findings.append(make_finding(
            "DECA002", target.name, subject,
            f"field {subject} is vouched init-only by {vouched}, but "
            "this phase's own code assigns it — the reference escapes "
            "the phase boundary and the init-only assumption is unsound",
            location=target.location,
            why=_why(provenance, subjects=(subject,))))
    return findings


# -- DECA003 ----------------------------------------------------------------
def _check_recursive(target: LintTarget,
                     provenance: Provenance) -> list[Finding]:
    udt = target.udt_info.udt
    cycle = type_dependency_cycle(udt)
    if cycle is None:
        return []
    path = " -> ".join(t.name for t in cycle)
    return [make_finding(
        "DECA003", target.name, udt.name,
        f"{udt.name} has a cyclic type dependency graph ({path}); "
        "recursively-defined types can never be decomposed (§3.1)",
        location=target.location,
        why=_why(provenance, rules=("algorithm-1.recursive",)))]


# -- DECA004 ----------------------------------------------------------------
def _check_symbolic_lengths(target: LintTarget,
                            classifier: GlobalClassifier,
                            provenance: Provenance) -> list[Finding]:
    findings: list[Finding] = []
    info = target.udt_info
    facts = classifier.callgraph.facts
    for node in walk_types(info.udt):
        if not isinstance(node, ArrayType):
            continue
        if classifier.is_assumed_fixed_length(node):
            continue
        if not classifier.is_fixed_length(node):
            continue
        sites = facts.sites_for_type(node)
        if not sites:
            continue
        length = sites[0].length
        if not isinstance(length, Affine) or length.is_constant:
            continue
        unresolved = sorted(label for label, _ in length.coeffs
                            if label not in info.runtime_symbols)
        if not unresolved:
            continue
        symbols = ", ".join(unresolved)
        findings.append(make_finding(
            "DECA004", target.name, node.name,
            f"{node.name} is proved fixed-length, but the proof rests on "
            f"symbolic constant(s) {symbols} with no runtime binding; "
            "the hybrid optimizer (App. A) cannot resolve the length at "
            "plan time and falls back to a length-prefixed layout",
            location=target.location,
            why=_why(provenance, subjects=(node.name,))))
    return findings


# -- DECA005 (phase contradiction) ------------------------------------------
def _check_phase_contradiction(app: str, plan: ContainerPlan,
                               targets: tuple[LintTarget, ...]
                               ) -> list[Finding]:
    container = "cache" if plan.target.startswith("cache:") else "shuffle"
    for target in targets:
        if target.udt_info.udt.name != plan.udt \
                or target.container != container:
            continue
        if not target.phases or target.container_phase is None:
            continue
        phased = PhasedClassifier(target.phases)
        phase_report = phased.classify(target.udt_info.udt,
                                       target.materialized_fields)
        in_phase = phase_report.size_type_in(target.container_phase)
        if not in_phase.decomposable:
            return [make_finding(
                "DECA005", f"{app}/{plan.target}", plan.udt,
                f"plan decomposed {plan.udt} in the {container}, but "
                f"the phased classification says it is {in_phase.value} "
                f"in phase {target.container_phase!r} — the plan "
                "contradicts the classification (§3.4)",
                location=target.location,
                why=tuple(f"[algorithm-2.phased] phase {name!r}: "
                          f"{size_type.value}"
                          for name, size_type in phase_report.by_phase))]
    return []


# -- DECA007 ----------------------------------------------------------------
def _check_assumed_elements(target: LintTarget,
                            assumed: tuple[Field, ...],
                            provenance: Provenance) -> list[Finding]:
    findings: list[Finding] = []
    for field in assumed:
        if field.name != "<element>":
            continue
        findings.append(make_finding(
            "DECA007", target.name, f"{target.udt_info.udt.name}.<element>",
            "an array element field is assumed init-only; element fields "
            "never qualify (§3.3 rule 2: any element may be assigned any "
            "number of times), so the assumption is unsound",
            location=target.location,
            why=_why(provenance, rules=("verdict",))))
    return findings


# -- shared helpers ---------------------------------------------------------
_ALWAYS_RULES = ("algorithm-1.local", "algorithm-2.global", "verdict")


def _why(provenance: Provenance, subjects: tuple[str, ...] = (),
         rules: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Render the provenance steps relevant to one finding.

    Always includes the per-algorithm verdict steps so every chain reads
    as a complete argument, plus the steps about the named subjects.
    """
    out = []
    for step in provenance.steps:
        if step.rule in _ALWAYS_RULES or step.rule in rules \
                or step.subject in subjects:
            out.append(f"[{step.rule}] {step.detail}")
    return tuple(out)


def _vouching_phase(target: LintTarget) -> str | None:
    """The phase that materialized the target's assumed fields, if known."""
    if not target.materialized_fields or not target.phases:
        return None
    phased = PhasedClassifier(target.phases)
    for index in range(len(target.phases)):
        source = phased.assumption_source(index)
        if source is not None:
            return source
    return None


__all__ = [
    "LintTarget",
    "run_plan_rules",
    "run_static_rules",
]
