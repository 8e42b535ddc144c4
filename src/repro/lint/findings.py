"""Structured lint findings and the deca-lint rule catalogue.

Every diagnostic the linter can emit has a stable rule id.  ``DECA0xx``
rules are *static*: they fire from the UDT model, method IR, call graph,
symbolized-constant facts and the optimizer's decomposition plans.
``DECA1xx`` rules are *differential*: the shadow validator compares what
the runtime actually did (record sizes, SUDT writes) against what the
static classification promised, reporting soundness violations and
imprecision.  ``DECA20x`` rules come from the bytecode-level closure
analyzer (:mod:`repro.analysis.closures`) over the user UDFs of each
app's lineage, and ``DECA21x`` rules are their differential counterpart:
a double-run shadow check that re-executes a sampled task twice and
diffs the outputs.

A :class:`Finding` is deterministic and JSON-round-trippable; its ``why``
chain carries the provenance steps of the classification that led to the
verdict (see :mod:`repro.analysis.explain`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class Severity(enum.Enum):
    """Finding severity; the values double as SARIF levels."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        """Sort rank: errors first."""
        return _SEVERITY_RANK[self.value]


_SEVERITY_RANK = {"error": 0, "warning": 1, "note": 2}


@dataclass(frozen=True)
class Rule:
    """One catalogue entry: stable id, default severity, paper anchor."""

    rule_id: str
    name: str
    severity: Severity
    summary: str
    paper: str


RULES: tuple[Rule, ...] = (
    Rule("DECA001", "mutable-field-blocks-refinement", Severity.WARNING,
         "A non-final field holding runtime-fixed types is reassigned in "
         "scope; the reassignment forces the variable-sized verdict and "
         "keeps the type in object form", "§3.1/§3.3"),
    Rule("DECA002", "phase-boundary-escape", Severity.ERROR,
         "A field vouched init-only by an earlier phase is assigned by "
         "the current phase's own code — the reference escapes the phase "
         "boundary and the assumption is unsound", "§3.4"),
    Rule("DECA003", "recursive-type-set", Severity.WARNING,
         "The UDT's type dependency graph is cyclic; a recursively-"
         "defined type can never be decomposed", "§3.1"),
    Rule("DECA004", "unproven-symbolic-length", Severity.WARNING,
         "A fixed-length array proof rests on symbolic constants with no "
         "runtime binding; the hybrid optimizer cannot inline the array "
         "and falls back to a length-prefixed layout", "§3.3/App. A"),
    Rule("DECA005", "plan-contradicts-classification", Severity.ERROR,
         "The optimizer decomposed a container although the (phased) "
         "classification says its records are not safely decomposable "
         "there", "§3.4/§4.3"),
    Rule("DECA006", "unanalyzed-container-type", Severity.NOTE,
         "A cache/shuffle container holds records the analysis never "
         "saw (no UDT declared); they stay in object form", "§5"),
    Rule("DECA007", "element-field-init-only-assumption", Severity.ERROR,
         "An array element field is assumed init-only; element fields "
         "never qualify (§3.3 rule 2), so the assumption is unsound",
         "§3.3"),
    Rule("DECA101", "shadow-soundness-violation", Severity.ERROR,
         "The runtime resized records of a container the static analysis "
         "declared fixed-size (SFST/RFST)", "§3.1"),
    Rule("DECA102", "shadow-imprecision", Severity.NOTE,
         "The static analysis kept a container in object form although "
         "every observed record had the same data-size", "§3.1"),
    Rule("DECA201", "closure-illegal-capture", Severity.ERROR,
         "A UDF captures a live engine handle (DecaContext / RDD); the "
         "closure would ship the whole driver into every task", "§4"),
    Rule("DECA202", "closure-nondeterministic", Severity.WARNING,
         "A UDF reaches a nondeterminism source (random / time / "
         "os.environ / id / hash); retries, speculation and lineage "
         "re-execution can produce divergent results", "§4"),
    Rule("DECA203", "closure-iteration-order-hazard", Severity.WARNING,
         "A UDF iterates a captured set; the visit order is hash-seed "
         "dependent, so two runs can emit records in different orders",
         "§4"),
    Rule("DECA204", "closure-impure", Severity.WARNING,
         "A UDF has side effects (global stores, captured-cell writes, "
         "mutation through captured objects); re-executing it repeats "
         "the effects", "§4"),
    Rule("DECA205", "closure-record-escape", Severity.WARNING,
         "A UDF lets argument records outlive the call (stored into a "
         "captured container or closed over by an inner function); the "
         "lifetime analysis must handle the record conservatively",
         "§4.2"),
    Rule("DECA206", "closure-mutable-capture", Severity.NOTE,
         "A UDF captures a mutable container as a module-level global "
         "or default argument — shared state that concurrent or retried "
         "tasks can observe mid-update", "§4"),
    Rule("DECA211", "closure-shadow-nondeterminism", Severity.ERROR,
         "Re-executing a sampled task twice produced different outputs; "
         "the UDF is nondeterministic at runtime regardless of the "
         "static verdict", "§4"),
    Rule("DECA212", "closure-shadow-imprecision", Severity.NOTE,
         "A UDF the static analysis flagged nondeterministic produced "
         "identical outputs on a double-run; the sampled partition may "
         "simply not exercise the nondeterminism", "§4"),
    Rule("DECA301", "use-after-free-extent", Severity.ERROR,
         "A zero-copy view exported from a PageStoreTier extent reaches "
         "the extent's drop() on some path with no intervening release; "
         "the mmap bytes are recycled under the reader", "§4.3"),
    Rule("DECA302", "use-after-unlink-segment", Severity.ERROR,
         "A view over a shared-memory segment reaches the segment's "
         "release/unlink on some path with no intervening release; the "
         "reader holds a mapping the system already discarded", "§4.3"),
    Rule("DECA303", "double-free", Severity.ERROR,
         "An extent or segment is freed twice along one path with no "
         "reallocation between the frees; the second free returns a "
         "stranger's bytes to the free list", "§4.3"),
    Rule("DECA304", "view-escapes-adoption", Severity.ERROR,
         "A view adopted into a page group escapes through a second "
         "handle (stored, appended or returned) that outlives the "
         "group's reclaim; the refcount protocol is bypassed", "§4.3"),
    Rule("DECA305", "remap-invalidates-export", Severity.ERROR,
         "A grow/remap path replaces the backing mapping in place "
         "(resize / unguarded close) instead of retiring the old one; "
         "every exported view silently dangles", "§4.1"),
    Rule("DECA306", "leak-at-finish", Severity.WARNING,
         "A teardown path can return early without the release/drop "
         "calls its sibling paths perform; borrows and extents leak "
         "past the lifetime boundary", "§4.3"),
    Rule("DECA308", "unreleased-drain-copy", Severity.WARNING,
         "A page-group drain's transient copies are never shrunk or "
         "freed after the drain; the double-buffer footprint outlives "
         "the swap it paid for", "§4.3"),
    Rule("DECA401", "unlink-concurrent-with-attach", Severity.ERROR,
         "A shared-memory segment is unlinked and then re-attached by "
         "name on one path with no refcount acquire between them, or a "
         "tier extent is accessed across a reclaim; a concurrent attacher "
         "can map the deterministic name while the unlink is in flight "
         "(TOCTOU)", "§4.3/§5"),
    Rule("DECA402", "refcount-outside-lock", Severity.ERROR,
         "A segment refcount is mutated outside the registry lock in a "
         "class that takes the lock elsewhere; two concurrent mutators "
         "can interleave read-modify-write and lose a count", "§4.3"),
    Rule("DECA404", "borrow-evict-lost-update", Severity.ERROR,
         "An arena pool level is read, the path blocks (queue get / "
         "join / sleep), and the stale reading then feeds a pool write; "
         "a concurrent borrow or evict between the read and the write "
         "is silently overwritten", "§4/§5"),
    Rule("DECA405", "wave-barrier-bypass", Severity.ERROR,
         "A task result is consumed before the wave barrier (worker "
         "join / gather) on some path; the driver reads bytes the "
         "producing worker may still be writing", "§5"),
    Rule("DECA406", "orphan-sweep-live-worker", Severity.ERROR,
         "An orphan-segment sweep runs on a path with no preceding "
         "worker-death confirmation; a live worker's in-flight segments "
         "are unlinked under it", "§5"),
    Rule("DECA407", "reentrant-spill-victim", Severity.ERROR,
         "A spill victim is selected with no in-flight guard on the "
         "path; a re-entrant eviction (pressure raised by the spill's "
         "own transients) can re-select the block mid-swap and drain "
         "its pages twice", "§4.2/App. C"),
    Rule("DECA408", "readonly-page-write", Severity.ERROR,
         "A view adopted read-only from an attached segment is written "
         "through in the consumer process; the write races every other "
         "attacher of the same physical bytes", "§4.3"),
    Rule("DECA409", "trace-relay-reorder", Severity.WARNING,
         "Worker trace events are relayed onto the driver timeline "
         "without re-anchoring their timestamps; relayed events sort "
         "before their stage start and break timeline monotonicity",
         "§5"),
    Rule("DECA410", "double-grant", Severity.ERROR,
         "One task key can be granted twice on a path with no release "
         "between the grants; both holders charge the same fair-share "
         "slot and the arena double-counts the bytes", "§4/§5"),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule, severity, where, what, and why."""

    rule_id: str
    severity: Severity
    target: str
    subject: str
    message: str
    location: str = ""
    why: tuple[str, ...] = ()

    def sort_key(self) -> tuple[int, str, str, str, str]:
        return (self.severity.rank, self.rule_id, self.target,
                self.subject, self.message)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "target": self.target,
            "subject": self.subject,
            "message": self.message,
        }
        if self.location:
            data["location"] = self.location
        if self.why:
            data["why"] = list(self.why)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Finding":
        return cls(rule_id=data["rule"],
                   severity=Severity(data["severity"]),
                   target=data["target"],
                   subject=data["subject"],
                   message=data["message"],
                   location=data.get("location", ""),
                   why=tuple(data.get("why", ())))


def make_finding(rule_id: str, target: str, subject: str, message: str,
                 *, location: str = "",
                 why: tuple[str, ...] = ()) -> Finding:
    """Build a finding with the rule's default severity."""
    rule = RULES_BY_ID[rule_id]
    return Finding(rule_id=rule_id, severity=rule.severity, target=target,
                   subject=subject, message=message, location=location,
                   why=why)


def sort_findings(findings: list[Finding]) -> tuple[Finding, ...]:
    """Deterministic order: severity, then rule id, target, subject."""
    return tuple(sorted(findings, key=Finding.sort_key))
