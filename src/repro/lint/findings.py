"""Structured lint findings.

Every diagnostic the linter can emit has a stable rule id from the one
rule table, :mod:`repro.obs.rules`.  ``DECA0xx`` rules are *static*:
they fire from the UDT model, method IR, call graph, symbolized-constant
facts and the optimizer's decomposition plans.  ``DECA1xx`` rules are
*differential*: the shadow validator compares what the runtime actually
did (the record sizes in the run's sanitizer lifetime book, the arena
bytes in its trace) against what the static classification promised,
reporting soundness violations and imprecision.  ``DECA20x`` rules come
from the bytecode-level closure analyzer (:mod:`repro.analysis.closures`)
over the user UDFs of each app's lineage, and ``DECA21x`` rules are
their differential counterpart: a double-run shadow check that
re-executes a sampled task twice and diffs the outputs.

A :class:`Finding` is deterministic and JSON-round-trippable; its ``why``
chain carries the provenance steps of the classification that led to the
verdict (see :mod:`repro.analysis.explain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..obs.rules import RULES_BY_ID, Severity


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
