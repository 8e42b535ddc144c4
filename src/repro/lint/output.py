"""Lint output: text, JSON and SARIF renderings plus baseline diffing.

The JSON payload is deterministic (sorted findings, integer-only
summaries, no timestamps) and is serialized exactly like
:func:`repro.bench.report.write_json_result` writes it, so CI can ``cmp``
a fresh run's file against the committed baseline byte for byte.
"""

from __future__ import annotations

import json
from typing import Any

from .engine import AppLintResult, LintReport
from ..obs.rules import RULES, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://json.schemastore.org/sarif-2.1.0.json")

# The finding keys that identify a diagnostic across runs (the "why"
# chain and location are presentation, not identity).
_IDENTITY_KEYS = ("rule", "severity", "target", "subject", "message")


def report_payload(report: LintReport) -> dict[str, Any]:
    """The canonical machine-readable form of a lint run."""
    apps = []
    for result in report.apps:
        apps.append({
            "app": result.app,
            "title": result.title,
            "counts": _counts(result),
            "findings": [f.to_dict() for f in result.findings],
            "summary": result.summary,
        })
    return {
        "tool": "deca-lint",
        "apps": apps,
        "totals": {
            "error": report.count(Severity.ERROR),
            "warning": report.count(Severity.WARNING),
            "note": report.count(Severity.NOTE),
            "findings": len(report.all_findings()),
        },
    }


def _counts(result: AppLintResult) -> dict[str, int]:
    return {severity.value: result.count(severity)
            for severity in Severity}


def serialize(payload: Any) -> str:
    """Byte-stable JSON text (same shape ``write_json_result`` writes)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_text(report: LintReport) -> str:
    """Human-readable rendering, one block per app."""
    lines: list[str] = []
    for result in report.apps:
        counts = _counts(result)
        lines.append(f"{result.title} ({result.app}): "
                     f"{counts['error']} error(s), "
                     f"{counts['warning']} warning(s), "
                     f"{counts['note']} note(s)")
        for finding in result.findings:
            lines.append(f"  {finding.rule_id} [{finding.severity.value}] "
                         f"{finding.target} :: {finding.subject}")
            lines.append(f"      {finding.message}")
            for step in finding.why:
                lines.append(f"      why: {step}")
        summary = result.summary
        if summary.get("shadow"):
            lines.append(f"  shadow: {summary.get('page_records', 0)} page "
                         f"records, {summary.get('sudt_writes', 0)} SUDT "
                         f"writes, {summary.get('resize_attempts', 0)} "
                         "resize attempts")
        closures = summary.get("closures")
        if isinstance(closures, dict):
            lines.append(
                f"  closures: {closures.get('udfs_analyzed', 0)}/"
                f"{closures.get('udf_sites', 0)} UDFs analyzed, "
                f"{closures.get('udfs_nondeterministic', 0)} "
                f"nondeterministic, {closures.get('double_runs', 0)} "
                f"double-run(s), "
                f"{closures.get('double_run_mismatches', 0)} mismatch(es)")
        lines.append("")
    totals = report_payload(report)["totals"]
    lines.append(f"deca-lint: {totals['findings']} finding(s) — "
                 f"{totals['error']} error(s), {totals['warning']} "
                 f"warning(s), {totals['note']} note(s)")
    return "\n".join(lines)


def to_sarif(report: LintReport) -> dict[str, Any]:
    """A SARIF 2.1.0 log of the run (severities map to SARIF levels)."""
    rules = [{
        "id": rule.rule_id,
        "name": rule.name,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": rule.severity.value},
        "properties": {"paper": rule.paper},
    } for rule in RULES]

    results = []
    for app_result in report.apps:
        for finding in app_result.findings:
            result: dict[str, Any] = {
                "ruleId": finding.rule_id,
                "level": finding.severity.value,
                "message": {"text": finding.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.location
                                   or "src/repro/apps/udts.py",
                        },
                    },
                    "logicalLocations": [{
                        "fullyQualifiedName":
                            f"{finding.target}::{finding.subject}",
                    }],
                }],
                "properties": {
                    "app": app_result.app,
                    "why": list(finding.why),
                },
            }
            results.append(result)

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "deca-lint",
                    "informationUri":
                        "https://github.com/paper-repro/deca",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def filter_report(report: LintReport,
                  prefixes: tuple[str, ...]) -> LintReport:
    """A copy of *report* keeping only findings whose rule id starts
    with one of *prefixes* (``("DECA2",)`` keeps the closure family).

    Per-app summaries are preserved untouched — they describe the run,
    not the filtered view.
    """
    if not prefixes:
        return report
    apps = tuple(
        AppLintResult(
            app=result.app, title=result.title,
            findings=tuple(f for f in result.findings
                           if f.rule_id.startswith(prefixes)),
            summary=result.summary)
        for result in report.apps)
    return LintReport(apps=apps)


def finding_identities(payload: dict[str, Any]) -> set[str]:
    """The identity set of a payload's findings, for baseline diffing."""
    identities: set[str] = set()
    for app in payload.get("apps", ()):
        for finding in app.get("findings", ()):
            identity = {"app": app.get("app", "")}
            identity.update({key: finding.get(key, "")
                             for key in _IDENTITY_KEYS})
            identities.add(json.dumps(identity, sort_keys=True))
    return identities


def baseline_diff(current: dict[str, Any],
                  baseline: dict[str, Any]) -> list[str]:
    """Findings present now but absent from the baseline (sorted)."""
    return sorted(finding_identities(current)
                  - finding_identities(baseline))
