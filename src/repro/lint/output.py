"""Lint output: text, JSON and SARIF renderings plus the baseline gate.

The JSON payload is deterministic (sorted findings, integer-only
summaries, no timestamps) and is serialized exactly like
:func:`repro.bench.report.write_json_result` writes it, so a fresh full
run can be compared with the committed baseline byte for byte
(:func:`baseline_gate`, behind ``repro.bench lint --check``).
"""

from __future__ import annotations

import json
from typing import Any

from .engine import AppLintResult, LintReport
from ..obs.rules import RULES, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://json.schemastore.org/sarif-2.1.0.json")


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


#: The audit families, and the summary keys that count what they walked.
#: Those counts move whenever a function in an audited module is added or
#: deleted, with the findings unchanged, so the gate prints them and does
#: not compare them.
AUDITS = ("engine", "race")
WALKED = ("functions", "scope_methods")


def _dump(payload: Any) -> str:
    """*payload* as :func:`serialize` wrote it, in the key order it holds."""
    return json.dumps(payload, indent=2) + "\n"


def _without_walk_counts(text: str
                         ) -> tuple[dict[str, Any], dict[str, dict[str, int]]]:
    """The payload of *text* without the walk counts, and the walk counts
    by audit family."""
    payload = json.loads(text)
    walked: dict[str, dict[str, int]] = {}
    for app in payload.get("apps", []):
        if app.get("app") in AUDITS:
            summary = app.get("summary", {})
            walked[app["app"]] = {key: summary.pop(key) for key in WALKED
                                  if key in summary}
    return payload, walked


def baseline_gate(baseline: tuple[str, str],
                  current: tuple[str, str]) -> tuple[bool, list[str]]:
    """Compare a full run with the committed baseline, byte for byte.

    *baseline* and *current* are each ``(json_text, sarif_text)``.  Each
    JSON text must read back as exactly the text :func:`serialize` writes
    of its own payload, and the two must be equal once the walk counts
    (:data:`WALKED`) are removed; the walk counts are reported (baseline
    -> current) instead.  The SARIF texts must be equal.  Returns whether
    the gate holds and the lines that say why.
    """
    (old_text, old_sarif), (new_text, new_sarif) = baseline, current
    old, old_walked = _without_walk_counts(old_text)
    new, new_walked = _without_walk_counts(new_text)
    lines = ["functions / scope methods the audits walked (printed, not "
             "compared):"]
    for family in AUDITS:
        was, now = old_walked.get(family, {}), new_walked.get(family, {})
        cells = ", ".join(f"{key} {was.get(key, '-')} -> {now.get(key, '-')}"
                          for key in WALKED if key in was or key in now)
        lines.append(f"  {family}: {cells or '-'}")
    ok = True
    for name, text in (("baseline", old_text), ("current", new_text)):
        if _dump(json.loads(text)) != text:
            lines.append(f"the {name} JSON is not formatted as the lint "
                         "formats JSON")
            ok = False
    if _dump(old) == _dump(new):
        lines.append("findings, plans and summaries: identical to the "
                     "baseline")
    else:
        old_apps = {app["app"]: app for app in old.get("apps", [])}
        new_apps = {app["app"]: app for app in new.get("apps", [])}
        differing = sorted(
            name for name in old_apps.keys() | new_apps.keys()
            if _dump(old_apps.get(name)) != _dump(new_apps.get(name)))
        lines.append("findings, plans or summaries DIFFER from the "
                     "baseline: " + (", ".join(differing)
                                     or "top-level keys"))
        ok = False
    if old_sarif == new_sarif:
        lines.append("SARIF: identical to the baseline")
    else:
        lines.append("SARIF DIFFERS from the baseline")
        ok = False
    return ok, lines
