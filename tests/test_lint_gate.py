"""``repro.lint.baseline_gate``: the audits' walk counts are printed,
every other byte of the JSON and the whole SARIF are compared — checked
on canned payloads and on the committed baselines."""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.lint import baseline_gate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "baselines",
                        "lint_baseline.json")
SARIF = os.path.splitext(BASELINE)[0] + ".sarif"


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def baseline() -> dict:
    return json.loads(read(BASELINE))


def dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def run(payload, text=None, sarif=None):
    sarif_text = read(SARIF)
    ok, lines = baseline_gate(
        (read(BASELINE), sarif_text),
        (text or dump(payload), sarif_text if sarif is None else sarif))
    return ok, "\n".join(lines)


def app(payload, name):
    return next(entry for entry in payload["apps"] if entry["app"] == name)


def test_the_baseline_passes_against_itself():
    ok, out = run(baseline())
    assert ok
    assert "identical to the baseline" in out
    assert "SARIF: identical" in out


def test_the_walk_counts_are_printed_not_compared():
    payload = baseline()
    engine = app(payload, "engine")["summary"]
    before = engine["functions"]
    engine["functions"] += 3
    engine["scope_methods"] += 1
    app(payload, "race")["summary"]["functions"] -= 2
    ok, out = run(payload)
    assert ok
    assert f"engine: functions {before} -> {before + 3}" in out


def test_the_text_is_compared_not_just_the_values():
    """Another indent, or the same keys in another order, fails."""
    payload = baseline()
    ok, out = run(payload, text=json.dumps(payload, indent=4) + "\n")
    assert not ok and "not formatted" in out
    summary = app(payload, "engine")["summary"]
    reordered = dict(reversed(list(summary.items())))
    summary.clear()
    summary.update(reordered)
    ok, out = run(payload)
    assert not ok and "DIFFER from the baseline: engine" in out


@pytest.mark.parametrize("edit", [
    lambda p: app(p, "lr")["findings"].append(
        {"rule": "DECA101", "severity": "warning", "target": "x",
         "subject": "y", "message": "z"}),
    lambda p: app(p, "lr")["summary"]["plans"][0].update(decomposed=False),
    lambda p: app(p, "engine")["summary"].update(borrow_findings=1),
    lambda p: app(p, "race")["summary"].update(modules=10),
    lambda p: app(p, "kmeans")["summary"].update(page_records=401),
])
def test_findings_plans_and_summaries_are_compared(edit):
    payload = copy.deepcopy(baseline())
    edit(payload)
    ok, out = run(payload)
    assert not ok
    assert "DIFFER" in out


def test_the_sarif_is_compared_byte_for_byte():
    sarif = read(SARIF)
    ok, out = run(baseline(), sarif=sarif.replace("\n", "\r\n", 1))
    assert not ok and "SARIF DIFFERS" in out
