"""``scripts/lint_gate.py``: the audits' walk counts are printed, every
other byte is compared — checked on canned payloads and on the committed
baseline."""

from __future__ import annotations

import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "lint_gate", os.path.join(ROOT, "scripts", "lint_gate.py"))
lint_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint_gate)
BASELINE = os.path.join(ROOT, "benchmarks", "baselines",
                        "lint_baseline.json")


def baseline() -> dict:
    with open(BASELINE, encoding="utf-8") as handle:
        return json.load(handle)


def run(tmp_path, capsys, payload, text=None):
    current = tmp_path / "current.json"
    current.write_text(text or lint_gate.dump(payload), encoding="utf-8")
    code = lint_gate.main([BASELINE, str(current)])
    return code, capsys.readouterr().out


def app(payload, name):
    return next(entry for entry in payload["apps"] if entry["app"] == name)


def test_the_baseline_passes_against_itself(tmp_path, capsys):
    code, out = run(tmp_path, capsys, baseline())
    assert code == 0
    assert "identical to the baseline" in out


def test_the_walk_counts_are_printed_not_compared(tmp_path, capsys):
    payload = baseline()
    engine = app(payload, "engine")["summary"]
    before = engine["functions"]
    engine["functions"] += 3
    engine["scope_methods"] += 1
    app(payload, "race")["summary"]["functions"] -= 2
    code, out = run(tmp_path, capsys, payload)
    assert code == 0
    assert f"engine: functions {before} -> {before + 3}" in out


def test_the_text_is_compared_not_just_the_values(tmp_path, capsys):
    """Another indent, or the same keys in another order, fails."""
    payload = baseline()
    code, out = run(tmp_path, capsys, payload,
                    text=json.dumps(payload, indent=4) + "\n")
    assert code == 1 and "not formatted" in out
    summary = app(payload, "engine")["summary"]
    reordered = dict(reversed(list(summary.items())))
    summary.clear()
    summary.update(reordered)
    code, out = run(tmp_path, capsys, payload)
    assert code == 1 and "DIFFER from the baseline: engine" in out


@pytest.mark.parametrize("edit", [
    lambda p: app(p, "lr")["findings"].append(
        {"rule": "DECA101", "severity": "warning", "target": "x",
         "subject": "y", "message": "z"}),
    lambda p: app(p, "lr")["summary"]["plans"][0].update(decomposed=False),
    lambda p: app(p, "engine")["summary"].update(borrow_findings=1),
    lambda p: app(p, "race")["summary"].update(modules=10),
    lambda p: app(p, "kmeans")["summary"].update(page_records=401),
])
def test_findings_plans_and_summaries_are_compared(tmp_path, capsys, edit):
    payload = copy.deepcopy(baseline())
    edit(payload)
    code, out = run(tmp_path, capsys, payload)
    assert code == 1
    assert "DIFFER" in out
