"""Output-layer tests: JSON round-trips, SARIF shape, the baseline gate."""

import json

from repro.lint import (
    AppLintResult,
    Finding,
    LintReport,
    RULES,
    Severity,
    baseline_gate,
    make_finding,
    report_payload,
    render_text,
    serialize,
    sort_findings,
    to_sarif,
)


def _sample_report() -> LintReport:
    findings = sort_findings([
        make_finding("DECA006", "app/shuffle:0:x", "shuffle:0:x",
                     "no declared UDT", why=("[optimizer.plan] no UDT",)),
        make_finding("DECA001", "app/cache:x", "T.f",
                     "mutable field", location="src/repro/apps/udts.py",
                     why=("[algorithm-1.local] verdict",)),
        make_finding("DECA002", "app/cache:x", "T.g",
                     "phase escape"),
    ])
    result = AppLintResult(app="app", title="App", findings=findings,
                           summary={"shadow": False})
    return LintReport(apps=(result,))


class TestFindingRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        for finding in _sample_report().all_findings():
            assert Finding.from_dict(finding.to_dict()) == finding

    def test_round_trip_survives_json(self):
        for finding in _sample_report().all_findings():
            data = json.loads(json.dumps(finding.to_dict()))
            assert Finding.from_dict(data) == finding

    def test_sort_order_is_severity_then_rule(self):
        findings = _sample_report().all_findings()
        assert [f.rule_id for f in findings] \
            == ["DECA002", "DECA001", "DECA006"]


class TestJsonPayload:
    def test_payload_counts_and_findings(self):
        payload = report_payload(_sample_report())
        assert payload["tool"] == "deca-lint"
        assert payload["totals"] == {"error": 1, "warning": 1, "note": 1,
                                     "findings": 3}
        (app,) = payload["apps"]
        assert app["counts"] == {"error": 1, "warning": 1, "note": 1}
        assert app["findings"][0]["rule"] == "DECA002"

    def test_serialization_is_byte_stable(self):
        payload = report_payload(_sample_report())
        text = serialize(payload)
        assert text.endswith("\n")
        assert serialize(json.loads(text)) == text


class TestRenderText:
    def test_text_mentions_rules_and_totals(self):
        text = render_text(_sample_report())
        assert "DECA001" in text
        assert "why: [algorithm-1.local] verdict" in text
        assert "1 error(s), 1 warning(s), 1 note(s)" in text


class TestSarif:
    def test_sarif_structure(self):
        sarif = to_sarif(_sample_report())
        assert sarif["version"] == "2.1.0"
        assert "sarif-2.1.0" in sarif["$schema"]
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "deca-lint"
        assert len(driver["rules"]) == len(RULES)
        assert {r["id"] for r in driver["rules"]} \
            == {rule.rule_id for rule in RULES}

    def test_results_map_severity_to_level(self):
        (run,) = to_sarif(_sample_report())["runs"]
        levels = {res["ruleId"]: res["level"] for res in run["results"]}
        assert levels == {"DECA001": "warning", "DECA002": "error",
                          "DECA006": "note"}

    def test_results_carry_locations_and_why(self):
        (run,) = to_sarif(_sample_report())["runs"]
        deca001 = next(res for res in run["results"]
                       if res["ruleId"] == "DECA001")
        location = deca001["locations"][0]
        assert location["physicalLocation"]["artifactLocation"]["uri"] \
            == "src/repro/apps/udts.py"
        assert location["logicalLocations"][0]["fullyQualifiedName"] \
            == "app/cache:x::T.f"
        assert deca001["properties"]["why"] \
            == ["[algorithm-1.local] verdict"]

    def test_sarif_is_json_serializable(self):
        json.dumps(to_sarif(_sample_report()))


class TestBaselineDiff:
    """:func:`baseline_gate` on payloads: any change to a finding fails,
    not only a finding the baseline lacks."""

    @staticmethod
    def gate(current: dict, baseline: dict) -> tuple[bool, str]:
        ok, lines = baseline_gate((serialize(baseline), ""),
                                  (serialize(current), ""))
        return ok, "\n".join(lines)

    def test_identical_payloads_have_no_diff(self):
        payload = report_payload(_sample_report())
        assert self.gate(payload, payload)[0]

    def test_new_findings_are_reported(self):
        payload = report_payload(_sample_report())
        empty = report_payload(LintReport(apps=()))
        ok, out = self.gate(payload, empty)
        assert not ok and "DIFFER from the baseline: app" in out

    def test_removed_findings_fail(self):
        payload = report_payload(_sample_report())
        mutated = json.loads(serialize(payload))
        mutated["apps"][0]["findings"].pop()
        assert not self.gate(mutated, payload)[0]

    def test_why_chain_changes_fail(self):
        payload = report_payload(_sample_report())
        mutated = json.loads(serialize(payload))
        for app in mutated["apps"]:
            for finding in app["findings"]:
                finding["why"] = ["something else entirely"]
        assert not self.gate(mutated, payload)[0]

    def test_severity_changes_are_new_findings(self):
        payload = report_payload(_sample_report())
        mutated = json.loads(serialize(payload))
        mutated["apps"][0]["findings"][0]["severity"] = "note"
        assert not self.gate(mutated, payload)[0]

    def test_cross_app_findings_do_not_collide(self):
        finding = make_finding("DECA006", "t", "s", "m")
        one = LintReport(apps=(AppLintResult(
            app="a", title="A", findings=(finding,), summary={}),))
        other = LintReport(apps=(AppLintResult(
            app="b", title="B", findings=(finding,), summary={}),))
        ok, out = self.gate(report_payload(one), report_payload(other))
        assert not ok and "baseline: a, b" in out
