"""The zero-copy borrow checker: DECA301-308 static rules.

Three contracts: the engine's own zero-copy modules are clean (zero
findings), every seeded-bug fixture fires exactly its rule, and the
``engine`` pseudo-app integrates with the lint driver/report pipeline
deterministically.
"""

from pathlib import Path

import pytest

from repro.lint import (
    ENGINE_APP,
    ENGINE_MODULES,
    RULES_BY_ID,
    Severity,
    analyze_source,
    lint_engine,
    run_borrow_rules,
    run_lint,
)
from repro.lint.output import to_sarif

FIXTURE_PATH = (Path(__file__).resolve().parent.parent / "src" / "repro"
                / "lint" / "fixtures" / "borrow_bugs.py")
BORROW_RULES = ("DECA301", "DECA302", "DECA303", "DECA304", "DECA305",
                "DECA306", "DECA308")


def fixture_findings():
    return analyze_source(FIXTURE_PATH.read_text(),
                          "repro.lint.fixtures.borrow_bugs",
                          "lint/fixtures/borrow_bugs.py",
                          target="fixtures")


class TestRuleCatalogue:
    def test_all_borrow_rules_registered(self):
        for rule_id in BORROW_RULES:
            assert rule_id in RULES_BY_ID

    def test_severities(self):
        errors = {"DECA301", "DECA302", "DECA303", "DECA304", "DECA305"}
        for rule_id in BORROW_RULES:
            expected = (Severity.ERROR if rule_id in errors
                        else Severity.WARNING)
            assert RULES_BY_ID[rule_id].severity is expected

    def test_paper_anchors_present(self):
        for rule_id in BORROW_RULES:
            assert RULES_BY_ID[rule_id].paper.startswith("§")


class TestEngineIsClean:
    def test_zero_findings_on_engine_modules(self):
        findings, summary = run_borrow_rules()
        assert findings == ()
        assert summary["modules"] == len(ENGINE_MODULES)
        assert summary["functions"] > 0
        assert summary["borrow_findings"] == 0

    def test_every_engine_module_parses_independently(self):
        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        for module, relpath in ENGINE_MODULES:
            findings = analyze_source((root / relpath).read_text(),
                                      module, relpath)
            assert findings == [], (module, findings)

    def test_deterministic_across_runs(self):
        first, summary1 = run_borrow_rules()
        second, summary2 = run_borrow_rules()
        assert first == second
        assert summary1 == summary2


class TestFixturesFireExactly:
    def test_one_finding_per_rule(self):
        rules = sorted(f.rule_id for f in fixture_findings())
        assert rules == sorted(BORROW_RULES)

    def test_findings_point_into_the_fixture_file(self):
        for finding in fixture_findings():
            assert finding.location.startswith(
                "src/repro/lint/fixtures/borrow_bugs.py:")
            assert finding.target == "fixtures"

    def test_every_finding_has_a_why_chain(self):
        for finding in fixture_findings():
            assert finding.why, finding.rule_id

    def test_subjects_name_the_buggy_functions(self):
        by_rule = {f.rule_id: f for f in fixture_findings()}
        assert by_rule["DECA301"].subject.endswith(
            "bug_use_after_free_extent")
        assert by_rule["DECA302"].subject.endswith(
            "bug_use_after_unlink_segment")
        assert by_rule["DECA303"].subject.endswith("bug_double_free")
        assert by_rule["DECA304"].subject.endswith(
            "bug_view_escapes_adoption")
        assert by_rule["DECA305"].subject.endswith(
            "bug_remap_invalidates_export")
        assert by_rule["DECA306"].subject.endswith("bug_leak_at_finish")
        assert by_rule["DECA308"].subject.endswith(
            "bug_unreleased_drain_copy")

    def test_escape_why_chain_carries_pointsto_ownership(self):
        by_rule = {f.rule_id: f for f in fixture_findings()}
        why = " ".join(by_rule["DECA304"].why)
        assert "ownership" in why
        assert "primary container" in why


class TestEnginePseudoApp:
    def test_engine_only_request(self):
        report = run_lint([ENGINE_APP], shadow=False)
        assert [r.app for r in report.apps] == [ENGINE_APP]
        assert report.apps[0].findings == ()
        assert not report.has_errors

    def test_engine_rides_along_with_all(self):
        report = run_lint([ENGINE_APP], shadow=False)
        result = report.apps[-1]
        assert result.app == ENGINE_APP
        assert "DECA301" in result.title

    def test_lint_engine_summary_shape(self):
        result = lint_engine()
        assert result.summary["shadow"] is False
        assert result.summary["modules"] == len(ENGINE_MODULES)
        assert result.summary["scope_methods"] >= result.summary[
            "functions"]

    def test_unknown_app_still_rejected(self):
        with pytest.raises(KeyError):
            run_lint(["no-such-app"], shadow=False)

    def test_sarif_carries_borrow_rules(self):
        report = run_lint([ENGINE_APP], shadow=False)
        sarif = to_sarif(report)
        rule_ids = {rule["id"]
                    for rule in sarif["runs"][0]["tool"]["driver"]["rules"]}
        for rule_id in BORROW_RULES:
            assert rule_id in rule_ids


class TestPathSensitivity:
    """Targeted micro-sources pinning the checker's precision."""

    def check(self, source: str):
        return analyze_source(source, "scratch", "scratch.py")

    def test_release_before_drop_is_clean(self):
        findings = self.check(
            "def ok(tier):\n"
            "    views = tier.views('g')\n"
            "    for view in views:\n"
            "        view.release()\n"
            "    del views\n"
            "    tier.drop('g')\n")
        assert findings == []

    def test_drop_on_one_branch_only_still_flagged(self):
        findings = self.check(
            "def bad(tier, cond):\n"
            "    views = tier.views('g')\n"
            "    if cond:\n"
            "        tier.drop('g')\n"
            "    return views\n")
        assert [f.rule_id for f in findings] == ["DECA301"]

    def test_realloc_between_frees_is_not_double_free(self):
        findings = self.check(
            "def ok(tier):\n"
            "    tier.drop('g')\n"
            "    tier.swap_out('g', [b'x'])\n"
            "    tier.drop('g')\n")
        assert findings == []

    def test_buffer_guarded_resize_is_safe_remap(self):
        findings = self.check(
            "def grow_mapping(mm):\n"
            "    try:\n"
            "        mm.resize(8192)\n"
            "    except BufferError:\n"
            "        pass\n")
        assert findings == []

    def test_idempotent_close_guard_is_not_a_leak(self):
        findings = self.check(
            "def close(self):\n"
            "    if self._closed:\n"
            "        return\n"
            "    self._closed = True\n"
            "    self._view.release()\n")
        assert findings == []

    def test_drain_followed_by_shrink_is_clean(self):
        findings = self.check(
            "def swap(group, arena):\n"
            "    for chunk in group.drain():\n"
            "        consume(chunk)\n"
            "    arena.free_group(g)\n")
        assert findings == []
