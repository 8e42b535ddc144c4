"""The concurrency race lint: the DECA401/402/404/405 static rules.

Same three contracts as the borrow suite one layer down: the engine's
own concurrency surface is clean (zero findings), every seeded-bug
fixture of a static rule fires exactly its rule (the DECA406-410
fixtures fire at runtime only), and the ``race`` pseudo-app integrates
with the lint driver/report pipeline deterministically.
"""

from pathlib import Path

import pytest

from repro.lint import (
    PSEUDO_APPS,
    RACE_APP,
    RACE_MODULES,
    RULES_BY_ID,
    Severity,
    analyze_race_source,
    run_lint,
    run_race_rules,
)
from repro.lint.output import to_sarif

FIXTURE_PATH = (Path(__file__).resolve().parent.parent / "src" / "repro"
                / "lint" / "fixtures" / "race_bugs.py")
RACE_RULES = ("DECA401", "DECA402", "DECA404", "DECA405", "DECA406",
              "DECA407", "DECA408", "DECA409", "DECA410")
#: The rules with a static predicate; the rest are runtime-only.
STATIC_RULES = ("DECA401", "DECA402", "DECA404", "DECA405")


def fixture_findings():
    return analyze_race_source(FIXTURE_PATH.read_text(),
                               "repro.lint.fixtures.race_bugs",
                               "lint/fixtures/race_bugs.py",
                               target="fixtures")


@pytest.fixture(scope="module")
def race_report():
    """One race-only audit of the engine, shared by every test that only
    reads it (a full audit of the ten modules costs about a second)."""
    return run_lint([RACE_APP], shadow=False)


class TestRuleCatalogue:
    def test_all_race_rules_registered(self):
        for rule_id in RACE_RULES:
            assert rule_id in RULES_BY_ID

    def test_severities(self):
        for rule_id in RACE_RULES:
            expected = (Severity.WARNING if rule_id == "DECA409"
                        else Severity.ERROR)
            assert RULES_BY_ID[rule_id].severity is expected

    def test_paper_anchors_present(self):
        for rule_id in RACE_RULES:
            assert RULES_BY_ID[rule_id].paper.startswith("§")


class TestEngineIsClean:
    def test_zero_findings_on_concurrency_surface(self, race_report):
        result = race_report.apps[0]
        findings, summary = result.findings, result.summary
        assert findings == ()
        assert summary["modules"] == len(RACE_MODULES)
        assert summary["functions"] > 0
        assert summary["race_findings"] == 0

    def test_every_module_parses_independently(self):
        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        for module, relpath in RACE_MODULES:
            findings = analyze_race_source((root / relpath).read_text(),
                                           module, relpath)
            assert findings == [], (module, findings)

    def test_deterministic_across_runs(self, race_report):
        result = race_report.apps[0]
        first, summary1 = result.findings, result.summary
        second, summary2 = run_race_rules()
        assert first == second
        assert summary1 == summary2


class TestFixturesFireExactly:
    def test_one_finding_per_rule(self):
        rules = sorted(f.rule_id for f in fixture_findings())
        assert rules == sorted(STATIC_RULES)

    def test_findings_point_into_the_fixture_file(self):
        for finding in fixture_findings():
            assert finding.location.startswith(
                "src/repro/lint/fixtures/race_bugs.py:")
            assert finding.target == "fixtures"

    def test_every_finding_has_a_why_chain(self):
        for finding in fixture_findings():
            assert finding.why, finding.rule_id

    def test_subjects_name_the_buggy_functions(self):
        by_rule = {f.rule_id: f for f in fixture_findings()}
        assert by_rule["DECA401"].subject.endswith("unlink_races_attach")
        assert by_rule["DECA402"].subject.endswith(
            "RacyRegistry.release_unlocked")
        assert by_rule["DECA404"].subject.endswith("stale_pool_write")
        assert by_rule["DECA405"].subject.endswith("consume_before_join")

    def test_toctou_why_chain_carries_pointsto_ownership(self):
        by_rule = {f.rule_id: f for f in fixture_findings()}
        why = " ".join(by_rule["DECA401"].why)
        assert "concurrent" in why


class TestRacePseudoApp:
    def test_race_only_request(self, race_report):
        assert [r.app for r in race_report.apps] == [RACE_APP]
        assert race_report.apps[0].findings == ()
        assert not race_report.has_errors

    def test_race_rides_along_with_all(self):
        report = run_lint(["all"], shadow=False)
        apps = [r.app for r in report.apps]
        # The pseudo-apps ride at the end, engine then race.
        assert tuple(apps[-len(PSEUDO_APPS):]) == PSEUDO_APPS
        assert apps[-1] == RACE_APP

    def test_lint_race_summary_shape(self, race_report):
        result = race_report.apps[0]
        assert result.summary["shadow"] is False
        assert result.summary["modules"] == len(RACE_MODULES)
        assert "DECA401" in result.title

    def test_sarif_carries_race_rules(self, race_report):
        sarif = to_sarif(race_report)
        rule_ids = {rule["id"]
                    for rule in sarif["runs"][0]["tool"]["driver"]["rules"]}
        for rule_id in RACE_RULES:
            assert rule_id in rule_ids


class TestPathSensitivity:
    """Targeted micro-sources pinning the protocol model's precision."""

    def check(self, source: str):
        return analyze_race_source(source, "scratch", "scratch.py")

    def test_create_after_unlink_closes_the_window(self):
        findings = self.check(
            "def recycle(registry, name):\n"
            "    unlink_segment(name)\n"
            "    seg = SharedPageSegment(name, 4096, create=True)\n"
            "    return seg\n")
        assert findings == []

    def test_attach_after_unlink_is_toctou(self):
        findings = self.check(
            "def bad(name):\n"
            "    unlink_segment(name)\n"
            "    seg = SharedPageSegment(name, 4096)\n"
            "    return seg\n")
        assert [f.rule_id for f in findings] == ["DECA401"]

    def test_refdec_under_lock_is_clean(self):
        findings = self.check(
            "class Reg:\n"
            "    def release(self, name):\n"
            "        with self._lock:\n"
            "            self._refs[name] = self._refs[name] - 1\n")
        assert findings == []

    def test_refdec_outside_lock_is_flagged(self):
        # The rule targets *mixed* discipline: the class locks one
        # mutation path but not the other (a lock-free class is a
        # different design, not a race).
        findings = self.check(
            "class Reg:\n"
            "    def register(self, name):\n"
            "        with self._lock:\n"
            "            self._refs[name] = 1\n"
            "    def release(self, name):\n"
            "        self._refs[name] = self._refs[name] - 1\n")
        assert [f.rule_id for f in findings] == ["DECA402"]

    def test_join_before_consume_is_clean(self):
        findings = self.check(
            "def gather(queue, worker):\n"
            "    out = queue.get()\n"
            "    records = pickle.loads(out.result_blob)\n"
            "    return records\n")
        assert findings == []
