"""End-to-end tests for ``python -m repro.bench lint``."""

import json

import pytest

from repro.bench.__main__ import main


class TestLintCli:
    def test_json_format_is_parseable_and_clean(self, capsys):
        assert main(["lint", "--apps", "lr", "--no-shadow",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "deca-lint"
        assert [app["app"] for app in payload["apps"]] == ["lr"]
        assert payload["totals"]["error"] == 0

    def test_text_format_prints_a_summary(self, capsys):
        assert main(["lint", "--apps", "lr", "--no-shadow"]) == 0
        out = capsys.readouterr().out
        assert "deca-lint" in out
        assert "lr" in out

    def test_sarif_format_is_valid_sarif(self, capsys):
        assert main(["lint", "--apps", "lr", "--no-shadow",
                     "--format", "sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "deca-lint"

    def test_written_baseline_round_trips(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--apps", "wordcount", "--write-baseline",
                     str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", "--apps", "wordcount", "--format", "json",
                     "--baseline", str(baseline)]) == 0

    def test_findings_missing_from_baseline_fail(self, tmp_path, capsys):
        baseline = tmp_path / "empty.json"
        baseline.write_text(json.dumps({"apps": []}))
        # The q2 shadow run produces a DECA006 note (its aggregation
        # shuffle has no declared UDT), which an empty baseline does not
        # contain.
        assert main(["lint", "--apps", "q2", "--format", "json",
                     "--baseline", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "not in baseline" in captured.err
        assert "DECA006" in captured.err

    def test_rules_filter_keeps_only_matching_family(self, capsys):
        # q2 emits a DECA006 note; the closure-family filter drops it.
        assert main(["lint", "--apps", "q2", "--format", "json",
                     "--rules", "DECA2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        findings = [f for app in payload["apps"]
                    for f in app["findings"]]
        assert all(f["rule"].startswith("DECA2") for f in findings)
        assert payload["totals"]["note"] == 0
        # The closure summary still describes the unfiltered run.
        closures = payload["apps"][0]["summary"]["closures"]
        assert closures["udfs_analyzed"] == closures["udf_sites"] > 0

    def test_rules_filter_passes_unfiltered_without_prefixes(self, capsys):
        assert main(["lint", "--apps", "q2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["note"] >= 1    # the DECA006 note

    def test_unknown_app_name_exits_with_known_names(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--apps", "nope"])
        assert "nope" in str(excinfo.value)
        assert "lr" in str(excinfo.value)
