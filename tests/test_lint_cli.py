"""End-to-end tests for ``python -m repro.bench lint``."""

import json

import pytest

from repro.bench import __main__ as cli
from repro.bench.__main__ import main
from repro.lint import serialize


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

    @pytest.fixture
    def baselines(self, tmp_path, monkeypatch):
        """The committed baselines' paths, pointed at *tmp_path*."""
        paths = (tmp_path / "lint.json", tmp_path / "lint.sarif")
        monkeypatch.setattr(cli, "LINT_BASELINE", str(paths[0]))
        monkeypatch.setattr(cli, "LINT_SARIF_BASELINE", str(paths[1]))
        return paths

    def test_written_baseline_round_trips(self, baselines, capsys):
        assert main(["lint", "--update-baseline"]) == 0
        assert all(path.read_text() for path in baselines)
        capsys.readouterr()
        assert main(["lint", "--check"]) == 0
        assert "SARIF: identical" in capsys.readouterr().err

    def test_findings_missing_from_baseline_fail(self, baselines, capsys):
        assert main(["lint", "--update-baseline"]) == 0
        # The q2 shadow run produces a DECA006 note (its aggregation
        # shuffle has no declared UDT); a baseline without it fails.
        payload = json.loads(baselines[0].read_text())
        q2 = next(app for app in payload["apps"] if app["app"] == "q2")
        assert [f["rule"] for f in q2.pop("findings")] == ["DECA006"]
        baselines[0].write_text(serialize(payload))
        capsys.readouterr()
        assert main(["lint", "--check"]) == 1
        assert "DIFFER from the baseline: q2" in capsys.readouterr().err

    @pytest.mark.parametrize("partial", [
        ["--apps", "lr"], ["--rules", "DECA2"], ["--no-shadow"]])
    @pytest.mark.parametrize("gate", ["--check", "--update-baseline"])
    def test_a_partial_run_is_refused(self, baselines, capsys, partial,
                                      gate):
        assert main(["lint", gate, *partial]) == 2
        assert "need a full run" in capsys.readouterr().err
        assert not any(path.exists() for path in baselines)

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
