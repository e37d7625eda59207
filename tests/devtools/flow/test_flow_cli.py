"""End-to-end tests of ``repro-analyze --tool flow``: exit codes,
baseline, formats."""

from __future__ import annotations

import json

from repro.devtools import analyze
from repro.devtools.baseline import DEFAULT_BASELINE_NAME

from tests.devtools.flow.conftest import FLOWPKG


def main(argv: list[str]) -> int:
    return analyze.main(["--tool", "flow", *argv])


class TestExitCodes:
    def test_seeded_package_fails_with_every_rule(self, capsys):
        status = main([str(FLOWPKG), "--no-baseline"])
        out = capsys.readouterr().out
        assert status == 1
        for rule_id in ("T001", "T002", "T003", "T004", "T005", "D001", "D002", "D003"):
            assert rule_id in out

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_repo_tree_is_clean(self, repo_tree_run):
        # The acceptance bar: the real package carries no unbaselined
        # flow findings.
        assert repo_tree_run.results("repro-flow") == []
        assert not repo_tree_run.stale_warned("repro-flow")

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "T001" in out and "D003" in out


class TestInterproceduralEvidence:
    def test_taint_report_names_the_call_chain(self, capsys):
        main([str(FLOWPKG), "--no-baseline"])
        out = capsys.readouterr().out
        assert "flowpkg.cli.main -> flowpkg.storage.store" in out

    def test_rng_reported_in_helper_that_lint_passes(self, capsys):
        # repro-lint's single-file R002 does not fire on helpers.py
        # (default_rng is allowlisted); the flow analysis must.
        from repro.devtools.lint import lint_paths

        lint_findings = lint_paths([str(FLOWPKG / "helpers.py")])
        assert not any(f.rule == "R002" for f in lint_findings)

        main([str(FLOWPKG), "--no-baseline"])
        out = capsys.readouterr().out
        assert "helpers.py" in out and "D001" in out


class TestBaselineWorkflow:
    def test_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    str(FLOWPKG),
                    "--write-baseline",
                    "--justification",
                    "seeded fixtures",
                ]
            )
            == 0
        )
        payload = json.loads((tmp_path / DEFAULT_BASELINE_NAME).read_text())
        assert list(payload["tools"]) == ["flow"]
        assert len(payload["tools"]["flow"]) == 8

        capsys.readouterr()
        assert main([str(FLOWPKG)]) == 0
        assert "baselined" in capsys.readouterr().out


class TestFormats:
    def test_sarif_output_parses_and_carries_results(self, capsys):
        status = main([str(FLOWPKG), "--no-baseline", "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-flow"
        rules_fired = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "T001" in rules_fired and "D001" in rules_fired

    def test_github_format(self, capsys):
        main([str(FLOWPKG), "--no-baseline", "--format", "github"])
        out = capsys.readouterr().out
        assert out.startswith("::error file=")

    def test_json_format(self, capsys):
        main([str(FLOWPKG), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["baselined"] == {"repro-flow": 0}
        assert len(payload["new"]) >= 8
