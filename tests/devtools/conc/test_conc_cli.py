"""``repro-analyze --tool conc`` behaviors: baseline round-trip, SARIF
shape, exit codes; plus the repo-tree regression gate, whose one pass of
all four analyzers is shared with the per-tool tree-clean tests."""

from __future__ import annotations

import json

from repro.devtools import analyze
from repro.devtools.baseline import DEFAULT_BASELINE_NAME
from repro.devtools.conc.registry import CONC_RULES

from tests.devtools.conc.conftest import CONCPKG
from tests.devtools.conftest import committed_baseline


def main(argv: list[str]) -> int:
    return analyze.main(["--tool", "conc", *argv])


class TestExitCodes:
    def test_fixture_package_fails(self, capsys):
        assert main([str(CONCPKG), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "found 12 new finding(s)" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_file_path_is_usage_error(self, tmp_path):
        target = tmp_path / "single.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in CONC_RULES:
            assert rule_id in out


class TestBaselineRoundTrip:
    def test_write_then_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / DEFAULT_BASELINE_NAME
        assert (
            main(
                [
                    str(CONCPKG),
                    "--write-baseline",
                    "--justification",
                    "seeded fixture hazards",
                ]
            )
            == 0
        )
        entries = json.loads(baseline.read_text())["tools"]["conc"]
        assert len(entries) == 12
        assert all(e["justification"] == "seeded fixture hazards" for e in entries)
        # Same tree against the fresh baseline: everything grandfathered.
        capsys.readouterr()
        assert main([str(CONCPKG)]) == 0
        assert "repro-conc: clean (12 baselined)" in capsys.readouterr().out


class TestSarif:
    def test_sarif_document_shape(self, capsys):
        assert main([str(CONCPKG), "--no-baseline", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-conc"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(CONC_RULES) <= rule_ids
        assert {r["ruleId"] for r in run["results"]} == set(CONC_RULES)
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert "reproFingerprint/v1" in result["partialFingerprints"]

    def test_github_format(self, capsys):
        main([str(CONCPKG), "--no-baseline", "--format", "github"])
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "C001" in out


class TestRepoTreeIsClean:
    def test_src_repro_has_no_unbaselined_findings(self, repo_tree_run):
        # The conc section of the committed baseline is empty, so this is
        # the same gate as running with --no-baseline.
        assert len(committed_baseline("conc")) == 0
        assert repo_tree_run.results("repro-conc") == []


class TestUmbrella:
    def test_repo_tree_clean_and_merged_sarif(self, repo_tree_run):
        # All four analyzers over src/repro in one pass against the
        # committed baseline, from the repo root the way CI runs it.
        assert repo_tree_run.status == 0
        assert "stale" not in repo_tree_run.err
        assert repo_tree_run.drivers == [
            "repro-lint",
            "repro-flow",
            "repro-conc",
            "repro-hot",
        ]
        assert all(run["results"] == [] for run in repo_tree_run.sarif["runs"])

    def test_fixture_tree_fails_without_baselines(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # no baseline file here
        status = analyze.main([str(CONCPKG), "--no-baseline"])
        assert status == 1
        out = capsys.readouterr().out
        assert "repro-conc: 12 new finding(s)" in out
