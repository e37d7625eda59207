"""End-to-end tests of ``repro-analyze --tool lint``: exit codes,
baseline, autofix."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools import analyze
from repro.devtools.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.devtools.findings import Finding
from repro.devtools.lint import discover_files, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"


def main(argv: list[str]) -> int:
    return analyze.main(["--tool", "lint", *argv])


class TestExitCodes:
    def test_violation_tree_fails_with_every_rule(self, capsys):
        status = main([str(VIOLATIONS), "--no-baseline"])
        out = capsys.readouterr().out
        assert status == 1
        for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006", "R007"):
            assert rule_id in out

    def test_clean_file_passes(self, capsys):
        assert main([str(FIXTURES / "clean.py"), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_syntax_error_reported_as_finding(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main([str(bad), "--no-baseline"]) == 1
        assert "E000" in capsys.readouterr().out

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["does/not/exist", "--no-baseline"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_repo_tree_is_clean_under_committed_baseline(self, repo_tree_run):
        assert repo_tree_run.results("repro-lint") == []
        assert not repo_tree_run.stale_warned("repro-lint")


class TestJsonFormat:
    def test_json_payload_shape(self, capsys):
        status = main(
            [str(VIOLATIONS / "r001_exceptions.py"), "--no-baseline", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["baselined"] == {"repro-lint": 0}
        (finding,) = payload["new"]
        assert finding["tool"] == "repro-lint"
        assert finding["rule"] == "R001"
        assert finding["fixable"] is True
        assert finding["fingerprint"].startswith("R001|")


class TestBaselineWorkflow:
    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        # The baseline file is read from the working directory.
        monkeypatch.chdir(tmp_path)

    def test_round_trip(self, tmp_path, capsys):
        baseline_path = tmp_path / DEFAULT_BASELINE_NAME
        write_status = main(
            [
                str(VIOLATIONS),
                "--write-baseline",
                "--justification",
                "fixture debt",
            ]
        )
        assert write_status == 0
        assert baseline_path.exists()

        capsys.readouterr()
        rerun_status = main([str(VIOLATIONS)])
        out = capsys.readouterr().out
        assert rerun_status == 0
        assert "baselined" in out

    def test_new_violation_still_fails(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        shutil.copy(VIOLATIONS / "r001_exceptions.py", tree / "old.py")
        main([str(tree), "--write-baseline"])

        shutil.copy(VIOLATIONS / "r005_print.py", tree / "new.py")
        capsys.readouterr()
        assert main([str(tree)]) == 1
        assert "R005" in capsys.readouterr().out

    def test_stale_entries_warn(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        shutil.copy(VIOLATIONS / "r001_exceptions.py", tree / "old.py")
        main([str(tree), "--write-baseline"])

        (tree / "old.py").write_text('"""Now clean."""\n')
        capsys.readouterr()
        assert main([str(tree)]) == 0
        err = capsys.readouterr().err
        assert "repro-lint: 1 stale" in err
        assert "--write-baseline --tool lint" in err

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        (tmp_path / DEFAULT_BASELINE_NAME).write_text("{not json")
        status = main([str(FIXTURES / "clean.py")])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_fingerprint_survives_line_shift(self, tmp_path):
        original = (VIOLATIONS / "r001_exceptions.py").read_text()
        target = tmp_path / "mod.py"
        target.write_text(original)
        baseline = Baseline.from_findings(lint_paths([str(target)]))

        shifted = original.replace(
            '"""Seeded R001 violation: raises a builtin exception."""',
            '"""Seeded R001 violation: raises a builtin exception."""\n\nPADDING = 1',
        )
        target.write_text(shifted)
        new, grandfathered = baseline.filter(lint_paths([str(target)]))
        assert new == []
        assert len(grandfathered) == 1


def fix(target: Path) -> list[Finding]:
    """Run the front end's ``--fix`` on one file; return its findings after."""
    main([str(target), "--no-baseline", "--fix"])
    return lint_paths([str(target)])


class TestAutofix:
    def test_fix_rewrites_raise_and_adds_import(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text((VIOLATIONS / "r001_exceptions.py").read_text())
        findings = fix(target)
        fixed = target.read_text()
        assert "raise ValidationError(" in fixed
        assert "from repro.exceptions import ValidationError" in fixed
        assert all(f.rule != "R001" for f in findings)

    def test_fix_merges_existing_exceptions_import(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            '"""Doc."""\n\n'
            "from repro.exceptions import GraphError\n\n\n"
            "def f(flag: bool) -> None:\n"
            '    """Doc."""\n'
            "    if flag:\n"
            "        raise GraphError('g')\n"
            "    raise KeyError('k')\n"
        )
        fix(target)
        fixed = target.read_text()
        assert "from repro.exceptions import GraphError, MissingKeyError" in fixed
        assert "raise MissingKeyError('k')" in fixed

    def test_fix_is_idempotent(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text((VIOLATIONS / "r001_exceptions.py").read_text())
        fix(target)
        once = target.read_text()
        fix(target)
        assert target.read_text() == once

    def test_fix_rewrites_mutated_default_to_sentinel(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text((VIOLATIONS / "r009_mutated_default.py").read_text())
        findings = fix(target)
        fixed = target.read_text()
        assert "def gather(item, bucket=None):" in fixed
        assert "    if bucket is None:\n        bucket = []\n" in fixed
        # Guard lands below the docstring, not above it.
        assert '    """Count occurrences per name."""\n    if counts is None:' in fixed
        # The read-only near-miss keeps its (R004-suppressed) default.
        assert 'def read_only(labels=["a", "b"]):' in fixed
        assert all(f.rule != "R009" for f in findings)

    def test_r009_fix_is_idempotent(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text((VIOLATIONS / "r009_mutated_default.py").read_text())
        fix(target)
        once = target.read_text()
        fix(target)
        assert target.read_text() == once


class TestMachineFormats:
    def test_sarif_output(self, capsys):
        status = main(
            [str(VIOLATIONS / "r005_print.py"), "--no-baseline", "--format", "sarif"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
        assert any(
            r["ruleId"] == "R005" for r in doc["runs"][0]["results"]
        )

    def test_github_output(self, capsys):
        main([str(VIOLATIONS / "r005_print.py"), "--no-baseline", "--format", "github"])
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "R005" in out


class TestFixExitCode:
    def test_fix_applied_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text((VIOLATIONS / "r001_exceptions.py").read_text())
        status = main([str(target), "--no-baseline", "--fix"])
        assert status == 1
        assert "rewrote" in capsys.readouterr().err

    def test_fix_with_nothing_to_do_exits_zero(self, capsys):
        assert main([str(FIXTURES / "clean.py"), "--no-baseline", "--fix"]) == 0


class TestDiscovery:
    def test_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        found = discover_files([str(tmp_path)])
        assert [p.name for p in found] == ["real.py"]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R007" in out
