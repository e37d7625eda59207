"""The one analyzer front end: tool selection, the shared project pass,
the sectioned baseline file, warnings and the combined ``--fix``."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools import analyze
from repro.devtools.baseline import DEFAULT_BASELINE_NAME

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Each tool, its seeded fixture tree and that tree's finding count.
SEEDED = [
    ("lint", FIXTURES / "violations", 12),
    ("flow", FIXTURES / "flowpkg", 8),
    ("conc", FIXTURES / "concpkg", 12),
    ("hot", FIXTURES / "hotpkg", 10),
]


@pytest.fixture()
def committed_baseline(tmp_path, monkeypatch):
    """A working directory holding a copy of the committed baseline."""
    shutil.copy(REPO_ROOT / DEFAULT_BASELINE_NAME, tmp_path / DEFAULT_BASELINE_NAME)
    monkeypatch.chdir(tmp_path)
    return tmp_path / DEFAULT_BASELINE_NAME


def _sections(path: Path) -> dict[str, list[dict]]:
    return json.loads(path.read_text())["tools"]


class TestBaselineSections:
    @pytest.mark.parametrize(
        ("tool", "package", "count"), SEEDED, ids=[t[0] for t in SEEDED]
    )
    def test_write_baseline_rewrites_only_its_section(
        self, committed_baseline, capsys, tool, package, count
    ):
        before = _sections(committed_baseline)
        assert len(before["lint"]) == 71
        assert (
            analyze.main([str(package), "--tool", tool, "--write-baseline"]) == 0
        )
        assert f"repro-{tool}: wrote {count} finding(s)" in capsys.readouterr().out
        after = _sections(committed_baseline)
        assert len(after[tool]) == count
        assert {k: v for k, v in after.items() if k != tool} == {
            k: v for k, v in before.items() if k != tool
        }

    def test_write_baseline_keeps_a_corrupt_file(self, tmp_path, monkeypatch, capsys):
        # Rewriting one section must not silently drop the others.
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / DEFAULT_BASELINE_NAME
        baseline.write_text("{not json")
        argv = [str(FIXTURES / "violations"), "--tool", "lint", "--write-baseline"]
        assert analyze.main(argv) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert baseline.read_text() == "{not json"

    def test_old_single_tool_format_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / DEFAULT_BASELINE_NAME).write_text(
            json.dumps({"version": 1, "tool": "repro-lint", "findings": []})
        )
        assert analyze.main([str(FIXTURES / "clean.py"), "--tool", "lint"]) == 2
        assert "unsupported format" in capsys.readouterr().err

    def test_entry_without_fingerprint_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / DEFAULT_BASELINE_NAME).write_text(
            json.dumps({"version": 2, "tools": {"hot": [{"rule": "P001"}]}})
        )
        assert analyze.main([str(FIXTURES / "hotpkg"), "--tool", "hot"]) == 2
        assert "without a fingerprint" in capsys.readouterr().err


class TestSelection:
    def test_one_project_pass_shared_and_skipped_for_lint(self, monkeypatch, capsys):
        calls = []
        real = analyze.analyze_project

        def counting(paths):
            calls.append(list(paths))
            return real(paths)

        monkeypatch.setattr(analyze, "analyze_project", counting)
        analyze.main([str(FIXTURES / "flowpkg"), "--no-baseline"])
        assert len(calls) == 1
        analyze.main([str(FIXTURES / "flowpkg"), "--tool", "lint", "--no-baseline"])
        assert len(calls) == 1

    def test_file_paths_need_lint_alone(self, capsys):
        target = str(FIXTURES / "clean.py")
        assert analyze.main([target, "--no-baseline"]) == 2
        assert "need package directories" in capsys.readouterr().err
        assert analyze.main([target, "--tool", "lint", "--no-baseline"]) == 0

    def test_reports_follow_tool_order_not_flag_order(self, capsys):
        status = analyze.main(
            [
                str(FIXTURES / "concpkg"),
                "--tool", "conc", "--tool", "lint",
                "--no-baseline", "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert list(payload["baselined"]) == ["repro-lint", "repro-conc"]
        tools = [f["tool"] for f in payload["new"]]
        assert tools == sorted(tools, key=["repro-lint", "repro-conc"].index)
        assert tools.count("repro-conc") == 12

    @pytest.mark.parametrize(
        ("tool", "package", "entry", "count"),
        [
            ("flow", FIXTURES / "flowpkg", "flowpkg.helpers.unreached_jitter", 9),
            # A full qualname is its own suffix for hot's entry matcher.
            ("hot", FIXTURES / "hotpkg", "hotpkg.utils.cold_densify", 11),
        ],
        ids=["flow", "hot"],
    )
    def test_entry_widens_reachability(self, tool, package, entry, count, capsys):
        argv = [str(package), "--tool", tool, "--no-baseline", "--entry", entry]
        assert analyze.main(argv) == 1
        assert f"repro-{tool}: {count} new finding(s)" in capsys.readouterr().out

    def test_list_rules_covers_selected_tools_only(self, capsys):
        assert analyze.main(["--list-rules", "--tool", "flow", "--tool", "hot"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert "T001" in listed and "P008" in listed
        assert not any(rule.startswith(("R", "C")) for rule in listed)


class TestWarnings:
    @pytest.mark.parametrize("tool", ["flow", "conc", "hot"])
    def test_load_errors_are_warnings(self, tool, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        package = tmp_path / "brokenpkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "broken.py").write_text("def f(:\n")
        assert analyze.main([str(package), "--tool", tool]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "broken.py:1: syntax error" in err

    def test_load_errors_warn_once_for_all_tools(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        package = tmp_path / "brokenpkg"
        package.mkdir()
        (package / "broken.py").write_text("def f(:\n")
        # lint reports the same file as an E000 finding.
        assert analyze.main([str(package)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("broken.py:1: syntax error") == 1
        assert "E000" in captured.out


class TestCombinedFix:
    def test_lint_and_hot_fixes_in_one_run(self, tmp_path, capsys):
        work = tmp_path / "hotpkg"
        shutil.copytree(FIXTURES / "hotpkg", work)
        shutil.copy(FIXTURES / "violations" / "r001_exceptions.py", work / "errs.py")
        argv = [str(work), "--tool", "lint", "--tool", "hot", "--no-baseline", "--fix"]

        assert analyze.main(argv) == 1
        captured = capsys.readouterr()
        assert "--fix rewrote 2 file(s)" in captured.err
        assert "rewrote" not in captured.out
        assert "raise ValidationError(" in (work / "errs.py").read_text()
        assert '{"viagra", "cialis", "xanax"}' in (work / "utils.py").read_text()
        assert " R001 " not in captured.out and " P003 " not in captured.out

        # Idempotent: the second run rewrites nothing.
        snapshot = {p.name: p.read_text() for p in work.glob("*.py")}
        analyze.main(argv)
        assert "rewrote" not in capsys.readouterr().err
        assert {p.name: p.read_text() for p in work.glob("*.py")} == snapshot
