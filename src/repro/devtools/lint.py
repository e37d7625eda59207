"""repro-lint: the per-module rules (R001-R009) over files or trees.

Run it through the one analyzer front end::

    python -m repro.devtools.analyze --tool lint [paths ...]

Unlike the project-wide analyzers, lint accepts single files as well as
directories.  :func:`discover_files` is the file walker every analyzer
shares.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.devtools.autofix import apply_r001_fixes, apply_r009_fixes, rewrite_files
from repro.devtools.findings import Finding, assign_occurrences
from repro.devtools.rules import RULES, ModuleInfo, parse_module

__all__ = ["lint_paths", "fix_findings", "discover_files"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def discover_files(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _lint_module(module: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.run(module))
    findings.sort(key=lambda f: (f.line, f.column, f.rule))
    return findings


def _lint_file(file_path: Path) -> list[Finding]:
    try:
        source = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Finding(
                rule="E000",
                path=str(file_path),
                line=1,
                column=0,
                message=f"cannot read file: {exc}",
            )
        ]
    try:
        module = parse_module(str(file_path), source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="E000",
                path=str(file_path),
                line=exc.lineno or 1,
                column=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    return _lint_module(module)


def _fix_source(path: str, source: str) -> str:
    # One fixer at a time with a re-lint in between, so the findings each
    # fixer sees carry line numbers valid for the source it rewrites.
    for apply_fn in (apply_r001_fixes, apply_r009_fixes):
        source = apply_fn(source, _lint_module(parse_module(path, source)))
    return source


def fix_findings(findings: Sequence[Finding], files: Sequence[Path]) -> list[str]:
    """Apply the cheap autofixes (R001, R009) in place to every walked
    file with a fixable finding; returns the paths that were rewritten."""
    return rewrite_files(files, {f.path for f in findings if f.fixable}, _fix_source)


def lint_paths(paths: Sequence[str]) -> list[Finding]:
    """Lint every python file under ``paths`` (files or directories).

    Returns:
        All findings in (path, line) order, occurrence-stamped.
    """
    findings: list[Finding] = []
    for file_path in discover_files(paths):
        findings.extend(_lint_file(file_path))
    return assign_occurrences(findings)
