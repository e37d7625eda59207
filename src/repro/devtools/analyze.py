"""repro-analyze: the one front end for the four static analyzers.

Usage::

    python -m repro.devtools.analyze [paths ...] [--tool NAME ...]
        [--no-baseline] [--write-baseline] [--justification TEXT]
        [--fix] [--entry QUALNAME ...]
        [--format text|json|sarif|github] [--list-rules]

With no paths, ``src/repro`` is analyzed; with no ``--tool``, every
tool runs, in this order:

* ``lint`` — per-module rules R001-R009; accepts files and directories;
* ``flow`` — interprocedural taint and determinism (T001-T005, D001-D003);
* ``conc`` — parallel safety and cache coherence (C001-C006);
* ``hot`` — hot-path performance, ranked by static cost (P001-P008).

``flow``, ``conc`` and ``hot`` take package directories and share one
parsed project and call graph, built only when one of them is selected.

Each tool is gated against its own section of ``.repro-baseline.json``
in the current directory (a missing file or section is empty);
``--write-baseline`` rewrites the selected tools' sections and leaves
the others alone.  ``--fix`` applies lint's R001/R009 and then hot's
P003 autofixes in place and re-analyzes.  ``--entry`` names an extra
entry point: a determinism entrypoint for ``flow`` (full qualname) and
a hot entry for ``hot`` (qualname suffix).

Exit status: 0 when no tool has new findings, 1 when any does or
``--fix`` rewrote a file, 2 on usage errors.  The report goes to
stdout; warnings (unparsable files, stale baseline entries) and the
``--fix`` note go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.devtools.autofix import fix_p003_findings
from repro.devtools.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.devtools.conc.analyzer import conc_findings
from repro.devtools.conc.registry import CONC_RULES
from repro.devtools.emit import render_github, render_sarif_document, sarif_run
from repro.devtools.findings import Finding
from repro.devtools.flow.analysis import (
    ProjectAnalysis,
    analyze_project,
    flow_findings,
)
from repro.devtools.flow.registry import FLOW_RULES
from repro.devtools.hot.analyzer import hot_findings
from repro.devtools.hot.registry import HOT_RULES
from repro.devtools.lint import discover_files, fix_findings, lint_paths
from repro.devtools.rules import RULES
from repro.exceptions import ValidationError

__all__ = ["Target", "Tool", "TOOLS", "run_tools", "main"]


class Target:
    """What one run analyzes: the paths, the ``--entry`` names, and the
    project pass that flow, conc and hot share, built on first use."""

    def __init__(self, paths: Sequence[str], entries: Sequence[str] = ()) -> None:
        self.paths = list(paths)
        self.entries = list(entries)
        self._analysis: ProjectAnalysis | None = None

    def analysis(self) -> ProjectAnalysis:
        """The shared parsed project, summaries and call graph."""
        if self._analysis is None:
            self._analysis = analyze_project(self.paths)
        return self._analysis

    @property
    def load_errors(self) -> list[tuple[str, int, str]]:
        """(path, line, message) for files the project pass could not parse."""
        return self._analysis.load_errors if self._analysis else []


@dataclass(frozen=True)
class Tool:
    """One analyzer: its rule catalogue, its analysis and its autofix.

    Attributes:
        name: the ``--tool`` choice and baseline section (``lint``).
        rules: rule id -> one-line summary.
        analyze: all findings for a target, occurrence-stamped, in
            report order.
        fix: given the findings and the walked files, rewrites the files
            behind fixable findings in place and returns the rewritten
            paths; ``None`` when nothing is fixable.
        accepts_files: whether single ``.py`` files are valid paths.
    """

    name: str
    rules: Mapping[str, str]
    analyze: Callable[[Target], list[Finding]]
    fix: Callable[[Sequence[Finding], Sequence[Path]], list[str]] | None = None
    accepts_files: bool = False

    @property
    def driver(self) -> str:
        """Name in reports and SARIF runs (``repro-lint``)."""
        return f"repro-{self.name}"


TOOLS: tuple[Tool, ...] = (
    Tool(
        "lint",
        {rule.rule_id: rule.summary for rule in RULES},
        lambda target: lint_paths(target.paths),
        fix=fix_findings,
        accepts_files=True,
    ),
    Tool(
        "flow",
        FLOW_RULES,
        lambda target: flow_findings(target.analysis(), target.entries),
    ),
    Tool("conc", CONC_RULES, lambda target: conc_findings(target.analysis())),
    Tool(
        "hot",
        HOT_RULES,
        lambda target: hot_findings(target.analysis(), target.entries),
        fix=fix_p003_findings,
    ),
)


def run_tools(
    tools: Sequence[Tool],
    paths: Sequence[str],
    entries: Sequence[str] = (),
    fix: bool = False,
) -> tuple[list[list[Finding]], list[str], list[tuple[str, int, str]]]:
    """Run ``tools`` over ``paths``, sharing one project pass.

    With ``fix``, each tool's autofix runs first, in tool order, on a
    fresh analysis whenever an earlier fix rewrote a file.

    Returns:
        (findings per tool, rewritten paths, project load errors).
    """
    target = Target(paths, entries)
    rewritten: list[str] = []
    if fix:
        for tool in tools:
            if tool.fix is None:
                continue
            changed = tool.fix(tool.analyze(target), discover_files(paths))
            if changed:
                rewritten.extend(p for p in changed if p not in rewritten)
                target = Target(paths, entries)
    findings = [tool.analyze(target) for tool in tools]
    return findings, rewritten, target.load_errors


@dataclass(frozen=True)
class _Report:
    tool: Tool
    new: list[Finding]
    baselined: list[Finding]
    stale: list[str]


def _render_text(reports: Sequence[_Report]) -> str:
    out = []
    for report in reports:
        out.extend(f"[{report.tool.driver}] {f.render()}" for f in report.new)
        status = f"{len(report.new)} new finding(s)" if report.new else "clean"
        suffix = f" ({len(report.baselined)} baselined)" if report.baselined else ""
        out.append(f"{report.tool.driver}: {status}{suffix}")
    total = sum(len(r.new) for r in reports)
    if total:
        out.append(f"found {total} new finding(s) in total")
    return "\n".join(out)


def _render_json(reports: Sequence[_Report]) -> str:
    def encode(tool: Tool, finding: Finding) -> dict[str, object]:
        return {
            "tool": tool.driver,
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "column": finding.column,
            "message": finding.message,
            "symbol": finding.symbol,
            "fingerprint": finding.fingerprint(),
            "fixable": finding.fixable,
        }

    return json.dumps(
        {
            "new": [encode(r.tool, f) for r in reports for f in r.new],
            "baselined": {r.tool.driver: len(r.baselined) for r in reports},
            "stale_baseline_entries": {r.tool.driver: r.stale for r in reports},
        },
        indent=2,
    )


_RENDERERS: dict[str, Callable[[Sequence[_Report]], str]] = {
    "text": _render_text,
    "json": _render_json,
    "sarif": lambda reports: render_sarif_document(
        [sarif_run(r.tool.driver, r.new, r.tool.rules) for r in reports]
    ),
    "github": lambda reports: render_github([f for r in reports for f in r.new]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.analyze",
        description="Static analysis for the repro codebase: lint, flow, conc and hot.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="package directories (or, for lint alone, files) to analyze "
        "(default: src/repro)",
    )
    parser.add_argument(
        "--tool",
        action="append",
        choices=[tool.name for tool in TOOLS],
        help="run only this analyzer; repeatable (default: all four)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help=f"ignore ./{DEFAULT_BASELINE_NAME}; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather all current findings into the selected tools' "
        "baseline sections and exit 0",
    )
    parser.add_argument(
        "--justification",
        default="",
        help="note recorded on every entry written by --write-baseline",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply autofixes in place (lint R001/R009, hot P003), then re-analyze",
    )
    parser.add_argument(
        "--entry",
        action="append",
        default=[],
        metavar="QUALNAME",
        help="extra entry point: flow determinism entrypoint (qualname) and "
        "hot entry (qualname suffix); repeatable",
    )
    parser.add_argument(
        "--format",
        choices=tuple(_RENDERERS),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the selected tools' rule catalogues and exit",
    )
    return parser


def _report(tool: Tool, baseline: Baseline, findings: list[Finding]) -> _Report:
    new, baselined = baseline.filter(findings)
    stale = baseline.stale_fingerprints(findings)
    if stale:
        sys.stderr.write(
            f"warning: {tool.driver}: {len(stale)} stale baseline "
            "entr(y/ies) no longer observed; refresh with "
            f"--write-baseline --tool {tool.name}\n"
        )
    return _Report(tool, new, baselined, stale)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    tools = [t for t in TOOLS if args.tool is None or t.name in args.tool]

    if args.list_rules:
        for tool in tools:
            for rule_id, summary in tool.rules.items():
                sys.stdout.write(f"{rule_id}  {summary}\n")
        return 0

    missing = [raw for raw in args.paths if not Path(raw).exists()]
    if missing:
        sys.stderr.write(f"error: no such path(s): {', '.join(missing)}\n")
        return 2
    files = [raw for raw in args.paths if not Path(raw).is_dir()]
    dir_only = [tool.driver for tool in tools if not tool.accepts_files]
    if files and dir_only:
        sys.stderr.write(
            f"error: {', '.join(dir_only)} need package directories, not "
            f"files: {', '.join(files)}\n"
        )
        return 2

    baseline_path = Path(DEFAULT_BASELINE_NAME)
    try:
        baselines = [
            Baseline()
            if args.no_baseline or args.write_baseline
            else Baseline.load(baseline_path, tool.name)
            for tool in tools
        ]
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    results, rewritten, load_errors = run_tools(
        tools, args.paths, entries=args.entry, fix=args.fix
    )
    for path, line, message in load_errors:
        sys.stderr.write(f"warning: {path}:{line}: {message}\n")
    if rewritten:
        sys.stderr.write(
            f"note: --fix rewrote {len(rewritten)} file(s); review and "
            "commit the changes\n"
        )

    if args.write_baseline:
        for tool, findings in zip(tools, results):
            try:
                Baseline.from_findings(findings, args.justification).save(
                    baseline_path, tool.name
                )
            except (ValidationError, OSError) as exc:
                sys.stderr.write(f"error: {exc}\n")
                return 2
            sys.stdout.write(
                f"{tool.driver}: wrote {len(findings)} finding(s) to {baseline_path}\n"
            )
        return 0

    reports = [
        _report(tool, baseline, findings)
        for tool, baseline, findings in zip(tools, baselines, results)
    ]
    sys.stdout.write(_RENDERERS[args.format](reports) + "\n")
    return 1 if rewritten or any(r.new for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
