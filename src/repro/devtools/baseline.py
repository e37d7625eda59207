"""Baseline (grandfathered-findings) support for the analyzers.

A baseline is one committed JSON file with a section per analyzer
(``lint``, ``flow``, ``conc``, ``hot``), each listing fingerprints of
known violations.  ``repro-analyze`` subtracts a tool's baselined
findings from its report, so a rule can be introduced without first
fixing (or while deliberately keeping) every historical hit; any *new*
violation still fails the build.  Regenerate a section with
``python -m repro.devtools.analyze --write-baseline --tool lint``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.findings import Finding
from repro.exceptions import ValidationError

__all__ = ["Baseline", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = ".repro-baseline.json"

_FORMAT_VERSION = 2


def _read_sections(path: Path) -> dict[str, list[dict[str, object]]]:
    """Every tool's entries in a baseline file; a missing file is empty."""
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"baseline {path} is not valid JSON: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("version") != _FORMAT_VERSION
        or not isinstance(payload.get("tools"), dict)
        or not all(isinstance(s, list) for s in payload["tools"].values())
    ):
        raise ValidationError(
            f"baseline {path} has an unsupported format; regenerate it "
            "with --write-baseline"
        )
    for section in payload["tools"].values():
        for entry in section:
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                raise ValidationError(
                    f"baseline {path} contains an entry without a fingerprint"
                )
    return payload["tools"]


class Baseline:
    """An allowlist of grandfathered finding fingerprints for one tool."""

    def __init__(self, entries: Iterable[dict[str, object]] = ()) -> None:
        self._entries: list[dict[str, object]] = [dict(e) for e in entries]
        self._fingerprints = {str(e["fingerprint"]) for e in self._entries}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint() in self._fingerprints

    @property
    def entries(self) -> tuple[dict[str, object], ...]:
        """The raw baseline entries, in file order."""
        return tuple(self._entries)

    def filter(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Split ``findings`` into (new, grandfathered)."""
        new: list[Finding] = []
        old: list[Finding] = []
        for finding in findings:
            (old if finding in self else new).append(finding)
        return new, old

    def stale_fingerprints(self, findings: Sequence[Finding]) -> list[str]:
        """Baseline entries no longer observed (fixed since recording)."""
        live = {finding.fingerprint() for finding in findings}
        return [
            str(e["fingerprint"])
            for e in self._entries
            if str(e["fingerprint"]) not in live
        ]

    @classmethod
    def from_findings(
        cls, findings: Sequence[Finding], justification: str = ""
    ) -> "Baseline":
        """Build a baseline grandfathering every given finding."""
        entries = []
        for finding in sorted(
            findings, key=lambda f: (f.path, f.line, f.rule)
        ):
            entry: dict[str, object] = {
                "fingerprint": finding.fingerprint(),
                "rule": finding.rule,
                "path": finding.path,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            if justification:
                entry["justification"] = justification
            entries.append(entry)
        return cls(entries)

    @classmethod
    def load(cls, path: Path, tool: str) -> "Baseline":
        """Read ``tool``'s section of a baseline file; a missing file or
        section is an empty baseline."""
        return cls(_read_sections(path).get(tool, ()))

    def save(self, path: Path, tool: str) -> None:
        """Write this baseline as ``tool``'s section of the file, keeping
        every other tool's section as it is (deterministic JSON)."""
        sections = _read_sections(path)
        sections[tool] = self._entries
        payload = {"version": _FORMAT_VERSION, "tools": sections}
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
