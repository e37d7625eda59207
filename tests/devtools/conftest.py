"""The repo-tree gate, run once per session: all four analyzers over
src/repro against the committed baseline, the way CI runs them."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.devtools import analyze
from repro.devtools.baseline import DEFAULT_BASELINE_NAME, Baseline

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class RepoTreeRun:
    status: int
    sarif: dict
    err: str

    @property
    def drivers(self) -> list[str]:
        return [run["tool"]["driver"]["name"] for run in self.sarif["runs"]]

    def results(self, driver: str) -> list[dict]:
        (run,) = [
            r for r in self.sarif["runs"] if r["tool"]["driver"]["name"] == driver
        ]
        return run["results"]

    def stale_warned(self, driver: str) -> bool:
        return any(
            line.startswith(f"warning: {driver}: ") and "stale" in line
            for line in self.err.splitlines()
        )


def committed_baseline(tool: str) -> Baseline:
    return Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME, tool)


@pytest.fixture(scope="session")
def repo_tree_run() -> RepoTreeRun:
    # Fingerprints record repo-relative paths, so analyze from the root.
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO_ROOT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = analyze.main(["src/repro", "--format", "sarif"])
    return RepoTreeRun(status, json.loads(out.getvalue()), err.getvalue())
