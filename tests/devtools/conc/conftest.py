"""Shared fixtures: the concpkg fixture package, analyzed once."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.conc.analyzer import conc_findings
from repro.devtools.flow.analysis import analyze_project

CONCPKG = Path(__file__).parent.parent / "fixtures" / "concpkg"
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="session")
def conc_analysis():
    return analyze_project([str(CONCPKG)])


@pytest.fixture(scope="session")
def concpkg_findings(conc_analysis):
    assert conc_analysis.load_errors == []
    return conc_findings(conc_analysis)
