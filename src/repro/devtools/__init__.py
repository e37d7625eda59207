"""Project-specific developer tooling.

Two companion halves guard the numeric kernels of the reproduction:

* four static analyzers — :mod:`repro.devtools.lint` (per-module rules:
  exception hygiene, seeded randomness, import layering, float
  comparisons, API documentation) and the project-wide ``flow``,
  ``conc`` and ``hot`` analyzers — behind one front end,
  ``python -m repro.devtools.analyze src/repro``
  (:mod:`repro.devtools.analyze`);
* :mod:`repro.devtools.contracts` — runtime numeric-contract
  decorators (probability vectors, row-stochastic matrices, bounded
  scores) that are active under pytest or ``REPRO_CONTRACTS=1`` and
  compile to no-ops otherwise.

See ``docs/devtools.md`` for the rule catalogues and workflows.
"""

from repro.devtools.findings import Finding
from repro.devtools.rules import RULES, Rule

__all__ = ["Finding", "Rule", "RULES"]
