"""repro-hot: hot-path performance anti-pattern analyzer (P001-P008).

Detects statically visible performance regressions — per-item calls to
batch APIs, CSR densification, O(n^2) membership scans, quadratic
array/string accumulation, hoistable pure calls, per-call re-derivation
of invariant state, and reference-kernel imports — and ranks every
finding by a static cost model: syntactic loop-nesting depth at the
site multiplied by reachability from the registered hot entry points
(the sweep driver, the serving verifier, the crawl loop, and the
kernels the perf benchmark harness drives).

Run as ``python -m repro.devtools.analyze --tool hot``.
"""

from repro.devtools.hot.analyzer import hot_findings
from repro.devtools.hot.registry import HOT_RULES

__all__ = ["hot_findings", "HOT_RULES"]
