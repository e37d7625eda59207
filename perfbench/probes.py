"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The program has no instrumentation of its own yet, so the traced run
wraps the public entry points of each layer at run time (class
attributes for methods; every ``repro.*`` module binding for free
functions, since callers import them by name).  Each wrapped call
records one span: name, start, end, parent span and the id of the
request, tick or pass it belongs to.  Spans stay in memory and are
written out once, as Chrome trace-event JSON that Perfetto opens.

Nothing here runs unless :func:`install` is called, so untraced runs
measure the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

#: Probe table: (module, attribute path, span name).  An attribute path
#: ``Class.method`` wraps the method on the class; a bare name wraps a
#: module-level function everywhere it is bound under ``repro.``.
SPAN_PROBES: tuple[tuple[str, str, str], ...] = (
    ("repro.serve.http", "VerificationRequestHandler.do_GET", "serve.http"),
    ("repro.serve.http", "VerificationRequestHandler.do_POST", "serve.http"),
    ("repro.serve.admission", "Bulkhead.try_acquire", "serve.admission"),
    ("repro.serve.service", "VerificationService.verify_batch", "serve.service"),
    ("repro.perf.cache", "FeatureCache.load", "perf.cache.load"),
    ("repro.perf.cache", "FeatureCache.store", "perf.cache.store"),
    ("repro.perf.store", "MatrixStore.load_csr", "perf.store.load_csr"),
    ("repro.web.crawler", "Crawler.crawl_site", "web.crawler"),
    ("repro.web.site", "Website.outbound_endpoints", "web.site.endpoints"),
    ("repro.text.summarization", "Summarizer.summarize_site", "text.summarize"),
    ("repro.text.term_vector", "TfidfVectorizer.transform", "text.tfidf.transform"),
    ("repro.ml.naive_bayes", "MultinomialNB.predict", "ml.classify"),
    ("repro.ml.naive_bayes", "MultinomialNB.predict_proba", "ml.classify"),
    ("repro.ml.svm", "LinearSVC.warm_fit", "ml.svm.warm_fit"),
    ("repro.ml.svm", "LinearSVC.predict", "ml.svm.predict"),
    ("repro.core.verifier", "PharmacyVerifier.verify_sites", "core.verifier"),
    ("repro.core.verifier", "PharmacyVerifier.fit", "core.verifier.fit"),
    ("repro.core.ranking", "rank_pharmacies", "core.ranking"),
    ("repro.network.trustrank", "trustrank", "network.trustrank"),
    (
        "repro.network.blockrank",
        "compile_transition_store_from_edges",
        "network.blockrank.compile",
    ),
    ("repro.network.blockrank", "block_trustrank", "network.blockrank.rank"),
    ("repro.data.sharding", "write_shards", "data.sharding.write"),
    # The lazy corpus has no public "read a shard" call; this private
    # parse is the one place shard bytes are read and decoded.
    ("repro.data.sharding", "ShardedCorpus._parse_shard", "data.sharding.read"),
    ("repro.data.deltas", "StreamCorpus.apply", "data.deltas.apply"),
    ("repro.stream.crawl", "DeltaCrawlStore.apply", "stream.crawl.apply"),
    ("repro.stream.features", "IncrementalDocumentFrequencies.add", "stream.features.df"),
    ("repro.stream.features", "IncrementalDocumentFrequencies.replace", "stream.features.df"),
    ("repro.stream.features", "IncrementalDocumentFrequencies.remove", "stream.features.df"),
    ("repro.stream.features", "IncrementalClassGraphs.add", "stream.features.ngg"),
    ("repro.stream.features", "IncrementalClassGraphs.replace", "stream.features.ngg"),
    ("repro.stream.features", "IncrementalClassGraphs.remove", "stream.features.ngg"),
    (
        "repro.stream.features",
        "IncrementalClassGraphs.build_document_graph",
        "stream.features.ngg",
    ),
    ("repro.stream.rank", "DeltaRankState.set_row", "stream.rank.push"),
    ("repro.stream.rank", "DeltaRankState.push", "stream.rank.push"),
    ("repro.stream.drift", "DriftDetector.observe", "stream.drift.observe"),
    ("repro.stream.pipeline", "StreamingVerifier.apply_tick", "stream.tick"),
    ("repro.stream.pipeline", "StreamingVerifier.bootstrap", "stream.bootstrap"),
)

#: Count-only probes: too fine-grained (once per link) for a span each.
COUNT_PROBES: tuple[tuple[str, str, str], ...] = (
    ("repro.web.url", "endpoint", "web.url.endpoint_calls"),
)

#: Per-layer metrics every traced run reports, with their units.
PER_LAYER_UNITS: dict[str, str] = {
    "serve.http.self_s": "s",
    "serve.admission.wait_s": "s",
    "serve.admission.shed": "count",
    "serve.service.self_s": "s",
    "perf.cache.hit_ratio": "share",
    "perf.cache.load_s": "s",
    "perf.cache.store_s": "s",
    "perf.cache.stores": "count",
    "web.crawler.crawl_s": "s",
    "web.crawler.pages": "count",
    "web.crawler.retries": "count",
    "web.site.endpoints_s": "s",
    "web.site.endpoints_calls_per_site": "1/site",
    "web.url.endpoint_calls": "count",
    "text.summarize_s": "s",
    "text.summarize.docs": "count",
    "text.tfidf.transform_s": "s",
    "text.tfidf.rows_per_site": "1/site",
    "ml.classify_s": "s",
    "core.verifier.self_s": "s",
    "core.ranking.rank_s": "s",
    "core.verifier.fit_s": "s",
    "network.trustrank_s": "s",
    "data.sharding.write_s": "s",
    "data.sharding.read_s": "s",
    "data.sharding.shards_opened": "count",
    "network.blockrank.compile_s": "s",
    "network.blockrank.rank_s": "s",
    "network.blockrank.iterations": "count",
    "perf.store.load_csr_calls": "count",
    "perf.store.load_csr_s": "s",
    "data.deltas.apply_s": "s",
    "stream.crawl.apply_s": "s",
    "stream.crawl.recrawled": "count",
    "stream.features.df_s": "s",
    "stream.features.ngg_s": "s",
    "ml.svm.warm_fit_s": "s",
    "ml.svm.warm_fit_rows": "count",
    "ml.svm.predict_s": "s",
    "ml.svm.predict_rows": "count",
    "stream.rank.push_s": "s",
    "stream.rank.sweeps": "count",
    "stream.drift.observe_s": "s",
    "stream.drift.retrains": "count",
    "stream.tick.self_s": "s",
    "stream.bootstrap_s": "s",
    "core.ranking.pairord": "1",
    "stream.staleness": "share",
    "trace.unattributed_share": "share",
    "trace.overhead": "share",
}

#: Span name -> metric reporting that span's summed self time.
SELF_TIME_METRICS: dict[str, str] = {
    "serve.http": "serve.http.self_s",
    "serve.service": "serve.service.self_s",
    "perf.cache.load": "perf.cache.load_s",
    "perf.cache.store": "perf.cache.store_s",
    "web.crawler": "web.crawler.crawl_s",
    "web.site.endpoints": "web.site.endpoints_s",
    "text.summarize": "text.summarize_s",
    "text.tfidf.transform": "text.tfidf.transform_s",
    "ml.classify": "ml.classify_s",
    "core.verifier": "core.verifier.self_s",
    "core.ranking": "core.ranking.rank_s",
    "network.trustrank": "network.trustrank_s",
    "data.sharding.write": "data.sharding.write_s",
    "data.sharding.read": "data.sharding.read_s",
    "network.blockrank.compile": "network.blockrank.compile_s",
    "network.blockrank.rank": "network.blockrank.rank_s",
    "perf.store.load_csr": "perf.store.load_csr_s",
    "data.deltas.apply": "data.deltas.apply_s",
    "stream.crawl.apply": "stream.crawl.apply_s",
    "stream.features.df": "stream.features.df_s",
    "stream.features.ngg": "stream.features.ngg_s",
    "ml.svm.warm_fit": "ml.svm.warm_fit_s",
    "ml.svm.predict": "ml.svm.predict_s",
    "stream.rank.push": "stream.rank.push_s",
    "stream.drift.observe": "stream.drift.observe_s",
    "stream.tick": "stream.tick.self_s",
}

#: Span name -> metric reporting that span's summed *inclusive* time:
#: waits, and the set-up phases whose whole cost lands in ``setup_s``.
TOTAL_TIME_METRICS: dict[str, str] = {
    "serve.admission": "serve.admission.wait_s",
    "core.verifier.fit": "core.verifier.fit_s",
    "stream.bootstrap": "stream.bootstrap_s",
}


@dataclass(slots=True)
class Span:
    """One timed call (``perf_counter`` seconds, a system-wide clock)."""

    sid: int
    parent: int
    name: str
    start: float
    end: float
    tid: int
    trace_id: str
    n: int = 0  # work items the call handled (rows, blocks), when counted


@dataclass
class Tracer:
    """In-memory span and counter sink shared by every probe."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    enabled: bool = False
    _ids: Iterable[int] = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def trace_id(self) -> str:
        return getattr(self._local, "trace_id", "-")

    @trace_id.setter
    def trace_id(self, value: str) -> None:
        self._local.trace_id = value

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def timed(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> tuple[Any, Span]:
        """Run ``fn`` as one span named ``name``; returns (result, span)."""
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else 0, name, 0.0, 0.0,  # type: ignore[call-overload]
                    threading.get_ident(), self.trace_id)
        stack.append(span.sid)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)


# -- after-call hooks: counts measured where the work happens ---------------


def _after(name: str, tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    if name == "serve.admission" and result is False:
        tracer.count("serve.admission.shed")
    elif name == "perf.cache.load":
        tracer.count("perf.cache.loads")
        if result is not None:
            tracer.count("perf.cache.hits")
    elif name == "perf.cache.store":
        tracer.count("perf.cache.stores")
    elif name == "web.crawler":
        stats = args[0].last_stats
        if stats is not None:
            tracer.count("web.crawler.pages", stats.pages_fetched)
            tracer.count("web.crawler.retries", stats.retries)
    elif name == "text.summarize":
        tracer.count("text.summarize.docs")
    elif name == "text.tfidf.transform":
        span.n = len(args[1])
    elif name == "core.verifier":
        span.n = len(args[1])
    elif name == "ml.svm.warm_fit":
        tracer.count("ml.svm.warm_fit_rows", args[1].shape[0])
    elif name == "ml.svm.predict":
        tracer.count("ml.svm.predict_rows", args[1].shape[0])
    elif name == "stream.crawl.apply":
        tracer.count("stream.crawl.recrawled", len(result))
    elif name == "stream.rank.push" and isinstance(result, int):
        tracer.count("stream.rank.sweeps", result)
    elif name == "stream.drift.observe" and result.should_retrain:
        tracer.count("stream.drift.retrains")
    elif name == "network.blockrank.rank":
        span.n = args[0].n_blocks


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if name == "serve.http":
            # One trace id per request, carried in from the load generator.
            tracer.trace_id = args[0].headers.get("X-Bench-Request", "-")
        result, span = tracer.timed(name, fn, *args, **kwargs)
        _after(name, tracer, span, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.enabled:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


_INHERITED = object()


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every probe target; returns a function that unwraps them."""
    import importlib

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        # An inherited method has no entry of its own: undo deletes it.
        undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def wrap_all(probes: Iterable[tuple[str, str, str]], make: Callable) -> None:
        for module_name, path, name in probes:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                patch(cls, method, make(tracer, name, getattr(cls, method)))
                continue
            original = getattr(module, path)
            wrapped = make(tracer, name, original)
            # Callers bind functions by name at import; rebind them all.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith(("repro", "benchmarks")) and (
                    other.__dict__.get(path) is original
                ):
                    patch(other, path, wrapped)

    for module_name, _, _ in SPAN_PROBES + COUNT_PROBES:
        importlib.import_module(module_name)
    wrap_all(SPAN_PROBES, _span_wrapper)
    wrap_all(COUNT_PROBES, _count_wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return uninstall


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Probes installed and recording inside the block only.

    Outside it the program runs unwrapped, so untraced baselines pay
    nothing for the probes.
    """
    uninstall = install(tracer)
    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.enabled = False
        uninstall()


# -- aggregation -------------------------------------------------------------


def _self_times(spans: list[Span]) -> dict[int, float]:
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_time[span.parent] += span.end - span.start
    return {s.sid: (s.end - s.start) - child_time[s.sid] for s in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def covered_seconds(spans: Iterable[Span], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``spans``."""
    intervals = sorted(
        (max(s.start, lo), min(s.end, hi)) for s in spans if s.end > lo and s.start < hi
    )
    covered = 0.0
    cur_start, cur_end = None, None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Every per-layer metric from one traced run's spans and counters.

    Metrics the workload does not exercise read 0.  ``trace.*`` and the
    quality figures are filled in by the workload itself.
    """
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    self_time = _self_times(spans)
    by_id = {s.sid: s for s in spans}
    for span in spans:
        if span.name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[span.name]] += self_time[span.sid]
        if span.name in TOTAL_TIME_METRICS:
            metrics[TOTAL_TIME_METRICS[span.name]] += span.end - span.start
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = float(value)
    loads = counters.get("perf.cache.loads", 0)
    metrics["perf.cache.hit_ratio"] = counters.get("perf.cache.hits", 0) / loads if loads else 0.0

    verified = sum(s.n for s in spans if s.name == "core.verifier")
    if verified:
        in_verify = [s for s in spans if _has_ancestor(s, "core.verifier", by_id)]
        metrics["web.site.endpoints_calls_per_site"] = (
            sum(1 for s in in_verify if s.name == "web.site.endpoints") / verified
        )
        # Rows transformed on the verify path only (a fit transforms too).
        metrics["text.tfidf.rows_per_site"] = (
            sum(s.n for s in in_verify if s.name == "text.tfidf.transform") / verified
        )
    metrics["data.sharding.shards_opened"] = float(
        sum(1 for s in spans if s.name == "data.sharding.read")
    )
    metrics["perf.store.load_csr_calls"] = float(
        sum(1 for s in spans if s.name == "perf.store.load_csr")
    )
    blocks = {s.sid: s.n for s in spans if s.name == "network.blockrank.rank"}
    for span in spans:
        if span.name == "perf.store.load_csr" and span.parent in blocks:
            # Each power iteration loads every block once.
            metrics["network.blockrank.iterations"] += 1 / blocks[span.parent]
    return metrics


def chrome_trace(spans: Iterable[Span], pid: int | None = None) -> list[dict[str, Any]]:
    """Complete ("X") trace events, microseconds, one per span."""
    pid = os.getpid() if pid is None else pid
    return [
        {
            "name": s.name,
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": pid,
            "tid": s.tid,
            "args": {"id": s.trace_id, "span": s.sid, "parent": s.parent},
        }
        for s in spans
    ]


def write_chrome_trace(path: str, events: list[dict[str, Any]]) -> None:
    """Write a trace file Perfetto and chrome://tracing open."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
