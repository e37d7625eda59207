"""Self-test of the benchmark at a tiny size.

Checks that every workload, untraced and traced, reports exactly the
metrics ``BENCHMARK.json`` declares, with their units; that the
per-layer names are the ones fixed when the benchmark was defined; that
each output check fails when the program's output is deliberately
perturbed; and that the model-quality figures repeat exactly for a seed.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

import numpy as np  # noqa: E402

from perfbench import batch, common, probes, serve, stream  # noqa: E402
from repro.network.graph import DirectedGraph  # noqa: E402
from repro.network.trustrank import trustrank  # noqa: E402

#: The per-layer metric names fixed when the benchmark was defined.
FIXED_PER_LAYER = """
serve.http.self_s serve.admission.wait_s serve.admission.shed serve.service.self_s
perf.cache.hit_ratio perf.cache.load_s perf.cache.store_s perf.cache.stores
web.crawler.crawl_s web.crawler.pages web.crawler.retries
web.site.endpoints_s web.site.endpoints_calls_per_site web.url.endpoint_calls
text.summarize_s text.summarize.docs text.tfidf.transform_s text.tfidf.rows_per_site
ml.classify_s core.verifier.self_s core.ranking.rank_s core.verifier.fit_s network.trustrank_s
data.sharding.write_s data.sharding.read_s data.sharding.shards_opened
network.blockrank.compile_s network.blockrank.rank_s network.blockrank.iterations
perf.store.load_csr_calls perf.store.load_csr_s
data.deltas.apply_s stream.crawl.apply_s stream.crawl.recrawled
stream.features.df_s stream.features.ngg_s
ml.svm.warm_fit_s ml.svm.warm_fit_rows ml.svm.predict_s ml.svm.predict_rows
stream.rank.push_s stream.rank.sweeps stream.drift.observe_s stream.drift.retrains
stream.tick.self_s stream.bootstrap_s
trace.unattributed_share trace.overhead
""".split()

TINY = {
    "batch": lambda seed, trace: batch.run(seed, 0.5, trace, n_sites=300),
    "stream": lambda seed, trace: stream.run(seed, 1.0, trace, scale=0.1),
    "serve": lambda seed, trace: serve.run(seed, 1.0, trace, scale=0.25),
}

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def declared() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_output(name: str, trace: bool, result: common.RunResult, wanted: dict[str, str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        common.emit(result)
    lines = out.getvalue().splitlines()
    final = json.loads(lines[-1])
    label = f"{name} trace={int(trace)}"
    expect(result.correct, f"{label}: output checks pass {result.check_errors}")
    expect(final["attempted"] >= 1, f"{label}: attempted >= 1")
    expect(
        {k: v["unit"] for k, v in final["metrics"].items()} == wanted,
        f"{label}: JSON metrics are exactly the declared ones, with their units",
    )
    table = "\n".join(lines[:-1])
    expect(
        all(f" {metric} " in table and table.count(unit) for metric, unit in wanted.items()),
        f"{label}: every metric printed by name with its unit",
    )


def perturbation_checks() -> None:
    """Each output check must fail on a deliberately wrong output."""
    # batch: block TrustRank off by 1e-6 on one node.
    result = common.RunResult("batch", 1, False)
    nodes = ["a.example", "b.example", "c.example"]
    src = np.asarray([0, 1, 2])
    dst = np.asarray([1, 2, 0])
    good = trustrank(_graph(nodes, src, dst), ["a.example"])
    batch._check_graph(result, dict(good), (nodes, src, dst, ["a.example"]))
    expect(result.correct, "batch: graph check passes on the true ranks")
    bad = dict(good)
    bad["b.example"] += 1e-6
    batch._check_graph(result, bad, (nodes, src, dst, ["a.example"]))
    expect(not result.correct, "batch: graph check fails on a perturbed rank")

    # stream: a document the corpus never held, added to the live df state.
    original = stream._check_equivalences

    def perturbed(verifier):
        verifier.document_frequencies.add("perturbed.example", ("zzzperturbed",))
        return original(verifier)

    stream._check_equivalences = perturbed
    try:
        result = TINY["stream"](3, False)
    finally:
        stream._check_equivalences = original
    expect(not result.correct, "stream: equivalence check fails on perturbed df state")

    # serve: one served probability nudged.
    original_check = serve.check_payloads

    def nudged(result, workdir, inputs, answered):
        answered = list(answered)
        domain, payload = answered[0]
        answered[0] = (domain, {**payload, "legitimacy_probability": payload["legitimacy_probability"] + 1e-9})
        return original_check(result, workdir, inputs, answered)

    serve.check_payloads = nudged
    try:
        result = TINY["serve"](3, True)
    finally:
        serve.check_payloads = original_check
    expect(not result.correct, "serve: payload check fails on a perturbed probability")


def _graph(nodes, src, dst):
    graph = DirectedGraph()
    for node in nodes:
        graph.add_node(node)
    for s, d in zip(src, dst):
        graph.add_edge(nodes[s], nodes[d])
    return graph


def main() -> int:
    end_to_end, per_layer = declared()
    expect(end_to_end == common.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches the code")
    expect(per_layer == probes.PER_LAYER_UNITS, "BENCHMARK.json per_layer matches the code")
    expect(set(FIXED_PER_LAYER) <= set(per_layer), "every fixed per-layer name is declared")
    for name, run in TINY.items():
        untraced = [run(seed, False) for seed in (1, 2)]
        for result in untraced:
            check_output(name, False, result, end_to_end)
        traced = run(1, True)
        check_output(name, True, traced, per_layer)
        # Model-quality figures are deterministic for a seed, traced or not.
        for figure in ("verify_auc", "rank_pairord", "stream_staleness"):
            if figure in traced.named:
                expect(
                    traced.named[figure] == untraced[0].named[figure],
                    f"{name}: {figure} repeats exactly for a seed",
                )
    perturbation_checks()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
