"""``batch`` workload: the offline job over a sharded corpus on disk.

Set-up writes the shards and fits the verifier on a training part
chosen by domain hash.  Each timed pass then runs the job's two
phases: *verify* (``rank_sites`` over the lazy sites view, as
``repro rank`` runs it) and *graph* (edges streamed from the shards,
compiled into blocks and block-TrustRanked, as the 10^6 path of
``benchmarks/perf/scale_harness.py`` does).
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from benchmarks.perf.scale_harness import scaled_config
from repro.core import PharmacyVerifier
from repro.core.ranking import rank_pharmacies
from repro.data import sharding
from repro.data.corpus import PharmacyCorpus
from repro.ml.metrics import auc_roc
from repro.network import blockrank
from repro.network.graph import DirectedGraph
from repro.network.trustrank import trustrank
from repro.perf.store import MatrixStore

from perfbench import probes
from perfbench.common import (
    END_TO_END_UNITS,
    OUTPUT_DIR,
    CAL_CHUNKS,
    SETUP_REPEATS,
    HostSpeed,
    RunResult,
    median,
    peak_rss_mb,
    quantile,
)

N_SITES = 3000
N_SHARDS = 4
#: Worker processes for shard writing and block ranking (recorded).
JOBS = 1
#: One domain in TRAIN_MODULUS (by salted hash) is labelled training data.
TRAIN_MODULUS = 4
MIN_PASSES = 3
#: Passes repeat for this many times ``--seconds``: a pass is CPU-bound
#: and long, so it needs the longest window to average out a shared
#: machine's slow spells (they last seconds to a minute).
SECONDS_FACTOR = 2.0


def _is_training(seed: int, domain: str) -> bool:
    return sharding.stable_hash(f"{seed}:{domain}") % TRAIN_MODULUS == 0


def setup(root: Path, seed: int, n_sites: int) -> tuple[PharmacyVerifier, float]:
    """Write the shards and fit the verifier; returns (verifier, seconds)."""
    config = replace(scaled_config(n_sites), seed=seed)
    started = time.perf_counter()
    sharding.write_shards(config, root, N_SHARDS, jobs=JOBS)
    corpus = sharding.ShardedCorpus(root)
    sites, records = [], []
    for _, shard_sites, shard_records in corpus.iter_shards():
        for site, record in zip(shard_sites, shard_records):
            if _is_training(seed, site.domain):
                sites.append(site)
                records.append(record)
    verifier = PharmacyVerifier().fit(PharmacyCorpus("train", tuple(sites), tuple(records)))
    return verifier, time.perf_counter() - started


def verify_phase(root: Path, verifier: PharmacyVerifier):
    """Phase 1, as ``repro rank`` runs it over a sharded directory."""
    corpus = sharding.ShardedCorpus(root)
    labels = [record.label for _, _, records in corpus.iter_shards() for record in records]
    return verifier.rank_sites(corpus.sites_view(), labels)


def stream_edges(root: Path):
    """The link graph as flat edge arrays, streamed one shard at a time."""
    corpus = sharding.ShardedCorpus(root, max_open_shards=1)
    domains = corpus.domains()
    index = {d: i for i, d in enumerate(domains)}
    nodes = list(domains)
    src: list[int] = []
    dst: list[int] = []
    for _, sites, _ in corpus.iter_shards():
        for site in sites:
            i = index[site.domain]
            for endpoint in site.outbound_endpoints():
                j = index.get(endpoint)
                if j is None:
                    j = index[endpoint] = len(nodes)
                    nodes.append(endpoint)
                src.append(i)
                dst.append(j)
    return corpus, nodes, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def graph_phase(root: Path, store_root: Path):
    """Phase 2: edges -> spilled CSR blocks -> block TrustRank."""
    corpus, nodes, src, dst = stream_edges(root)
    plan = blockrank.compile_transition_store_from_edges(
        MatrixStore(store_root), nodes, src, dst,
        np.ones(len(src), dtype=np.float64), n_blocks=N_SHARDS,
    )
    trusted, _, _ = sharding.plan_domains(corpus.config)
    return blockrank.block_trustrank(plan, trusted, jobs=JOBS), (nodes, src, dst, trusted)


def _check_graph(result: RunResult, scores: dict[str, float], edges) -> None:
    """Block TrustRank must match the in-memory TrustRank on the same edges."""
    nodes, src, dst, trusted = edges
    graph = DirectedGraph()
    for node in nodes:
        graph.add_node(node)
    for s, d in zip(src.tolist(), dst.tolist()):
        graph.add_edge(nodes[s], nodes[d])
    reference = trustrank(graph, trusted)
    worst = max(abs(scores[n] - reference[n]) for n in reference)
    result.check(set(scores) == set(reference), "block TrustRank node set differs")
    result.check(worst <= 1e-9, f"block TrustRank differs from trustrank by {worst:.3e}")
    result.details["graph_max_abs_err"] = worst


def _check_and_score(result: RunResult, root: Path, seed: int, verifier, ranking) -> None:
    """Held-out AUC and orderedness; the timed ranking must agree with them."""
    corpus = sharding.ShardedCorpus(root)
    held_sites, held_labels = [], []
    for _, sites, records in corpus.iter_shards():
        for site, record in zip(sites, records):
            if not _is_training(seed, site.domain):
                held_sites.append(site)
                held_labels.append(record.label)
    reports = verifier.verify_sites(held_sites)
    result.check(len(reports) == len(held_sites), "held-out sites without a report")
    auc = auc_roc(held_labels, [r.legitimacy_probability for r in reports])
    held = rank_pharmacies(
        domains=[r.domain for r in reports],
        text_ranks=[r.text_rank for r in reports],
        network_ranks=[r.network_rank for r in reports],
        oracle_labels=held_labels,
    )
    timed_scores = {e.domain: e.rank_score for e in ranking.entries}
    mismatched = sum(1 for r in reports if timed_scores.get(r.domain) != r.rank_score)
    result.check(mismatched == 0, f"{mismatched} timed rank scores differ from verify_sites")
    result.named["verify_auc"] = (auc, "1")
    result.named["rank_pairord"] = (held.pairord, "1")
    result.details["held_out_sites"] = len(held_sites)


def run(seed: int, seconds: float, trace: bool, n_sites: int = N_SITES) -> RunResult:
    result = RunResult("batch", seed, trace)
    result.shape = {
        "sites": n_sites,
        "shards": N_SHARDS,
        "profile": "scale path (large preset rescaled)",
        "training_share": f"1/{TRAIN_MODULUS} by domain hash",
        "jobs": JOBS,
        "min_passes": MIN_PASSES,
        "measured_s": SECONDS_FACTOR * seconds,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="batch-", dir=OUTPUT_DIR))
    tracer = probes.Tracer()

    def traced_if(on: bool):
        # Probes are installed only around traced work, so untraced
        # passes run the program untouched.
        return probes.tracing(tracer) if on else contextlib.nullcontext()

    speed = HostSpeed()
    try:
        # Raw seconds, and seconds at the reference host speed: each unit
        # of work is scaled by the calibration chunks just before and after.
        setup_times, setup_ref_s = [], []
        repeats = 1 if trace else SETUP_REPEATS
        tracer.trace_id = "setup"
        speed.sample(CAL_CHUNKS)
        for k in range(repeats):
            before = len(speed.samples) - CAL_CHUNKS
            with traced_if(trace):
                verifier, seconds_taken = setup(work / f"corpus-{k}", seed, n_sites)
            speed.sample(CAL_CHUNKS)
            setup_times.append(seconds_taken)
            setup_ref_s.append(seconds_taken * speed.factor(before))
        root = work / f"corpus-{repeats - 1}"

        verify_s: list[float] = []
        graph_s: list[float] = []
        # Traced phases as (start, end); calibrations fall between them.
        traced_phases: list[tuple[float, float]] = []
        traced_pass_s: list[float] = []  # at the reference speed
        untraced_pass_s: list[float] = []
        pass_ref_s: list[float] = []
        ranking = scores = edges = None
        started = time.perf_counter()
        k = 0
        # Untraced runs: passes until the time is up.  Traced runs: a
        # fixed U,T,U,T sequence, so counts repeat and overhead is paired.
        while (
            (not trace and (k < MIN_PASSES or time.perf_counter() - started < SECONDS_FACTOR * seconds))
            or (trace and k < 4)
        ):
            traced = trace and k % 2 == 1
            tracer.trace_id = f"pass-{k}"
            before = len(speed.samples) - CAL_CHUNKS
            with traced_if(traced):
                t0 = time.perf_counter()
                ranking = verify_phase(root, verifier)
                t1 = time.perf_counter()
            speed.sample(CAL_CHUNKS)
            with traced_if(traced):
                t1b = time.perf_counter()
                scores, edges = graph_phase(root, work / f"store-{k}")
                t2 = time.perf_counter()
            speed.sample(CAL_CHUNKS)
            factor = speed.factor(before)
            shutil.rmtree(work / f"store-{k}", ignore_errors=True)
            result.attempted += n_sites
            result.failed += n_sites - len(ranking.entries)
            if traced:
                traced_phases += [(t0, t1), (t1b, t2)]
                traced_pass_s.append(((t1 - t0) + (t2 - t1b)) * factor)
            else:
                verify_s.append((t1 - t0) * factor)
                graph_s.append((t2 - t1b) * factor)
                untraced_pass_s.append((t1 - t0) + (t2 - t1b))
                pass_ref_s.append(untraced_pass_s[-1] * factor)
            k += 1

        _check_graph(result, scores, edges)
        _check_and_score(result, root, seed, verifier, ranking)
        result.shape["passes"] = len(verify_s) + len(traced_pass_s)

        if trace:
            metrics = probes.layer_metrics(tracer.spans, tracer.counters)
            wall = sum(b - a for a, b in traced_phases)
            roots = [s for s in tracer.spans if s.parent == 0]
            covered = sum(probes.covered_seconds(roots, a, b) for a, b in traced_phases)
            metrics["trace.unattributed_share"] = 1.0 - covered / wall
            metrics["trace.overhead"] = median(traced_pass_s) / median(pass_ref_s) - 1.0
            result.details["traced_pass_ref_s"] = traced_pass_s
            result.details["untraced_pass_ref_s"] = pass_ref_s
            metrics["core.ranking.pairord"] = result.named["rank_pairord"][0]
            result.metrics = metrics
            result.units = dict(probes.PER_LAYER_UNITS)
            trace_path = OUTPUT_DIR / f"trace-batch-seed{seed}.json"
            probes.write_chrome_trace(str(trace_path), probes.chrome_trace(tracer.spans))
            result.details["chrome_trace"] = str(trace_path)
        else:
            # Times and rates at the reference host speed (common.HostSpeed).
            verify_rate = n_sites / median(verify_s)
            graph_rate = n_sites / median(graph_s)
            result.named["verify_sites_per_s"] = (verify_rate, "sites/s")
            result.named["graph_sites_per_s"] = (graph_rate, "sites/s")
            result.named["host_speed_factor"] = (speed.factor(), "1")
            result.named["raw_pass_p50_ms"] = (median(untraced_pass_s) * 1e3, "ms")
            result.metrics = {
                "setup_s": median(setup_ref_s),
                "peak_rss_mb": peak_rss_mb(),
                "p50_ms": median(pass_ref_s) * 1e3,
                "tail_ms": quantile(pass_ref_s, 0.9) * 1e3,
                "throughput_per_s": verify_rate,
                "quality": result.named["verify_auc"][0],
            }
            result.units = dict(END_TO_END_UNITS)
            result.details["calibration_s_all"] = speed.samples
            result.details["setup_s_all"] = setup_times
            result.details["verify_s_all"] = verify_s
            result.details["graph_s_all"] = graph_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result
