"""``stream`` workload: a seeded delta plan replayed tick by tick.

The corpus is about ten times the 100 sites of ``BENCH_stream.json``
and the churn per tick is a fixed number of sites, not a share of the
corpus, so the parts of a tick that grow with the corpus show.  The
final state is pinned with the equivalence checks of
``benchmarks/stream/harness.py`` after one cold ``full_recompute``.
"""

from __future__ import annotations

import time

from benchmarks.stream.harness import _check_equivalences
from repro.data.deltas import StreamConfig, StreamCorpus, plan_deltas
from repro.data.synthesis import GeneratorConfig
from repro.stream.pipeline import StreamingVerifier

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

N_LEGITIMATE = 250
N_ILLEGITIMATE = 750
#: Expected site changes per weekly tick, in sites (not shares).
BIRTHS, DEATHS, DRIFTS, REWIRES = 5, 5, 3, 2
TICKS_PER_SECOND = 15
MIN_TICKS = 100
#: Host-speed calibration chunks taken before every tick (and after the
#: last); a tick is scaled by the chunks of the CAL_REACH ticks on each
#: side of it, about a second of the run.
CAL_CHUNKS_PER_TICK = 2
CAL_REACH = 4
#: Worker processes for the verifier's cold paths (recorded).
JOBS = 1


def generator_config(seed: int, scale: float = 1.0) -> GeneratorConfig:
    n_legit = max(2, round(N_LEGITIMATE * scale))
    n_illegit = max(6, round(N_ILLEGITIMATE * scale))
    return GeneratorConfig(
        n_legitimate=n_legit,
        n_illegitimate=n_illegit,
        n_affiliate_hubs=max(2, n_illegit // 15),
        min_pages=3,
        max_pages=6,
        min_terms_per_page=60,
        max_terms_per_page=120,
        seed=seed,
    )


def stream_config(config: GeneratorConfig, n_ticks: int) -> StreamConfig:
    """Per-site rates that give the fixed absolute churn on this corpus."""
    n_sites = config.n_legitimate + config.n_illegitimate
    return StreamConfig(
        n_ticks=n_ticks,
        birth_fraction=BIRTHS / config.n_illegitimate,
        death_fraction=DEATHS / config.n_illegitimate,
        drift_fraction=DRIFTS / n_sites,
        rewire_fraction=REWIRES / config.n_illegitimate,
    )


def setup(config: GeneratorConfig) -> tuple[StreamingVerifier, float]:
    """Build the epoch-0 corpus and bootstrap; returns (verifier, seconds)."""
    started = time.perf_counter()
    verifier = StreamingVerifier(StreamCorpus.generate(config), jobs=JOBS)
    verifier.bootstrap()
    return verifier, time.perf_counter() - started


def replay(
    result: RunResult, verifier: StreamingVerifier, deltas, tracer, speed: HostSpeed | None = None
) -> list[tuple[float, float]]:
    """Apply every delta; returns each tick's (start, end) clock reading.

    With ``speed``, calibrates the host before every tick and after the last.
    """
    ticks = []
    for delta in deltas:
        if speed is not None:
            speed.sample(CAL_CHUNKS_PER_TICK)
        tracer.trace_id = f"tick-{delta.epoch}"
        result.attempted += 1
        start = time.perf_counter()
        try:
            verifier.apply_tick(delta)
        except Exception as exc:  # noqa: BLE001 - counted, then the run stops
            result.failed += 1
            result.check(False, f"tick {delta.epoch} raised {exc!r}")
            break
        ticks.append((start, time.perf_counter()))
    if speed is not None:
        speed.sample(CAL_CHUNKS_PER_TICK)
    return ticks


def tick_factors(speed: HostSpeed, n_ticks: int) -> list[float]:
    """Each tick's host-speed factor, from the chunks around it."""
    c = CAL_CHUNKS_PER_TICK
    return [
        speed.factor(c * max(0, k - CAL_REACH), c * (min(n_ticks, k + CAL_REACH + 1) + 1))
        for k in range(n_ticks)
    ]


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> RunResult:
    result = RunResult("stream", seed, trace)
    config = generator_config(seed, scale)
    n_ticks = max(MIN_TICKS if scale >= 1.0 else 1, round(TICKS_PER_SECOND * seconds))
    deltas = plan_deltas(config, stream_config(config, n_ticks))
    changes = [d.n_changes for d in deltas]
    result.shape = {
        "sites": config.n_legitimate + config.n_illegitimate,
        "legitimate": config.n_legitimate,
        "ticks": n_ticks,
        "churn_per_tick": f"births {BIRTHS}, deaths {DEATHS}, drifts {DRIFTS}, rewires {REWIRES} (expected)",
        "mean_changes_per_tick": sum(changes) / len(changes),
        "jobs": JOBS,
    }
    tracer = probes.Tracer()
    if trace:
        # The same set-up and replay with the program untouched (for the
        # overhead), then traced.
        untraced, _ = setup(config)
        baseline_speed, traced_speed = HostSpeed(), HostSpeed()
        baseline = replay(RunResult("stream", seed, False), untraced, deltas, tracer, baseline_speed)
        del untraced
        with probes.tracing(tracer):
            tracer.trace_id = "setup"
            verifier, _ = setup(config)
            ticks = replay(result, verifier, deltas, tracer, traced_speed)
        spans = tracer.spans
    else:
        # Raw seconds, and seconds at the reference host speed: each unit
        # of work is scaled by calibration chunks taken around it.
        setup_speed, tick_speed = HostSpeed(), HostSpeed()
        setup_times, setup_ref_s = [], []
        verifier = None
        setup_speed.sample(CAL_CHUNKS)
        for _ in range(SETUP_REPEATS):
            del verifier  # peak RSS is one verifier's, not two
            before = len(setup_speed.samples) - CAL_CHUNKS
            verifier, setup_s = setup(config)
            setup_speed.sample(CAL_CHUNKS)
            setup_times.append(setup_s)
            setup_ref_s.append(setup_s * setup_speed.factor(before))
        ticks = replay(result, verifier, deltas, tracer, tick_speed)

    staleness = 1.0
    if result.correct:
        try:
            equivalence = _check_equivalences(verifier)
        except AssertionError as exc:
            result.check(False, f"stream state diverged from full recompute: {exc}")
        else:
            result.details["equivalence"] = equivalence
            staleness = equivalence["staleness_before_retrain"]
    result.named["stream_staleness"] = (staleness, "share")

    tick_s = [end - start for start, end in ticks]
    if trace:
        metrics = probes.layer_metrics(spans, tracer.counters)
        roots = [s for s in spans if s.parent == 0]
        covered = sum(probes.covered_seconds(roots, a, b) for a, b in ticks)
        metrics["trace.unattributed_share"] = 1.0 - covered / sum(tick_s)
        # Both replays at the reference speed, so host drift between them
        # does not read as overhead.
        baseline_s = [b - a for a, b in baseline]
        traced_ref = zip(tick_s, tick_factors(traced_speed, len(tick_s)))
        baseline_ref = zip(baseline_s, tick_factors(baseline_speed, len(baseline_s)))
        metrics["trace.overhead"] = (
            sum(t * f for t, f in traced_ref) / sum(t * f for t, f in baseline_ref) - 1.0
        )
        metrics["stream.staleness"] = staleness
        result.metrics = metrics
        result.units = dict(probes.PER_LAYER_UNITS)
        trace_path = OUTPUT_DIR / f"trace-stream-seed{seed}.json"
        probes.write_chrome_trace(str(trace_path), probes.chrome_trace(spans))
        result.details["chrome_trace"] = str(trace_path)
    else:
        # Times and rates at the reference host speed (common.HostSpeed).
        tick_ref_s = [t * f for t, f in zip(tick_s, tick_factors(tick_speed, len(tick_s)))]
        p50 = median(tick_ref_s) * 1e3
        p90 = quantile(tick_ref_s, 0.9) * 1e3
        result.named["tick_p50_ms"] = (p50, "ms")
        result.named["tick_p90_ms"] = (p90, "ms")
        result.named["host_speed_factor"] = (tick_speed.factor(), "1")
        result.named["raw_tick_p50_ms"] = (median(tick_s) * 1e3, "ms")
        result.metrics = {
            "setup_s": median(setup_ref_s),
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": p50,
            "tail_ms": p90,
            "throughput_per_s": median([c / t for c, t in zip(changes, tick_ref_s)]),
            "quality": 1.0 - staleness,
        }
        result.units = dict(END_TO_END_UNITS)
        result.details["calibration_s_all"] = setup_speed.samples + tick_speed.samples
        result.details["setup_s_all"] = setup_times
        result.details["tick_s_all"] = tick_s
    return result

