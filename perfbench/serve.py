"""``serve`` workload: an open loop against a server in its own process.

The server (:mod:`perfbench.serve_server`) is built with
``repro.serve.build_server`` over a pre-crawled in-memory index, with
the verdict cache on and a synthetic host for crawl-on-miss.  The
request mix is seeded and stationary: most requests repeat a hot set
warmed before timing, a steady share name domains this run has not
asked for yet (full scoring, then a cache store), a small share name
domains that exist only on the host (crawl-on-miss), and a small share
are ``/v1/verify/batch`` calls over first-time domains.

Requests go out on a fixed-rate schedule from one process with at most
``CONNECTIONS`` connections open; each is timed from when it was due, so a stall is charged to every request it delays, and the
generator's own lateness is reported.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.core import PharmacyVerifier
from repro.data import GeneratorConfig, SyntheticWebGenerator, crawl_snapshot
from repro.data.corpus import PharmacyCorpus
from repro.data.sharding import stable_hash
from repro.io import export_corpus, load_model, save_model
from repro.ml.metrics import auc_roc
from repro.serve import ServiceConfig
from repro.web.crawler import Crawler
from repro.web.host import InMemoryWebHost

from perfbench import probes
from perfbench.common import (
    END_TO_END_UNITS,
    OUTPUT_DIR,
    CAL_CHUNKS,
    SETUP_REPEATS,
    HostSpeed,
    RunResult,
    median,
    quantile,
)
from perfbench.serve_server import API_KEY, SERVER_JOBS, SERVER_QUEUE

ROOT = Path(__file__).resolve().parent.parent

N_LEGITIMATE = 840
N_ILLEGITIMATE = 6160
HOT_DOMAINS = 200
#: Share of sites held out of the index (crawl-on-miss targets).
HOST_ONLY_SHARE = 0.15
#: One site in TRAIN_MODULUS (by salted hash) trains the model.
TRAIN_MODULUS = 8
#: Request mix: each block of calls holds these many of each kind, in a
#: seeded order, so every run and every window gets the same shares.  The
#: shares are assumptions (neither the paper nor the repository has a
#: traffic model); per-kind latency goes into the run record so a result
#: can be reweighted for another mix.
MIX_BLOCK = (("hot", 20), ("fresh", 3), ("crawl", 1), ("batch", 1))
BLOCK_CALLS = sum(count for _, count in MIX_BLOCK)
MIX = tuple((kind, count / BLOCK_CALLS) for kind, count in MIX_BLOCK[1:])
BATCH_SIZE = 3
#: Pool domains one call takes on average, and the margin kept for chance.
FRESH_PER_CALL = dict(MIX)["fresh"] + dict(MIX)["batch"] * BATCH_SIZE
HOST_ONLY_PER_CALL = dict(MIX)["crawl"]
POOL_MARGIN = 1.25
#: Load-generator connections and threads; no more than the box's CPUs.
CONNECTIONS = 2
#: With two or more CPUs the server and the generator are pinned apart.
PINNED = len(os.sched_getaffinity(0)) >= 2
CLIENT_CPU, SERVER_CPU = sorted(os.sched_getaffinity(0))[:2] if PINNED else (None, None)
NOMINAL_RPS = 150.0
#: The nominal phase runs in this many windows, with a host-speed
#: calibration in the generator and in the server between them.
NOMINAL_WINDOWS = 16
#: serve_max_rps: p99 from due must stay within this, with no failures.
LATENCY_LIMIT_MS = 50.0
#: Search resolution: bisect until hi/lo is within this ratio.
SEARCH_RESOLUTION = 1.03
#: Calls per closed-loop burst in the capacity phase (8 mix blocks).
CAPACITY_CHUNK = 200
#: Most calls the search can make, in capacity x step units: four trials
#: of at most 1.1 capacity in the first bracket, then octaves below it.
SEARCH_CALLS_PER_CAPACITY_STEP = 13
#: Lateness counts as growing when the last quarter's median exceeds
#: the first quarter's by more than this.
LATENESS_GROWTH_MS = 20.0


@dataclass(frozen=True)
class Call:
    kind: str
    path: str
    body: bytes
    domains: tuple[str, ...]


@dataclass
class Obs:
    index: int
    due: float
    sent: float
    done: float
    status: int
    payload: Any


class RequestMix:
    """Seeded, stationary request mix drawing first-time domains from pools.

    Every phase asks :meth:`calls_left` before it draws, so a faster
    server or a longer run shortens the phases instead of emptying a
    pool; :meth:`pool_use` goes into the run record.
    """

    def __init__(self, rng: random.Random, hot: list[str], fresh: list[str], host_only: list[str]):
        self._rng = rng
        self._hot = hot
        self._pools = {"fresh": list(fresh), "host_only": list(host_only)}
        self._used = {"fresh": 0, "host_only": 0}
        self._kinds: list[str] = []

    def _take(self, pool: str, n: int = 1) -> tuple[str, ...]:
        start = self._used[pool]
        if start + n > len(self._pools[pool]):
            raise RuntimeError(f"serve workload ran out of {pool} domains")
        self._used[pool] = start + n
        return tuple(self._pools[pool][start : start + n])

    def calls_left(self) -> int:
        """Calls the unused pools can serve, with POOL_MARGIN to spare."""
        fresh = len(self._pools["fresh"]) - self._used["fresh"]
        host = len(self._pools["host_only"]) - self._used["host_only"]
        return int(min(fresh / FRESH_PER_CALL, host / HOST_ONLY_PER_CALL) / POOL_MARGIN)

    def pool_use(self) -> dict[str, dict[str, int]]:
        return {k: {"size": len(v), "used": self._used[k]} for k, v in self._pools.items()}

    def take(self, n: int) -> list[Call]:
        calls = []
        for _ in range(n):
            if not self._kinds:
                self._kinds = [kind for kind, count in MIX_BLOCK for _ in range(count)]
                self._rng.shuffle(self._kinds)
            kind = self._kinds.pop()
            if kind == "batch":
                domains = self._take("fresh", BATCH_SIZE)
                calls.append(Call(kind, "/v1/verify/batch", json.dumps({"domains": domains}).encode(), domains))
                continue
            if kind == "hot":
                domains = (self._rng.choice(self._hot),)
            else:
                domains = self._take("host_only" if kind == "crawl" else "fresh")
            calls.append(Call(kind, "/v1/verify", json.dumps({"domain": domains[0]}).encode(), domains))
        return calls


class Server:
    """One server process and its control pipe."""

    def __init__(self, workdir: Path, cache_dir: Path, trace: bool):
        started = time.perf_counter()
        self.spans_out = workdir / f"spans-{cache_dir.name}.json"
        self._log = open(workdir / f"server-{cache_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "perfbench.serve_server",
                "--workdir", str(workdir), "--cache-dir", str(cache_dir),
                "--trace", str(int(trace)), "--spans-out", str(self.spans_out),
                *(["--cpu", str(SERVER_CPU)] if PINNED else []),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])
        while True:
            try:
                status, _ = _get(self.port, "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def _ask(self, command: str, reply: str) -> Any:
        self.command(command)
        for line in self.proc.stdout:
            if line.startswith(reply + " "):
                return json.loads(line[len(reply) + 1 :])
        raise RuntimeError(f"server exited before answering {command!r}")

    def cpu_seconds(self) -> float:
        """CPU time the server process has used so far (all threads)."""
        return self._ask("cpu", "CPU")

    def calibrate(self, speed: HostSpeed) -> None:
        """CAL_CHUNKS calibration chunks here, then CAL_CHUNKS in the server."""
        speed.sample(CAL_CHUNKS)
        speed.samples += self._ask("cal", "CAL")

    def stop(self) -> dict[str, Any]:
        """Drain and exit; returns the server's closing report."""
        try:
            self.command("stop")
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._log.close()
        for line in out.splitlines():
            if line.startswith("BYE "):
                return json.loads(line[4:])
        raise RuntimeError(f"server exited without a report (code {self.proc.returncode})")


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def drive(port: int, calls: list[Call], rate: float, tag: str) -> list[Obs]:
    """Send ``calls`` at ``rate`` per second; time each from its due time."""
    observations: list[Obs | None] = [None] * len(calls)
    counter = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + (0.0 if rate == float("inf") else 0.02)
    spacing = 0.0 if rate == float("inf") else 1.0 / rate

    def worker() -> None:
        while True:
            with lock:
                i = next(counter)
            if i >= len(calls):
                return
            call = calls[i]
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, payload = -1, None
            # One connection per request, as independent users make them.
            # (Keep-alive responses stall on the server's split header and
            # body writes; see README.md.)
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                conn.request(
                    "POST", call.path, body=call.body,
                    headers={
                        "X-API-Key": API_KEY,
                        "Content-Type": "application/json",
                        "Connection": "close",
                        "X-Bench-Request": f"{tag}-{i}",
                    },
                )
                response = conn.getresponse()
                body = response.read()
                status = response.status
                if status == 200:
                    payload = json.loads(body)
            except (OSError, http.client.HTTPException):
                status = -1
            finally:
                conn.close()
            observations[i] = Obs(i, due, sent, time.perf_counter(), status, payload)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [obs for obs in observations if obs is not None]


def drive_nominal(
    server: Server, calls: list[Call], speed: HostSpeed
) -> tuple[list[list[Obs]], list[float], float]:
    """The nominal phase in NOMINAL_WINDOWS windows, calibrating between them.

    Calibration chunks run in the generator and in the server before
    every window and after the last.  Returns each window's observations
    (indexed into ``calls``) and host-speed factor (from the chunks just
    before and after it), and the server CPU seconds the windows used,
    calibrations excluded.
    """
    windows: list[list[Obs]] = []
    factors: list[float] = []
    cpu_s = 0.0
    bounds = [round(len(calls) * w / NOMINAL_WINDOWS) for w in range(NOMINAL_WINDOWS + 1)]
    server.calibrate(speed)
    for w, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        before = len(speed.samples) - 2 * CAL_CHUNKS
        cpu_before = server.cpu_seconds()
        window = drive(server.port, calls[lo:hi], NOMINAL_RPS, f"nominal{w}")
        cpu_s += server.cpu_seconds() - cpu_before
        server.calibrate(speed)
        windows.append([replace(o, index=o.index + lo) for o in window])
        factors.append(speed.factor(before))
    return windows, factors, cpu_s


def by_kind(calls: list[Call], observations: list[Obs]) -> dict[str, dict[str, float]]:
    """Latency from due per request kind, so results can be reweighted."""
    groups: dict[str, list[float]] = {}
    for o in observations:
        latency = (o.done - o.due) * 1e3 if o.status == 200 else float("inf")
        groups.setdefault(calls[o.index].kind, []).append(latency)
    return {
        kind: {
            "requests": len(values),
            "p50_ms": quantile(values, 0.5),
            "p90_ms": quantile(values, 0.9),
            "p99_ms": quantile(values, 0.99),
        }
        for kind, values in sorted(groups.items())
    }


def summarize(observations: list[Obs], rate: float) -> dict[str, Any]:
    """Latency from due (failures count as infinitely late) and lateness."""
    failures = sum(1 for o in observations if o.status != 200)
    latency = [
        (o.done - o.due) * 1e3 if o.status == 200 else float("inf") for o in observations
    ]
    lateness = [(o.sent - o.due) * 1e3 for o in observations]
    quarter = max(1, len(lateness) // 4)
    growth = median(lateness[-quarter:]) - median(lateness[:quarter])
    return {
        "rate": rate,
        "requests": len(observations),
        "failures": failures,
        "p50_ms": quantile(latency, 0.5),
        "p90_ms": quantile(latency, 0.9),
        "p99_ms": quantile(latency, 0.99),
        "lateness_p50_ms": quantile(lateness, 0.5),
        "lateness_p99_ms": quantile(lateness, 0.99),
        "lateness_growing": growth > LATENESS_GROWTH_MS,
    }


def _sustainable(row: dict[str, Any]) -> bool:
    return row["failures"] == 0 and row["p99_ms"] <= LATENCY_LIMIT_MS and not row["lateness_growing"]


def measure_capacity(
    server: Server, mix: RequestMix, seconds: float, collected: list, speed: HostSpeed
) -> tuple[float, float]:
    """Requests per second with every connection kept busy.

    The median over short closed-loop bursts, each a whole number of mix
    blocks, so a passing slow spell on a shared machine moves it less
    than a single long window.  The server never idles in a burst, so
    its rate follows the host's speed: each burst is also scaled by the
    calibration chunks taken just before and after it.  Returns the
    capacity as measured and at the reference speed.
    """
    started = time.perf_counter()
    budget = mix.calls_left() // 3  # the rest is the search's
    rates, rates_ref = [], []
    server.calibrate(speed)
    while len(rates) < 3 or (
        time.perf_counter() - started < seconds and (len(rates) + 1) * CAPACITY_CHUNK <= budget
    ):
        before = len(speed.samples) - 2 * CAL_CHUNKS
        calls = mix.take(CAPACITY_CHUNK)
        burst = drive(server.port, calls, float("inf"), f"capacity{len(collected)}")
        server.calibrate(speed)
        collected.append((calls, burst))
        rates.append(len(burst) / (max(o.done for o in burst) - min(o.sent for o in burst)))
        rates_ref.append(rates[-1] / speed.factor(before))
    return median(rates), median(rates_ref)


def search_max_rps(
    port: int, mix: RequestMix, capacity: float, step_s: float, log: list, collected: list
) -> float:
    """Highest offered rate meeting the latency limit, to SEARCH_RESOLUTION.

    Bisects (geometrically) between 0.7 and 1.1 times the capacity.
    """

    def trial(rate: float) -> bool:
        calls = mix.take(max(20, round(rate * step_s)))
        observations = drive(port, calls, rate, f"search{len(log)}")
        collected.append((calls, observations))
        row = summarize(observations, rate)
        log.append(row)
        time.sleep(0.1)
        return _sustainable(row)

    def bisect(lo: float, hi: float) -> tuple[float, bool]:
        passed = False
        while hi / lo > SEARCH_RESOLUTION:
            mid = (lo * hi) ** 0.5
            if trial(mid):
                lo, passed = mid, True
            else:
                hi = mid
        return lo, passed

    lo, passed = bisect(0.7 * capacity, 1.1 * capacity)
    while not passed and not trial(lo):
        # Even the bracket's floor misses the limit: search the octave below.
        lo, passed = bisect(lo / 2, lo)
    return lo


def build_inputs(workdir: Path, seed: int, scale: float) -> dict[str, Any]:
    """Generate the web, fit and save the model, write index and host files."""
    config = GeneratorConfig(
        n_legitimate=max(4, round(N_LEGITIMATE * scale)),
        n_illegitimate=max(20, round(N_ILLEGITIMATE * scale)),
        n_affiliate_hubs=max(3, round(35 * scale)),
        min_pages=3,
        max_pages=6,
        min_terms_per_page=60,
        max_terms_per_page=120,
        seed=seed,
    )
    corpus = crawl_snapshot(SyntheticWebGenerator(config).generate_snapshot())
    pairs = sorted(
        zip(corpus.sites, corpus.records),
        key=lambda pair: stable_hash(f"{seed}:{pair[0].domain}"),
    )
    train = [p for p in pairs if stable_hash(f"{seed}:train:{p[0].domain}") % TRAIN_MODULUS == 0]
    rest = [p for p in pairs if stable_hash(f"{seed}:train:{p[0].domain}") % TRAIN_MODULUS != 0]
    n_host = round(len(rest) * HOST_ONLY_SHARE)
    host_only, served = rest[:n_host], rest[n_host:]
    hot_count = min(HOT_DOMAINS, len(served) // 4)
    hot, fresh = served[:hot_count], served[hot_count:]

    verifier = PharmacyVerifier().fit(
        PharmacyCorpus("train", tuple(s for s, _ in train), tuple(r for _, r in train))
    )
    save_model(verifier, workdir / "model.pkl")
    indexed = train + hot + fresh
    export_corpus(
        PharmacyCorpus("index", tuple(s for s, _ in indexed), tuple(r for _, r in indexed)),
        workdir / "index.jsonl",
    )
    export_corpus(
        PharmacyCorpus("host", tuple(s for s, _ in host_only), tuple(r for _, r in host_only)),
        workdir / "host.jsonl",
    )
    return {
        "sites": {s.domain: s for s, _ in indexed},
        "host_sites": [s for s, _ in host_only],
        "labels": {s.domain: r.label for s, r in pairs},
        "hot": [s.domain for s, _ in hot],
        "fresh": [s.domain for s, _ in fresh],
        "host_only": [s.domain for s, _ in host_only],
        "n_train": len(train),
    }


def _warm(port: int, hot: list[str]) -> None:
    calls = [Call("hot", "/v1/verify", json.dumps({"domain": d}).encode(), (d,)) for d in hot]
    for obs in drive(port, calls, rate=float("inf"), tag="warm"):
        if obs.status != 200:
            raise RuntimeError(f"warm-up request failed with {obs.status}")


def _payloads(calls: list[Call], observations: list[Obs]):
    """(domain, payload) for every verdict inside a 200 response."""
    for obs in observations:
        if obs.status != 200:
            continue
        call = calls[obs.index]
        results = obs.payload["results"] if call.kind == "batch" else [obs.payload]
        for domain, payload in zip(call.domains, results):
            yield domain, payload


def check_payloads(result: RunResult, workdir: Path, inputs: dict[str, Any], answered) -> None:
    """Every served verdict equals an in-process verify with the saved model."""
    verifier = load_model(workdir / "model.pkl")
    seen: dict[str, set[tuple]] = {}
    for domain, payload in answered:
        seen.setdefault(domain, set()).add(
            (payload["domain"], payload["verdict"], payload["legitimacy_probability"], payload["rank_score"])
        )
    config = ServiceConfig()
    host = InMemoryWebHost(page for site in inputs["host_sites"] for page in site.pages)
    domains = sorted(seen)
    sites, stats = [], []
    for domain in domains:
        site = inputs["sites"].get(domain)
        if site is None:
            crawler = Crawler(host, max_pages=config.crawl_max_pages, fetch_budget=config.crawl_fetch_budget)
            site = crawler.crawl_site(f"https://www.{domain}/")
            stats.append(crawler.last_stats)
        else:
            stats.append(None)
        sites.append(site)
    reports = verifier.verify_sites(sites, crawl_stats=stats)
    mismatched = []
    for domain, report in zip(domains, reports):
        expected = (
            domain,
            "legitimate" if report.is_legitimate else "illegitimate",
            report.legitimacy_probability,
            report.rank_score,
        )
        if seen[domain] != {expected}:
            mismatched.append(domain)
    result.check(not mismatched, f"{len(mismatched)} served verdicts differ from verify_sites, e.g. {mismatched[:3]}")
    result.details["verdicts_checked"] = len(domains)


def _served_auc(inputs: dict[str, Any], answered) -> float:
    probability = {domain: payload["legitimacy_probability"] for domain, payload in answered}
    domains = sorted(probability)
    return auc_roc([inputs["labels"][d] for d in domains], [probability[d] for d in domains])


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> RunResult:
    result = RunResult("serve", seed, trace)
    if PINNED:
        # The generator and the server each get a CPU of their own.
        os.sched_setaffinity(0, {CLIENT_CPU})
    OUTPUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=OUTPUT_DIR)).resolve()
    servers: list[Server] = []
    try:
        inputs = build_inputs(workdir, seed, scale)
        mix = RequestMix(random.Random(seed), inputs["hot"], inputs["fresh"], inputs["host_only"])
        # The nominal phase may take at most half of the pools.
        # A whole number of mix blocks, so every run gets the same shares.
        nominal_n = BLOCK_CALLS * min(
            max(2, round(NOMINAL_RPS * seconds / BLOCK_CALLS)), mix.calls_left() // 2 // BLOCK_CALLS
        )
        capacity_s = max(0.5, seconds / 2)
        step_s = max(0.5, 0.05 * seconds)
        result.shape = {
            "sites_indexed": len(inputs["sites"]),
            "sites_host_only": len(inputs["host_only"]),
            "training_sites": inputs["n_train"],
            "hot_domains": len(inputs["hot"]),
            "mix": {**dict(MIX), "hot": 1 - sum(s for _, s in MIX), "batch_size": BATCH_SIZE},
            "mix_block": dict(MIX_BLOCK),
            "mix_basis": "assumed shares; per-kind latency in details.nominal_by_kind",
            "nominal_rps": NOMINAL_RPS,
            "nominal_requests": nominal_n,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "capacity_phase_s": capacity_s,
            "search_step_s": step_s,
            "search_resolution": SEARCH_RESOLUTION,
            "client_connections": CONNECTIONS,
            "server_jobs": SERVER_JOBS,
            "server_queue": SERVER_QUEUE,
            "cpus": f"generator {CLIENT_CPU}, server {SERVER_CPU}" if PINNED else "shared",
            "arrivals": "fixed-rate schedule, open loop",
            "connections": "one per request (Connection: close)",
        }
        if trace:
            _run_traced(result, workdir, inputs, mix, nominal_n, seed)
        else:
            _run_untraced(result, workdir, inputs, mix, nominal_n, capacity_s, step_s, servers)
        result.shape["pool_use"] = mix.pool_use()
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _run_untraced(result, workdir, inputs, mix, nominal_n, capacity_s, step_s, servers) -> None:
    # Raw seconds, and seconds at the reference host speed: each unit of
    # work is scaled by calibration chunks taken just before and after it.
    setup_speed, nominal_speed = HostSpeed(), HostSpeed()
    setup_times, setup_ref_s = [], []
    setup_speed.sample(CAL_CHUNKS)
    for k in range(SETUP_REPEATS):
        before = len(setup_speed.samples) - CAL_CHUNKS
        server = Server(workdir, workdir / f"cache-{k}", trace=False)
        servers.append(server)
        setup_speed.sample(CAL_CHUNKS)
        setup_times.append(server.setup_s)
        setup_ref_s.append(server.setup_s * setup_speed.factor(before))
        if k < SETUP_REPEATS - 1:
            server.stop()
    _warm(server.port, inputs["hot"])
    calls = mix.take(nominal_n)
    windows, factors, cpu_s = drive_nominal(server, calls, nominal_speed)
    nominal = [o for window in windows for o in window]
    nominal_row = summarize(nominal, NOMINAL_RPS)
    # The tail at the reference host speed, but not the median (nor the
    # CPU rate): that is a cache hit, whose time is connection set-up,
    # thread start and wake-ups in the kernel, and it does not follow
    # the calibration (README.md, "Host speed").
    latency_ref = [
        [(o.done - o.due) * 1e3 * f if o.status == 200 else float("inf") for o in window]
        for window, f in zip(windows, factors)
    ]
    everyone_ref = [latency for window in latency_ref for latency in window]
    # The tail is the median of the windows' p90s, so one window where
    # the host stalled moves it less than it moves a p90 over the run.
    tail_ms = median([quantile(window, 0.9) for window in latency_ref])
    cpu_rps = len(nominal) / cpu_s
    searches: list = []
    collected: list = []
    capacity_speed = HostSpeed()
    capacity, capacity_ref = measure_capacity(server, mix, capacity_s, collected, capacity_speed)
    # A faster server gets shorter search steps rather than empty pools.
    step_s = min(step_s, mix.calls_left() / (SEARCH_CALLS_PER_CAPACITY_STEP * capacity))
    result.shape["search_step_s"] = step_s
    result.shape["capacity_bursts"] = len(collected)
    max_rps = search_max_rps(server.port, mix, capacity, step_s, searches, collected)
    closing = server.stop()

    answered = list(_payloads(calls, nominal))
    everything = answered + [p for c, o in collected for p in _payloads(c, o)]
    check_payloads(result, workdir, inputs, everything)
    sent = [o for _, observations in [(calls, nominal)] + collected for o in observations]
    result.attempted = len(sent)
    result.failed = sum(1 for o in sent if o.status != 200)
    result.named["serve_p50_ms"] = (nominal_row["p50_ms"], "ms")
    result.named["serve_p90_ms"] = (quantile(everyone_ref, 0.9), "ms")
    result.named["serve_p99_ms"] = (quantile(everyone_ref, 0.99), "ms")
    result.named["serve_max_rps"] = (max_rps, "req/s")
    result.named["serve_capacity_rps"] = (capacity_ref, "req/s")
    result.named["raw_serve_capacity_rps"] = (capacity, "req/s")
    result.named["serve_cpu_rps"] = (cpu_rps, "req/s")
    result.named["nominal_lateness_p50_ms"] = (nominal_row["lateness_p50_ms"], "ms")
    result.named["nominal_lateness_p99_ms"] = (nominal_row["lateness_p99_ms"], "ms")
    result.named["host_speed_factor"] = (nominal_speed.factor(), "1")
    result.named["raw_serve_p90_ms"] = (nominal_row["p90_ms"], "ms")
    result.named["raw_tail_ms"] = (
        median([quantile([(o.done - o.due) * 1e3 for o in w], 0.9) for w in windows]), "ms"
    )
    result.metrics = {
        "setup_s": median(setup_ref_s),
        "peak_rss_mb": closing["peak_rss_mb"],
        "p50_ms": nominal_row["p50_ms"],
        "tail_ms": tail_ms,
        "throughput_per_s": capacity_ref,
        "quality": _served_auc(inputs, answered),
    }
    result.units = dict(END_TO_END_UNITS)
    result.details["calibration_s_all"] = (
        setup_speed.samples + nominal_speed.samples + capacity_speed.samples
    )
    result.details["setup_s_all"] = setup_times
    result.details["rates"] = [nominal_row] + searches
    result.details["nominal_by_kind"] = kinds = by_kind(calls, nominal)
    for kind, row in kinds.items():
        print(
            f"   nominal {kind:<6} n={row['requests']:5d}  p50 {row['p50_ms']:7.2f} ms"
            f"  p90 {row['p90_ms']:7.2f} ms  p99 {row['p99_ms']:8.2f} ms"
        )
    for row in [nominal_row] + searches:
        flag = " GROWING-LATENESS" if row["lateness_growing"] else ""
        print(
            f"   rate {row['rate']:8.1f}/s  n={row['requests']:5d}  p50 {row['p50_ms']:7.2f} ms"
            f"  p99 {row['p99_ms']:8.2f} ms  late p50 {row['lateness_p50_ms']:6.2f}"
            f" p99 {row['lateness_p99_ms']:7.2f} ms  fail {row['failures']}{flag}"
        )


def _run_traced(result, workdir, inputs, mix, nominal_n, seed) -> None:
    """Same schedule against an untraced then a traced server."""
    calls = mix.take(nominal_n)
    runs = {}
    for traced in (False, True):
        server = Server(workdir, workdir / f"cache-traced{int(traced)}", trace=traced)
        try:
            _warm(server.port, inputs["hot"])
            if traced:
                server.command("trace on")
            runs[traced] = drive(server.port, calls, NOMINAL_RPS, "nominal")
            if traced:
                server.command("trace off")
        finally:
            closing = server.stop()
        result.details[f"peak_rss_mb_traced{int(traced)}"] = closing["peak_rss_mb"]
    spans_blob = json.loads(server.spans_out.read_text(encoding="utf-8"))
    spans = [probes.Span(*row) for row in spans_blob["spans"]]
    counters = spans_blob["counters"]
    metrics = probes.layer_metrics(spans, Counter(counters))
    traced_obs = runs[True]
    roots = {s.trace_id: s for s in spans if s.name == "serve.http" and s.parent == 0}
    wall = sum(o.done - o.sent for o in traced_obs)
    covered = 0.0
    for obs in traced_obs:
        span = roots.get(f"nominal-{obs.index}")
        if span is not None:
            covered += probes.covered_seconds([span], obs.sent, obs.done)
    metrics["trace.unattributed_share"] = 1.0 - covered / wall
    # Paired by request: the same call against the untraced and traced server.
    untraced = {o.index: o.done - o.sent for o in runs[False]}
    metrics["trace.overhead"] = median(
        [(o.done - o.sent) / untraced[o.index] for o in traced_obs if o.index in untraced]
    ) - 1.0
    result.metrics = metrics
    result.units = dict(probes.PER_LAYER_UNITS)
    result.attempted = len(traced_obs)
    result.failed = sum(1 for o in traced_obs if o.status != 200)
    check_payloads(result, workdir, inputs, list(_payloads(calls, traced_obs)))

    client = [
        probes.Span(o.index + 1, 0, f"client.{calls[o.index].kind}", o.sent, o.done, 0, f"nominal-{o.index}")
        for o in traced_obs
    ]
    events = probes.chrome_trace(spans, pid=2) + probes.chrome_trace(client, pid=1)
    trace_path = OUTPUT_DIR / f"trace-serve-seed{seed}.json"
    probes.write_chrome_trace(str(trace_path), events)
    result.details["chrome_trace"] = str(trace_path)
