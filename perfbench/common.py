"""Shared pieces of the benchmark: metric table, statistics, output."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

#: End-to-end metrics, reported by every workload from untraced runs.
#: Each workload maps them onto its own unit of work (README.md).
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "quality": "1",
}

#: Where run records and trace files go, relative to the checkout root.
OUTPUT_DIR = Path(".perfbench")

#: Calibration chunks taken at each pause between larger units of work.
CAL_CHUNKS = 16

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
#: A single set-up is short, and on a shared machine its time jitters.
SETUP_REPEATS = 3

#: Seconds one :func:`calibrate` chunk takes at the reference speed.
#: Time metrics are reported at that speed: each unit of work's raw
#: seconds x CAL_REF_S / the mean of the chunks taken around it
#: (README.md, "Host speed").
CAL_REF_S = 0.0022
_CAL_KEYS = [str(i) for i in range(977)]
_CAL_TEXT = " ".join(_CAL_KEYS)
_CAL_SOURCE = np.arange(100000, dtype=np.float64)
_CAL_BUFFER = np.empty_like(_CAL_SOURCE)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:  # also keeps inf (failed requests) exact
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def calibrate() -> float:
    """Seconds one fixed, program-independent chunk of work takes now.

    Dict and string work in the interpreter plus in-place numpy passes,
    the mix the program spends its time on.  It allocates next to
    nothing and the collector is off, so the program's heap does not
    change it; only the speed the host gives this CPU does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        counts: dict[str, int] = {}
        for i in range(12000):
            key = _CAL_KEYS[i % 977]
            counts[key] = counts.get(key, 0) + i
        for _ in range(12):
            _CAL_TEXT.split(" ")
        np.copyto(_CAL_BUFFER, _CAL_SOURCE)
        for _ in range(4):
            np.multiply(_CAL_BUFFER, 1.0001, out=_CAL_BUFFER)
            np.sqrt(_CAL_BUFFER, out=_CAL_BUFFER)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class HostSpeed:
    """Calibration chunks taken all through a run, and the factors they give.

    The shared host's speed drifts by a third and more, both within a
    second and over minutes, far past every bound.  Chunks taken just
    before and just after a unit of work sample the speed it ran at; its
    time scaled by :meth:`factor` over those chunks is the time the same
    work would take at the reference speed.  The mean, not the median,
    of the chunks is used: a unit of work spans many chunks' worth of
    time and so averages the speed too.
    """

    samples: list[float] = field(default_factory=list)

    def sample(self, chunks: int) -> None:
        self.samples.extend(calibrate() for _ in range(chunks))

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Reference over measured speed, from the chunks ``[lo:hi]``."""
        return CAL_REF_S / statistics.fmean(self.samples[lo:hi])


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one workload run measured, checked and counted."""

    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    check_errors: list[str] = field(default_factory=list)
    #: Workload-named figures (``serve_p99_ms``, ``tick_p90_ms``, ...).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    shape: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.check_errors.append(message)


def emit(result: RunResult) -> None:
    """Print the human table, save the run record, print the JSON line."""
    print(f"== {result.workload} seed={result.seed} trace={int(result.trace)}")
    for key, value in result.shape.items():
        print(f"   input {key}: {value}")
    if result.named:
        print("   workload figures:")
        for name, (value, unit) in result.named.items():
            print(f"     {name:<34} {value:>14.6g} {unit}")
    print("   metrics:")
    for name, value in result.metrics.items():
        print(f"     {name:<34} {value:>14.6g} {result.units[name]}")
    print(f"   attempted={result.attempted} failed={result.failed} correct={result.correct}")
    for error in result.check_errors:
        print(f"   CHECK FAILED: {error}")

    OUTPUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "cpus": os.cpu_count(),
        "shape": result.shape,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "metrics": {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()},
        "attempted": result.attempted,
        "failed": result.failed,
        "correct": result.correct,
        "check_errors": result.check_errors,
        "details": result.details,
    }
    path = OUTPUT_DIR / f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    path.write_text(json.dumps(record, indent=2, default=float) + "\n", encoding="utf-8")
    print(f"   record: {path}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()
                },
            }
        )
    )
