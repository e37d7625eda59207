"""The ``serve`` workload's server process, built as ``repro serve`` builds it.

Started by :mod:`perfbench.serve` with a work directory holding a saved
model (``model.pkl``), the pre-crawled index (``index.jsonl``) and the
sites that exist only on the synthetic host (``host.jsonl``).  It
prints ``PORT <n>`` once it listens, then obeys commands on standard
input, one per line:

* ``trace on`` / ``trace off`` — record per-layer spans (only when
  started with ``--trace 1``);
* ``cpu`` — print ``CPU <seconds>``, the CPU time all of the
  process's threads have used so far;
* ``cal`` — print ``CAL <json list>``, the seconds of CAL_CHUNKS
  host-speed calibration chunks (:func:`perfbench.common.calibrate`)
  run in this process, once the threads of the requests just answered
  have had QUIESCE_S to finish (they would hold the GIL);
* ``stop`` (or end of input) — drain, write the spans to
  ``--spans-out`` when tracing, print ``BYE <json>`` with the peak RSS
  and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from repro.io import import_corpus, load_model
from repro.serve import Authenticator, build_server
from repro.web.host import InMemoryWebHost

from perfbench import probes
from perfbench.common import CAL_CHUNKS, calibrate

#: The one API key the load generator uses (internal tier: no quota).
API_KEY = "perfbench-internal"
#: Bulkhead size (no more than the box's CPUs) and its queue.
SERVER_JOBS = 1
SERVER_QUEUE = 16
#: Pause before a calibration, for the last requests' threads to end.
QUIESCE_S = 0.05


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = probes.Tracer()
    if args.trace:
        probes.install(tracer)
    verifier = load_model(args.workdir / "model.pkl")
    index = import_corpus(args.workdir / "index.jsonl")
    host_only = import_corpus(args.workdir / "host.jsonl")
    host = InMemoryWebHost(
        page for corpus in (index, host_only) for site in corpus.sites for page in site.pages
    )
    server = build_server(
        verifier,
        sites=list(index.sites),
        host=host,
        port=0,
        authenticator=Authenticator.from_config({"keys": {API_KEY: "internal"}}),
        cache_dir=str(args.cache_dir),
        jobs=SERVER_JOBS,
        max_queue=SERVER_QUEUE,
    )
    server.start_background()
    print(f"PORT {server.port}", flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "trace on":
            tracer.enabled = bool(args.trace)
        elif command == "trace off":
            tracer.enabled = False
        elif command == "cpu":
            print(f"CPU {time.process_time()!r}", flush=True)
        elif command == "cal":
            time.sleep(QUIESCE_S)
            print("CAL " + json.dumps([calibrate() for _ in range(CAL_CHUNKS)]), flush=True)
        elif command == "stop":
            break
    tracer.enabled = False
    drained = server.drain(timeout=30.0)
    if args.trace and args.spans_out is not None:
        args.spans_out.write_text(
            json.dumps(
                {
                    "spans": [
                        [s.sid, s.parent, s.name, s.start, s.end, s.tid, s.trace_id, s.n]
                        for s in tracer.spans
                    ],
                    "counters": dict(tracer.counters),
                }
            ),
            encoding="utf-8",
        )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("BYE " + json.dumps({"peak_rss_mb": peak_kib / 1024.0, "drained": drained}), flush=True)
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main())
