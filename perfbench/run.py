"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` wraps each layer's entry points, reports the
per-layer metrics and writes a Chrome trace under ``.perfbench/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when an output check fails or the program is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve", "batch", "stream")


def _prepare_imports() -> None:
    """Import the program from ``src/`` and this package from the root."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    _prepare_imports()
    os.chdir(ROOT)
    from perfbench import common

    if args.workload == "serve":
        from perfbench import serve as workload
    elif args.workload == "batch":
        from perfbench import batch as workload
    else:
        from perfbench import stream as workload
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    if not result.correct:
        for error in result.check_errors:
            print(f"perfbench: output check failed: {error}", file=sys.stderr)
        return 1
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
