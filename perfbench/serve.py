"""``repro serve`` for the benchmark's workloads, optionally traced.

    python3 -B perfbench/serve.py --port PORT --cpu CPU --cache-dir DIR
        --max-cache-mb MB [--trace SPANS.jsonl]

Runs the program's own command line in this process, pinned to one
CPU, configured as the README starts a shared daemon: a disk-backed
store bounded per tier, and the asyncio backend with eight workers
while the command offers that choice.  ``src/`` must be on
``PYTHONPATH``.

With ``--trace`` the layer wrappers from ``spans.py`` are installed
first.  SIGUSR1 then clears what was recorded, which the benchmark
sends when its warm-up ends, and is acknowledged on stdout; SIGUSR2
writes the spans to the given file and prints the per-layer totals on
stdout as one line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import spans  # noqa: E402  (this script's directory is on sys.path)

#: Executor threads, as the README's asyncio example starts the daemon.
WORKERS = 8


def main() -> int:
    parser = argparse.ArgumentParser(description="repro serve, optionally traced")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True, help="CPU to run on")
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--max-cache-mb", type=float, required=True)
    parser.add_argument("--trace", type=Path, default=None, help="spans file to write")
    args = parser.parse_args()
    # Before any import can start a thread, so every thread stays here.
    os.sched_setaffinity(0, {args.cpu})

    from repro import cli

    argv = ["serve", "--port", str(args.port), "--cache-dir", str(args.cache_dir)]
    argv += ["--max-cache-mb", f"{args.max_cache_mb:g}"]
    options = cli.build_parser().parse_args(argv)
    if hasattr(options, "backend"):
        argv += ["--backend", "asyncio"]
    if hasattr(options, "workers"):
        argv += ["--workers", str(WORKERS)]

    tracer = None
    if args.trace is not None:
        tracer = spans.Tracer()
        spans.instrument(tracer)

        def reset(signum: int, frame: object) -> None:
            tracer.reset()
            os.write(sys.__stdout__.fileno(), (spans.RESET_LINE + "\n").encode())

        def dump(signum: int, frame: object) -> None:
            tracer.write_spans(args.trace)
            line = spans.TOTALS_LINE + json.dumps(tracer.totals_snapshot()) + "\n"
            os.write(sys.__stdout__.fileno(), line.encode())

        signal.signal(signal.SIGUSR1, reset)
        signal.signal(signal.SIGUSR2, dump)

    # The command's banner would share stdout with the control lines.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
