"""Traced stand-in for ``python -m biphase.cli`` used by cli-cold's traced run.

Usage: trace_cli.py SPANS_PATH SUBCOMMAND [ARGS...]

Times ``import biphase.cli`` as an ``import`` span, wraps the public
callables, runs ``main`` on the remaining arguments and writes the spans
to SPANS_PATH before exiting with main's status.
"""

import sys
import time

import tracer as tracing

spans_path = sys.argv[1]
recorder = tracing.Tracer()
recorder.op = 0
start = time.perf_counter()
import biphase.cli  # noqa: E402

recorder.add_span("import", start, time.perf_counter())
recorder.install()
recorder.active = True
try:
    status = biphase.cli.main(sys.argv[2:])
finally:
    recorder.active = False
    sys.stdout.flush()
    recorder.dump(spans_path)
sys.exit(status)
