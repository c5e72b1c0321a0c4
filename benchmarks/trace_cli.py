"""``python -m discordant.cli`` with the benchmark's layer spans installed.

The traced run of cli_cold starts this in place of the plain CLI; the spans
are written to $BENCH_TRACE_FILE when the interpreter exits, whatever the
exit code. Usage: python3 benchmarks/trace_cli.py <discordant arguments>
"""

import atexit
import os

import discordant.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    atexit.register(tracer.write, os.environ["BENCH_TRACE_FILE"])
    discordant.cli.main(prog_name="discordant")
