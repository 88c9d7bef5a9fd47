"""Run the ringtasep CLI from the checkout's source, as a user's fresh
process would.

    python3 perfbench/cli_entry.py [--trace FILE] <ringtasep arguments>

With `--trace FILE` the benchmark's wrappers are installed before
`cli.main` runs, and on exit the spans, counters and the moment the CLI
was ready (after import, before the wrappers) are written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

from source import use_checkout_source


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    use_checkout_source()
    from ringtasep import cli
    ready = perf_counter_ns()
    if trace_file is None:
        return cli.main(argv)
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(trace_file, "w") as fh:
            json.dump({**tracer.dump(), "ready_ns": ready}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
