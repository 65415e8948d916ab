"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [serve options]``

The wrappers go in before the CLI entry point runs, so the server's
batches are traced like an in-process run; the spans are written to
``SPANS.json`` when the server has drained and returned.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
