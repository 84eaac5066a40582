"""Traced ``repro serve``: install the benchmark's spans, then run the CLI.

The server is the one users start (``repro.cli.main(["serve", ...])``),
with :mod:`tracing` wrappers around the public entry points of every
layer.  Spans stay in memory; when SIGINT stops the server they are
written to SPANS_OUT.

Usage: python -u perfbench/serve_traced.py SPANS_OUT serve [serve args]
"""

from __future__ import annotations

import sys

import common  # noqa: F401 - pins the BLAS pool before NumPy loads
import tracing


def main(argv: list) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.instrument(recorder, serve=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
