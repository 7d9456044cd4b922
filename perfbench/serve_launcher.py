"""Traced ``repro serve``: installs the layer wrappers, then runs the CLI.

Usage: ``python serve_launcher.py SPANS_OUT serve --mode socket ...``.
The spans are written to ``SPANS_OUT`` after the server shuts down.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import apply_thread_env

apply_thread_env()


def main() -> int:
    from repro.cli import main as cli_main
    from spans import SpanRecorder, install

    spans_out = Path(sys.argv[1])
    recorder = install(SpanRecorder())
    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.unpatch()
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
