"""``repro serve`` with every layer's public calls traced.

Usage: ``python3 -m perfbench.traced_serve --spans-out FILE serve [serve args...]``.
Installs the span wrappers, runs the unmodified CLI entry point, and writes
the spans to ``FILE`` when the server has drained and exited.
"""

from __future__ import annotations

import sys

from perfbench.tracing import SpanRecorder, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print("usage: traced_serve --spans-out FILE serve [args...]", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        recorder.write(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
