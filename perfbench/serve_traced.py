"""``repro-hls serve`` with spans around the server's submit-path parse.

Usage: ``python3 perfbench/serve_traced.py OUT.json serve [serve flags]``
(with the program's ``src`` on ``PYTHONPATH``).  When the server stops,
the self time per span name and the span counts are written to OUT.json.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from tracing import SERVER_TARGETS, Tracer


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.install(SERVER_TARGETS)
    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        calls = Counter(name for name, *_ in tracer.spans)
        out.write_text(json.dumps(
            {"self_times": tracer.self_times(), "calls": dict(calls)}
        ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
