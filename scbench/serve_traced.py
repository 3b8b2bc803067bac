"""``repro serve`` with the benchmark's span recorder installed.

Usage: ``python scbench/serve_traced.py SPANS.json [repro serve flags...]``

Wraps the public functions (:func:`tracing.install_serving`), then runs
the unchanged CLI.  After the server has drained on SIGTERM, the spans
are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    out, flags = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install_serving(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *flags])
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
