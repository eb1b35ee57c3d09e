"""Traced stand-in for ``python -m jetvar`` in the gauge_cli workload.

Usage: ``python cli_shim.py SPAN_FILE REQUEST_ID ARGV...``.  Installs the
span wrappers, runs ``jetvar.cli.cli_dispatch(ARGV)`` with the real stdout,
writes the spans to SPAN_FILE and exits with the dispatch's exit code.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import spans  # noqa: E402


def main() -> int:
    span_file, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import jetvar.cli

    tracer.request = request
    try:
        code = jetvar.cli.cli_dispatch(argv)
    finally:
        tracer.request = -1
        sys.stdout.flush()
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
