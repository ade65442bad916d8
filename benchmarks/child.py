"""Run one diagalg CLI configuration in a fresh process for the benchmark.

    python3 benchmarks/child.py {timed|traced} <diagalg CLI arguments...>

The report bytes go to stdout exactly as the CLI writes them, and the exit
status is the CLI's.  The last stderr line is ``MARKER`` followed by a JSON
summary: monotonic clock readings at process start and after ``import
diagalg``, and the tracer's aggregates.  ``timed`` wraps only the
construction entry points (``SETUP_TARGETS``), which fire a handful of
times per configuration; ``traced`` wraps every layer (``LAYER_TARGETS``).
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MARKER = "diagalg-bench-summary "


def main(mode, argv):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from diagalg import cli
    imported = time.monotonic()

    from layer_trace import LAYER_TARGETS, SETUP_TARGETS, Tracer, install
    tracer = Tracer()
    install(tracer, SETUP_TARGETS if mode == "timed" else LAYER_TARGETS)
    code = cli.main(argv)
    sys.stdout.flush()
    summary = {"started": STARTED, "imported": imported, **tracer.summary()}
    print(MARKER + json.dumps(summary, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("timed", "traced"):
        sys.exit("usage: child.py {timed|traced} <diagalg arguments...>")
    sys.exit(main(sys.argv[1], sys.argv[2:]))
