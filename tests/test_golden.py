"""Report bytes and benchmark trace targets, checked against benchmarks/.

The digests in ``benchmarks/golden.json`` pin the canonical reports of the
README commands and of the benchmark configurations.  The README commands
and the one pinned configuration that takes the sampled path run here in
process, so a change to report bytes fails the suite, not only the
benchmark.  Every function the benchmark's tracer wraps must still exist.
"""

import hashlib
import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from diagalg.cli import build_parser, emit, run

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# verify-inflation of D_5 (dimension 945) is the only pinned configuration
# whose layer and ideal checks draw seeded samples
SAMPLED = "verify-inflation --kind abrauer --n 5 --delta 2 --seed 0"


@pytest.mark.parametrize("command", _bench_module("workloads").README_COMMANDS + [SAMPLED])
def test_report_bytes_match_golden_digest(command):
    argv = shlex.split(command)
    report, code = run(argv)
    payload = emit(report, build_parser().parse_args(argv).format)
    assert code == 0
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[command]


def test_layer_trace_targets_resolve():
    layer_trace = _bench_module("layer_trace")
    resolved = layer_trace.target_functions(layer_trace.LAYER_TARGETS)
    assert len(resolved) == len(layer_trace.LAYER_TARGETS)
    assert all(callable(fn) for _, fn in resolved)
