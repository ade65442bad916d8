"""Report bytes and benchmark trace targets, checked against benchmarks/.

The digests in ``benchmarks/golden.json`` pin the canonical reports of the
README commands and of the benchmark configurations.  The README commands,
the one pinned configuration that takes the sampled path and the Hom/Ext^1
configurations of the ``homext-fp`` workload run here in process, so a
change to report bytes fails the suite, not only the benchmark.  One larger
Hom/Ext^1 report, outside the benchmark, is pinned by its digest here.
Every function the benchmark's tracer wraps must still exist.
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


WORKLOADS = _bench_module("workloads")
# the benchmark runs each workload configuration with the seed appended
HOMEXT = [f"{config} --seed {WORKLOADS.DEFAULT_SEED}"
          for config in WORKLOADS.WORKLOADS["homext-fp"]["configs"]]

# Hom and Ext^1 over walled(3,3) at layer 2 over F_5: one Specht pair, whose
# inductions are 18-dimensional modules over the 720-dimensional algebra
WALLED_33_L2 = ("hom-ext --kind walled --r 3 --t 3 --l 2 --field fp:5",
                "c333dc5d5b7110815835d1236c56cb1922f7b20b610640e0cd8b2b6de5e32693")


def report_digest(command):
    argv = shlex.split(command)
    report, code = run(argv)
    assert code == 0
    return hashlib.sha256(emit(report, build_parser().parse_args(argv).format)).hexdigest()


@pytest.mark.parametrize("command", WORKLOADS.README_COMMANDS + [SAMPLED] + HOMEXT)
def test_report_bytes_match_golden_digest(command):
    assert report_digest(command) == GOLDEN[command]


def test_larger_hom_ext_report_is_pinned():
    command, digest = WALLED_33_L2
    assert report_digest(command) == digest


def test_layer_trace_targets_resolve():
    layer_trace = _bench_module("layer_trace")
    resolved = layer_trace.target_functions(layer_trace.LAYER_TARGETS)
    assert len(resolved) == len(layer_trace.LAYER_TARGETS)
    assert all(callable(fn) for _, fn in resolved)
