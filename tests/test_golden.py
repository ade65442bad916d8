"""Report bytes and benchmark trace targets, checked against benchmarks/.

The digests in ``benchmarks/golden.json`` pin the canonical reports of the
README commands and of the benchmark configurations.  Every one of them
runs here in process, so a change to report bytes fails the suite, not only
the benchmark.  Larger reports outside the benchmark are pinned by their
digests here.  Every function the benchmark's tracer wraps must still exist.
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


WORKLOADS = _bench_module("workloads")
# the benchmark runs each workload configuration with the seed appended;
# verify-inflation of D_5 (dimension 945) is the one whose layer and ideal
# checks draw seeded samples
WORKLOAD_COMMANDS = [f"{config} --seed {WORKLOADS.DEFAULT_SEED}"
                     for workload in WORKLOADS.WORKLOADS.values()
                     for config in workload["configs"]]

# Hom and Ext^1 over walled(3,3) at layer 2 over F_5: one Specht pair, whose
# inductions are 18-dimensional modules over the 720-dimensional algebra
WALLED_33_L2 = ("hom-ext --kind walled --r 3 --t 3 --l 2 --field fp:5",
                "c333dc5d5b7110815835d1236c56cb1922f7b20b610640e0cd8b2b6de5e32693")

LARGER_INFLATION = {
    # dimension 120: every layer and the ideal chain checked exhaustively
    "verify-inflation --kind walled --r 3 --t 2":
        "3487888cbd14e5bfa8e2a16ccfa6de253f1dfb81ee7c0c625fba6c325db12137",
    # dimension 405 over the group algebra of Z/3: the ideal chain is sampled
    "verify-inflation --kind cyclotomic --n 3 --deltas 1,1,1":
        "90afd559234c8a5d416f2bd40998357f58178df9c0d0d02aedc2382b51f66a64",
}

# split pairs whose induction reads the layer factorization on labeled
# diagrams, on the largest Brauer algebra below the cap, and over a
# cyclotomic field
LARGER_SPLIT_PAIR = {
    "verify-split-pair --kind cyclotomic --n 3 --r 3 --delta 1 --l 1 --field cyc:3":
        "ba62956d5932bbba420c2637b40acf6c8a7fe04367c9c9a1b5f23e3af29e6ffa",
    "verify-split-pair --kind cyclotomic --n 4 --r 2 --deltas 1,1 --l 1":
        "68244576bacd5c527eea901374a23f62095245213d891e743af6cf4dc7dcb6f4",
    "verify-split-pair --kind abrauer --n 5 --l 1":
        "44138c5cf9072de9b797ff792980782edc8bd0854703d84bf3cec84b51b14854",
    "hom-ext --kind cyclotomic --n 3 --r 3 --delta 1 --l 1 --field cyc:3":
        "ba20e4cd8b22ece0e1682366e80e9720ac8905290708ecc24a436dac5ab2a8b5",
    # the presentation of the cell head, and Ext^1 of inductions of dimension
    # 10 over the 945-dimensional D_5: digests taken on the kernel-solve route
    # that the relation spin replaced
    "verify-split-pair --kind cyclotomic --n 4 --r 2 --deltas 1,1 --l 2":
        "ea20db6dbb8abdd71da45be3320c2dd08ef35e6a6e2ac51479f1d41dfd0e6a1a",
    "hom-ext --kind abrauer --n 5 --l 1 --field fp:7":
        "d6be527cef7d7e2ba68449d0ad2a69fea8c182fa8aba84bd8a31d345de6f2be4",
    # layer 0, where the small algebra is the algebra itself (dimensions 720,
    # 720, 945 and 405): digests taken when the corner isomorphism was checked
    # on every pair of basis elements
    "verify-split-pair --kind walled --r 3 --t 3 --l 0":
        "6dce996a7fd0fd01ff0d6f39cafabf6565166212eb7cdbbb5971411a7205b885",
    "verify-split-pair --kind walled --r 4 --t 2 --l 0":
        "3026609d65bab8ed80d5bbac35c31401ff16128d57f83401fdc7c64864499635",
    "verify-split-pair --kind abrauer --n 5 --l 0 --delta 2":
        "4076537f64805b23d3f949d50a8064aa7b82d8be51a2c043f14416e14819737b",
    "verify-split-pair --kind cyclotomic --n 3 --r 3 --delta 1 --l 0 --field cyc:3":
        "067e1a57ca2788130168b46d3d1e8ceb8f3137f3dbf49b20445c6bf824630ce4",
}


def report_digest(command):
    argv = shlex.split(command)
    report, code = run(argv)
    assert code == 0
    return hashlib.sha256(emit(report, build_parser().parse_args(argv).format)).hexdigest()


@pytest.mark.parametrize("command", WORKLOADS.README_COMMANDS + WORKLOAD_COMMANDS)
def test_report_bytes_match_golden_digest(command):
    assert report_digest(command) == GOLDEN[command]


def test_every_golden_digest_is_checked():
    assert sorted(WORKLOADS.README_COMMANDS + WORKLOAD_COMMANDS) == sorted(GOLDEN)


def test_larger_hom_ext_report_is_pinned():
    command, digest = WALLED_33_L2
    assert report_digest(command) == digest


@pytest.mark.parametrize("command", LARGER_INFLATION)
def test_larger_inflation_report_is_pinned(command):
    assert report_digest(command) == LARGER_INFLATION[command]


@pytest.mark.parametrize("command", LARGER_SPLIT_PAIR)
def test_larger_split_pair_report_is_pinned(command):
    assert report_digest(command) == LARGER_SPLIT_PAIR[command]


def test_layer_trace_targets_resolve():
    layer_trace = _bench_module("layer_trace")
    resolved = layer_trace.target_functions(layer_trace.LAYER_TARGETS)
    assert len(resolved) == len(layer_trace.LAYER_TARGETS)
    assert all(callable(fn) for _, fn in resolved)
