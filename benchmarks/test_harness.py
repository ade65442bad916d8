"""Tests of the benchmark harness itself.

    python3 -m pytest benchmarks/test_harness.py -q
"""

import cProfile
import contextlib
import hashlib
import io
import json
import pstats
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layer_trace  # noqa: E402
import run  # noqa: E402
from workloads import README_COMMANDS, WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    t = layer_trace.Tracer(clock)

    def at(time, action, name=None):
        clock.now = time
        t.enter(name) if action == "enter" else t.exit()

    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 8]; then b [12, 13] at the root
    at(0, "enter", "a")
    at(1, "enter", "b")
    at(4, "exit")
    at(5, "enter", "c")
    at(6, "enter", "b")
    at(8, "exit")
    at(9, "exit")
    at(10, "exit")
    at(12, "enter", "b")
    at(13, "exit")

    assert t.self_s == {"a": 3.0, "b": 6.0, "c": 2.0}
    assert t.incl_s == {"a": 10.0, "b": 6.0, "c": 4.0}
    assert t.calls == {"a": 1, "b": 3, "c": 1}
    assert t.root_s == 11.0
    assert t.stack == []


def _record(report: bytes, **overrides):
    record = {"argv": ["dims"], "exit": 0, "timed_out": False, "summary": {},
              "report": report, "sha256": hashlib.sha256(report).hexdigest()}
    record.update(overrides)
    return record


def test_check_config_rejects_each_failure_kind():
    good = b'{"ok":true}\n'
    pinned = hashlib.sha256(good).hexdigest()
    assert run.check_config(_record(good), pinned) is None
    assert run.check_config(_record(b'{"ok":false}\n')) == "report ok is not true"
    assert run.check_config(_record(good, exit=1)) == "exit status 1"
    assert run.check_config(_record(good, timed_out=True)) == "timed out"
    assert run.check_config(_record(good, summary=None)) is not None
    assert run.check_config(_record(b"l,lambda\n", argv=["--format", "csv"])) is None


def test_tampered_report_is_counted_as_failed():
    argv = shlex.split(README_COMMANDS[0])
    golden = json.loads(run.GOLDEN.read_text())
    honest = run.Run(golden)
    honest.config(argv, "timed", check_digest=True)
    assert honest.attempted == 1 and honest.failures == []

    record = run.run_config(argv, "timed", 60)
    tampered = record["report"].replace(b'"ok":true', b'"ok":true ')
    assert tampered != record["report"]
    forged = _record(tampered, argv=argv)
    assert run.check_config(forged, golden[run.digest_key(argv)]) == \
        "report bytes differ from the pinned digest"

    wrong_pin = run.Run({run.digest_key(argv): hashlib.sha256(tampered).hexdigest()})
    wrong_pin.config(argv, "timed", check_digest=True)
    assert wrong_pin.attempted == 1 and len(wrong_pin.failures) == 1


def test_config_over_its_timeout_is_killed_and_failed():
    record = run.run_config(shlex.split(README_COMMANDS[2]), "timed", 0.05)
    assert record["timed_out"]
    assert run.check_config(record) == "timed out"


def test_seed_is_forwarded_to_every_config():
    from diagalg.cli import build_parser

    parser = build_parser()
    for workload in WORKLOADS.values():
        for config in workload["configs"]:
            argv = run.config_argv(config, 7)
            assert parser.parse_args(argv).seed == 7, config
    record = run.run_config(run.config_argv(README_COMMANDS[1], 7), "timed", 60)
    assert run.check_config(record) is None
    assert json.loads(record["report"])["config"]["seed"] == 7


def test_every_workload_and_readme_config_is_pinned():
    golden = json.loads(run.GOLDEN.read_text())
    keys = {run.digest_key(shlex.split(c)) for c in README_COMMANDS}
    keys |= {run.digest_key(run.config_argv(c, run.DEFAULT_SEED))
             for w in WORKLOADS.values() for c in w["configs"]}
    assert keys == set(golden)


def test_wrapped_call_counts_equal_cprofile_ncalls():
    """Every wrapper sees every call: its count equals cProfile's ncalls of
    the wrapped function, so no module keeps an unwrapped binding."""
    from diagalg import cli

    tracer = layer_trace.Tracer()
    uninstall = layer_trace.install(tracer, layer_trace.LAYER_TARGETS)
    profile = cProfile.Profile()
    sink = io.TextIOWrapper(io.BytesIO())
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            profile.enable()
            for command in README_COMMANDS[:5]:
                assert cli.main(shlex.split(command)) == 0
            profile.disable()
    finally:
        uninstall()

    ncalls = {(code[0], code[1], code[2]): stat[1]
              for code, stat in pstats.Stats(profile).stats.items()}
    expected, seen = {}, {}
    for name, fn in layer_trace.target_functions(layer_trace.LAYER_TARGETS):
        code = fn.__code__
        expected[name] = expected.get(name, 0) + ncalls.get(
            (code.co_filename, code.co_firstlineno, code.co_name), 0)
        seen[name] = sum(v for k, v in tracer.calls.items()
                         if k == name or k.startswith(name + ".l"))
    assert seen == expected
    assert expected["diagrams.mul_diagrams"] > 0 and expected["fields.mul"] > 0
    assert expected["algebra_kernel.hom_space"] > 0 and expected["linalg.insert"] > 0


def test_uninstall_restores_every_binding():
    import diagalg
    from diagalg import algebra_kernel, specht, split_pair

    before = (specht.free_presentation, split_pair.hom_space, diagalg.hom_space,
              algebra_kernel.FinAlgebra.__dict__["mul_basis"])
    uninstall = layer_trace.install(layer_trace.Tracer(), layer_trace.LAYER_TARGETS)
    assert specht.free_presentation is not before[0]
    assert split_pair.hom_space is not before[1]
    uninstall()
    assert (specht.free_presentation, split_pair.hom_space, diagalg.hom_space,
            algebra_kernel.FinAlgebra.__dict__["mul_basis"]) == before


def test_traced_counters_repeat_exactly():
    argv = shlex.split(README_COMMANDS[2])
    passes = [{"configs": [run.run_config(argv, "traced", 60)]} for _ in range(2)]
    first, second = (run.counter_table(p) for p in passes)
    assert first == second
    assert first[0]["diagrams.mul_diagrams"] > 0


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "inflation-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [[], ["--workload", "all", "--argv", "dims"]])
def test_needs_exactly_one_target(argv):
    with pytest.raises(SystemExit):
        run.parse_args(argv)
