"""The diagalg benchmark: timed and traced passes over fixed CLI workloads.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload inflation-q --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table
    python3 benchmarks/run.py --argv "verify-split-pair --kind walled --r 3 --t 3 --l 1" --trace 1
    python3 benchmarks/run.py --pin                     # re-pin the golden digests

A *pass* runs every configuration of a workload once, one after another,
each in a fresh ``python3 benchmarks/child.py`` process (one client, a closed
loop).  Before the passes, the README commands run once, untimed, as a
correctness pre-flight.  A configuration fails when it times out, exits
non-zero, reports ``ok`` other than ``true``, or, at the default seed (and
always for the pre-flight), when the sha256 of its report bytes differs from
``golden.json``.

``--trace 0`` repeats untraced passes while another one still fits in
``--seconds`` and reports medians over passes of the end-to-end metrics:

* ``wall_s``: wall seconds of one pass, the time to verified reports;
* ``setup_s``: the part of a pass spent on process start, ``import diagalg``
  and the construction entry points (basis enumeration,
  ``diagram_fin_algebra``, ``corner_split_datum``, ``wreath_product``);
* ``peak_rss_mb``: the largest max-RSS of any configuration process.

``--trace 1`` runs one untraced reference pass, then traced passes (at least
two) in which every diagalg layer is wrapped by ``layer_trace``.  Counters
must repeat exactly across traced passes; otherwise the run fails.  Every
``*_s`` per-layer metric is self time: span time minus its child spans.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also writes every
pass, per-configuration record and the environment to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from child import MARKER
from workloads import DEFAULT_SEED, README_COMMANDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"

RUN_BUDGET_S = 170       # a run stops starting configurations after this
CONFIG_TIMEOUT_S = 120   # per configuration process

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric -> (unit, value from the aggregate of one traced pass)
PER_LAYER = {
    "fields.mul_calls": ("count", lambda a: a.calls["fields.mul"]),
    "fields.add_calls": ("count", lambda a: a.calls["fields.add"]),
    "fields.inv_calls": ("count", lambda a: a.calls["fields.inv"]),
    "diagrams.mul_diagrams_calls": ("count", lambda a: a.calls["diagrams.mul_diagrams"]),
    "diagrams.mul_diagrams_s": ("s", lambda a: a.self_s["diagrams.mul_diagrams"]),
    "diagrams.basis_s": ("s", lambda a: a.self_s["diagrams.basis"]),
    "input_algebra.mul_basis_calls": ("count", lambda a: a.calls["input_algebra.mul_basis"]),
    "input_algebra.wreath_s": ("s", lambda a: a.self_s["input_algebra.wreath"]),
    "algebra_kernel.mul_basis_calls": ("count", lambda a: a.calls["algebra_kernel.mul_basis"]),
    "algebra_kernel.cache_hit_ratio": ("ratio", lambda a: _ratio(
        a.counts["algebra_kernel.cache_hits"], a.calls["algebra_kernel.mul_basis"])),
    "algebra_kernel.hom_space_s": ("s", lambda a: a.self_s["algebra_kernel.hom_space"]),
    "algebra_kernel.hom_unknowns": ("count", lambda a: a.counts["algebra_kernel.hom_unknowns"]),
    "algebra_kernel.hom_equations": ("count", lambda a: a.counts["algebra_kernel.hom_equations"]),
    "algebra_kernel.free_presentation_s": (
        "s", lambda a: a.self_s["algebra_kernel.free_presentation"]),
    "algebra_kernel.ext1_s": ("s", lambda a: a.self_s["algebra_kernel.ext1"]),
    "algebra_kernel.module_action_matrices": (
        "count", lambda a: a.counts["algebra_kernel.module_action_matrices"]),
    "linalg.insert_calls": ("count", lambda a: a.calls["linalg.insert"]),
    "linalg.insert_pivot_ratio": ("ratio", lambda a: _ratio(
        a.counts["linalg.insert_pivots"], a.calls["linalg.insert"])),
    "linalg.reduce_calls": ("count", lambda a: a.counts["linalg.reduce_calls"]),
    "linalg.echelon_s": ("s", lambda a: a.self_s["linalg.insert"] + a.self_s["linalg.reduce"]),
    "linalg.kernel_basis_s": ("s", lambda a: a.self_s["linalg.kernel_basis"]),
    **{f"inflation.verify_layer_s.l{l}": ("s", lambda a, l=l: a.self_s[f"inflation.verify_layer.l{l}"])
       for l in range(3)},
    "inflation.ideal_closed_s": ("s", lambda a: a.self_s["inflation.ideal_closed"]),
    "inflation.contraction_form_calls": ("count", lambda a: a.calls["inflation.contraction_form"]),
    **{f"split_pair.{stage}_s": ("s", lambda a, stage=stage: a.self_s[f"split_pair.{stage}"])
       for stage in ("corner_datum", "corner_iso", "alpha", "transfer", "induce", "restrict",
                     "is_split", "chain_ideal", "cell_head")},
    "specht.module_s": ("s", lambda a: a.self_s["specht.module"]),
    "specht.dominance_s": ("s", lambda a: a.self_s["specht.dominance"]),
    "cli.emit_s": ("s", lambda a: a.self_s["cli.emit"]),
    "cli.report_bytes": ("count", lambda a: a.counts["cli.report_bytes"]),
    # filled in from pass walls, see layer_values
    "trace.overhead_frac": ("ratio", None),
    "trace.unattributed_frac": ("ratio", None),
}


class Aggregate:
    """Tracer summaries of several configuration processes, added up."""

    def __init__(self, summaries):
        self.calls, self.counts = Counter(), Counter()
        self.self_s, self.incl_s = defaultdict(float), defaultdict(float)
        self.root_s = 0.0
        for s in summaries:
            self.calls.update(s["calls"])
            self.counts.update(s["counts"])
            for name, v in s["self_s"].items():
                self.self_s[name] += v
            for name, v in s["incl_s"].items():
                self.incl_s[name] += v
            self.root_s += s["root_s"]


# -- one configuration -------------------------------------------------------------

def config_argv(config: str, seed: int) -> list:
    """The CLI arguments of a workload configuration with the seed forwarded."""
    return shlex.split(config) + ["--seed", str(seed)]


def digest_key(argv) -> str:
    return shlex.join(argv)


def run_config(argv, mode, timeout):
    """Run one configuration in a child process and time it from the outside."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    if timeout != float("inf"):
        timer.start()
    out = proc.stdout.read()
    reader.join()
    # wait for the exit without reaping, so a late kill() hits a zombie, not a reused pid
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    ended = time.monotonic()
    timer.cancel()
    if timer.is_alive():
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()

    summary = None
    for line in err[0].decode(errors="replace").splitlines():
        if line.startswith(MARKER):
            summary = json.loads(line[len(MARKER):])
    record = {
        "argv": argv,
        "wall_s": ended - spawned,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "timed_out": timed_out.is_set(),
        "sha256": hashlib.sha256(out).hexdigest(),
        "report": out,
        "summary": summary,
    }
    if summary is not None:
        record["setup_s"] = summary["imported"] - spawned + summary["root_s"]
    return record


def check_config(record, expected_digest=None):
    """Why the configuration failed, or None when it passed."""
    if record["timed_out"]:
        return "timed out"
    if record["exit"] != 0:
        return f"exit status {record['exit']}"
    if record["summary"] is None:
        return "no summary from the child process"
    argv = record["argv"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        try:
            report = json.loads(record["report"])
        except ValueError:
            return "report is not JSON"
        if report.get("ok") is not True:
            return "report ok is not true"
    if expected_digest is not None and record["sha256"] != expected_digest:
        return "report bytes differ from the pinned digest"
    return None


# -- passes ----------------------------------------------------------------------

class Run:
    """Bookkeeping of one benchmark run: failures and the time budget."""

    def __init__(self, golden, budget_s=RUN_BUDGET_S, config_timeout_s=CONFIG_TIMEOUT_S):
        self.golden = golden
        self.deadline = time.monotonic() + budget_s
        self.config_timeout_s = config_timeout_s
        self.attempted = 0
        self.failures = []

    def config(self, argv, mode, check_digest):
        timeout = min(self.config_timeout_s, max(self.deadline - time.monotonic(), 1.0))
        record = run_config(argv, mode, timeout)
        expected = self.golden.get(digest_key(argv)) if check_digest else None
        if check_digest and expected is None:
            record["failure"] = "no pinned digest"
        else:
            record["failure"] = check_config(record, expected)
        self.attempted += 1
        if record["failure"]:
            self.failures.append((argv, record["failure"]))
            print(f"FAILED: {digest_key(argv)}: {record['failure']}", file=sys.stderr)
        return record

    def preflight(self):
        for command in README_COMMANDS:
            self.config(shlex.split(command), "timed", check_digest=True)

    def one_pass(self, argvs, mode, check_digest):
        started = time.monotonic()
        records = [self.config(argv, mode, check_digest) for argv in argvs]
        wall = time.monotonic() - started
        return {
            "wall_s": wall,
            "setup_s": sum(r.get("setup_s", 0.0) for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "configs": records,
        }


def fits(started, passes, seconds):
    """Whether one more pass, as long as the median so far, ends within seconds."""
    spent = time.monotonic() - started
    return spent + statistics.median(p["wall_s"] for p in passes) <= seconds


def timed_passes(run, argvs, seconds, check_digest):
    started = time.monotonic()
    passes = [run.one_pass(argvs, "timed", check_digest)]
    while fits(started, passes, seconds) and time.monotonic() < run.deadline:
        passes.append(run.one_pass(argvs, "timed", check_digest))
    metrics = {name: statistics.median(p[name] for p in passes) for name in END_TO_END}
    return metrics, passes


def counter_table(traced_pass):
    """Every counter of a traced pass, per configuration, for exactness checks."""
    return [(r["summary"] or {}).get("calls", {}) | {
        f"counts:{k}": v for k, v in (r["summary"] or {}).get("counts", {}).items()}
        for r in traced_pass["configs"]]


def layer_values(traced_pass, reference_wall):
    agg = Aggregate(r["summary"] for r in traced_pass["configs"] if r["summary"])
    values = {name: fn(agg) for name, (unit, fn) in PER_LAYER.items() if fn is not None}
    wall = traced_pass["wall_s"]
    values["trace.overhead_frac"] = (wall - reference_wall) / reference_wall
    values["trace.unattributed_frac"] = 1.0 - agg.root_s / wall
    return values


def traced_passes(run, argvs, seconds, check_digest):
    """One untraced reference pass, then at least two traced passes."""
    started = time.monotonic()
    reference = run.one_pass(argvs, "timed", check_digest)
    traced = [run.one_pass(argvs, "traced", check_digest) for _ in range(2)]
    while fits(started, traced, seconds) and time.monotonic() < run.deadline:
        traced.append(run.one_pass(argvs, "traced", check_digest))
    first = counter_table(traced[0])
    exact = all(counter_table(p) == first for p in traced[1:])
    if not exact:
        for i, p in enumerate(traced[1:], 2):
            for argv, a, b in zip(argvs, first, counter_table(p)):
                diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                if diff:
                    print(f"COUNTERS DIFFER in traced pass {i} of {digest_key(argv)}: {diff}",
                          file=sys.stderr)
    per_pass = [layer_values(p, reference["wall_s"]) for p in traced]
    # counts repeat exactly (checked above); times are medians over traced passes
    metrics = {name: per_pass[0][name] if unit == "count"
               else statistics.median(v[name] for v in per_pass)
               for name, (unit, _) in PER_LAYER.items()}
    return metrics, [reference, *traced], exact


# -- workloads ---------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, golden):
    run = Run(golden)
    run.preflight()
    argvs = [config_argv(c, seed) for c in WORKLOADS[name]["configs"]]
    check_digest = seed == DEFAULT_SEED
    if trace:
        values, passes, exact = traced_passes(run, argvs, seconds, check_digest)
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
    else:
        values, passes = timed_passes(run, argvs, seconds, check_digest)
        exact = True
        units = END_TO_END
    result = {
        "correct": not run.failures and exact,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return result, passes


def print_table(name, result):
    print(f"== {name}: {result['attempted']} configurations run, {result['failed']} failed, "
          f"fail_frac {result['failed'] / result['attempted']:.4f}", file=sys.stderr)
    for metric, v in result["metrics"].items():
        print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)


def one_off(argv, seconds, trace):
    """Any CLI argv outside the workloads, checked by exit status and ok only:
    timed passes, or a single traced pass with a span table on stderr."""
    run = Run({}, budget_s=float("inf"), config_timeout_s=float("inf"))
    if not trace:
        values, passes = timed_passes(run, [argv], seconds, check_digest=False)
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    else:
        p = run.one_pass([argv], "traced", check_digest=False)
        passes = [p]
        agg = Aggregate(r["summary"] for r in p["configs"] if r["summary"])
        spans = sorted(agg.incl_s, key=agg.incl_s.get, reverse=True)
        print(f"{'span':40s} {'calls':>10s} {'incl_s':>10s} {'self_s':>10s}", file=sys.stderr)
        for s in spans:
            print(f"{s:40s} {agg.calls[s]:10d} {agg.incl_s[s]:10.3f} {agg.self_s[s]:10.3f}",
                  file=sys.stderr)
        metrics = {m: {"value": fn(agg), "unit": u} for m, (u, fn) in PER_LAYER.items() if fn}
        metrics["wall_s"] = {"value": p["wall_s"], "unit": "s"}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, passes


def pin():
    """Pin the sha256 of every workload and README report at the default seed."""
    argvs = [shlex.split(c) for c in README_COMMANDS]
    argvs += [config_argv(c, DEFAULT_SEED) for w in WORKLOADS.values() for c in w["configs"]]
    golden = {}
    for argv in argvs:
        record = run_config(argv, "timed", CONFIG_TIMEOUT_S)
        failure = check_config(record)
        if failure:
            sys.exit(f"cannot pin {digest_key(argv)}: {failure}")
        golden[digest_key(argv)] = record["sha256"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(golden)} digests in {GOLDEN.relative_to(ROOT)}", file=sys.stderr)


# -- environment and results files -------------------------------------------------

def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "platform": platform.platform()}


def strip_reports(passes):
    """Passes as JSON: report bytes are replaced by their digests."""
    return [{**p, "configs": [{k: v for k, v in r.items() if k != "report"}
                              for r in p["configs"]]} for p in passes]


# -- entry point -------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--argv", help="time or trace one CLI configuration instead")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="write a results file with every pass and the environment")
    p.add_argument("--pin", action="store_true", help="re-pin golden.json and exit")
    args = p.parse_args(argv)
    if not args.pin and (args.workload is None) == (args.argv is None):
        p.error("give exactly one of --workload and --argv")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "diagalg" / "cli.py").is_file():
        print(f"error: no diagalg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.pin:
        pin()
        return 0
    golden = json.loads(GOLDEN.read_text())
    load_before = os.getloadavg() if args.out else None

    results = {}
    if args.argv:
        results["argv"] = one_off(shlex.split(args.argv), args.seconds, args.trace)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, golden)
    for name, (result, _) in results.items():
        print_table(name, result)

    if len(results) == 1:
        (final, _), = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {f"{name}.{m}": v for name, (r, _) in results.items()
                        for m, v in r["metrics"].items()},
        }
    if args.out:
        record = {
            "environment": {**environment(), "loadavg_before": load_before,
                            "loadavg_after": os.getloadavg()},
            "args": {k: v for k, v in vars(args).items() if k != "out"},
            "result": final,
            "workloads": {name: {"result": r, "passes": strip_reports(p)}
                          for name, (r, p) in results.items()},
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
