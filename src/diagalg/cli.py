"""Command-line entry point: constructions, verification suites, reports.

Reports are emitted as canonical JSON (sorted keys, no whitespace, canonical
scalar strings) or CSV, so identical configurations produce byte-identical
output; wall-clock timing goes to stderr only.  The exit status is zero
exactly when every check in the run passed.  Failed checks carry witnesses,
and a witness file can be re-executed with ``--replay``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .algebra_kernel import AlgebraError
from .diagrams import DiagramAlgebra, DiagramError, DiagramKind, diagram_fin_algebra
from .fields import FieldError, make_field
from .inflation import rank_v, small_algebra, verify_decomposition
from .input_algebra import (
    InputAlgebraError,
    cyclic_group_algebra,
    input_algebra_from_json,
    trivial_input_algebra,
    validate_input_algebra,
)
from .specht import SpechtError, dominance_vanishing_experiment, table_with_ext
from .split_pair import (
    SplitPairError,
    corner_split_datum,
    hom_ext_transfer,
    verify_exact_split_pair,
    wreath_sign_module,
    wreath_trivial_module,
)

DOMINANCE_HEADER = ["l", "lambda", "mu", "lambda'", "mu'", "dimHom_big",
                    "dimHom_small", "dimExt_big", "dimExt_small",
                    "dominanceOK", "violation"]


class CliError(ValueError):
    pass


_SHARED_DEFAULTS = {"field": "q", "delta": "1", "deltas": None,
                    "input_algebra": "trivial", "out": None, "format": "json",
                    "seed": 0, "cap": 2000, "replay": None}


def _shared_options(defaults: bool):
    """Global options; subparser copies use SUPPRESS so a value given before
    the subcommand is not clobbered by the second parsing pass."""
    sup = argparse.SUPPRESS
    d = _SHARED_DEFAULTS
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--field", default=d["field"] if defaults else sup,
                        help="q | fp:<p> | cyc:<r>")
    shared.add_argument("--delta", default=d["delta"] if defaults else sup,
                        help="loop parameter (field element)")
    shared.add_argument("--deltas", default=d["deltas"] if defaults else sup,
                        help="comma list of trace values for the cyclic input algebra")
    shared.add_argument("--input-algebra", default=d["input_algebra"] if defaults else sup,
                        help="'trivial' or a path to an input-algebra JSON file")
    shared.add_argument("--out", default=d["out"] if defaults else sup,
                        help="output path (default stdout)")
    shared.add_argument("--format", default=d["format"] if defaults else sup,
                        choices=["json", "csv"])
    shared.add_argument("--seed", type=int, default=d["seed"] if defaults else sup)
    shared.add_argument("--cap", type=int, default=d["cap"] if defaults else sup,
                        help="diagram-algebra dimension cap")
    shared.add_argument("--replay", default=d["replay"] if defaults else sup,
                        help="witness file to re-execute")
    return shared


def build_parser():
    top = _shared_options(defaults=True)
    shared = _shared_options(defaults=False)
    p = argparse.ArgumentParser(prog="diagalg", parents=[top],
                                description="exact diagram-algebra constructions and checks")
    sub = p.add_subparsers(dest="command")

    def with_kind(sp):
        sp.add_argument("--kind", required=True,
                        choices=["abrauer", "cyclotomic", "walled"])
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--t", type=int, default=None)

    sp = sub.add_parser("dims", parents=[shared],
                        help="dimension and layer ranks, two ways")
    with_kind(sp)

    sp = sub.add_parser("verify-inflation", parents=[shared],
                        help="layer decomposition checks")
    with_kind(sp)

    sp = sub.add_parser("verify-split-pair", parents=[shared],
                        help="corner split quotient and functor pair")
    with_kind(sp)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--delta-zero-mode", action="store_true",
                    help="assert the run is a delta = 0 configuration")

    sp = sub.add_parser("hom-ext", parents=[shared],
                        help="hom/ext transfer across the pair")
    with_kind(sp)
    sp.add_argument("--l", type=int, required=True)

    sp = sub.add_parser("dominance-table", parents=[shared],
                        help="dominance-vanishing experiment (walled)")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)

    sub.add_parser("validate-input-algebra", parents=[shared],
                   help="check the input-algebra axioms")
    return p


def parse_deltas(field, spec):
    return [field.parse(x) for x in spec.split(",")]


def make_input_algebra(args, field, validate=True):
    """The input algebra of the options and its label.

    A file input is checked with ``validate_input_algebra`` unless
    ``validate`` is false, and refused with the first failing check and its
    witness; the built-in algebras are algebras by construction.
    """
    if args.deltas is not None:
        deltas = parse_deltas(field, args.deltas)
        return cyclic_group_algebra(field, len(deltas), deltas), f"cyclic({len(deltas)})"
    if args.input_algebra == "trivial":
        return trivial_input_algebra(field, field.parse(args.delta)), "trivial"
    with open(args.input_algebra) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputAlgebraError(f"input algebra is not JSON: {exc}") from exc
    A = input_algebra_from_json(obj, field)
    if validate:
        failed = next((c for c in validate_input_algebra(A) if not c["ok"]), None)
        if failed is not None:
            raise InputAlgebraError(
                f"input algebra {args.input_algebra} fails the check "
                f"'{failed['name']}' with witness {failed['witness']}")
    return A, args.input_algebra


def make_context(args, field):
    """Diagram algebra of the --kind options (walled without --kind), refused
    when its closed-form dimension exceeds --cap (before any basis is built)."""
    kind_name = getattr(args, "kind", "walled")
    if kind_name == "walled":
        if args.r is None or args.t is None:
            raise CliError("walled kind needs --r and --t")
        if args.deltas is not None:
            raise CliError("walled kind takes --delta, not --deltas")
        A = trivial_input_algebra(field, field.parse(args.delta))
        dalg = DiagramAlgebra(DiagramKind.walled(args.r, args.t), A)
        params = {"r": args.r, "t": args.t}
    else:
        if args.n is None:
            raise CliError(f"{kind_name} kind needs --n")
        if kind_name == "cyclotomic":
            if args.deltas is not None:
                deltas = parse_deltas(field, args.deltas)
            elif args.r is not None:
                deltas = [field.parse(args.delta)] * args.r
            else:
                raise CliError("cyclotomic kind needs --deltas (or --r with --delta)")
            A = cyclic_group_algebra(field, len(deltas), deltas)
        else:
            A, _ = make_input_algebra(args, field)
        dalg = DiagramAlgebra(DiagramKind.abrauer(args.n), A)
        params = {"n": args.n, "dimA": A.dim}
    dim = dalg.dimension()
    if dim > args.cap:
        raise CliError(f"dimension {dim} exceeds --cap {args.cap}")
    return dalg, params


def config_echo(args, field, params):
    cfg = {
        "command": args.command,
        "field": field.descriptor(),
        "delta": field.format(field.parse(args.delta)),
        "seed": args.seed,
        "cap": args.cap,
    }
    if args.deltas is not None:
        cfg["deltas"] = [field.format(x) for x in parse_deltas(field, args.deltas)]
    cfg.update(params)
    for name in ("kind", "l"):
        v = getattr(args, name, None)
        if v is not None:
            cfg[name] = v
    return cfg


def cmd_dims(args, field):
    dalg, params = make_context(args, field)
    basis = dalg.basis()
    layers = []
    total = 0
    for l in range(dalg.layer_bound() + 1):
        rv = rank_v(dalg, l)
        ds = small_algebra(dalg, l).dim
        layers.append({"l": l, "rankV": rv, "dimSmall": ds, "layerDim": rv * rv * ds})
        total += rv * rv * ds
    return {
        "config": config_echo(args, field, params),
        "dim": len(basis),
        "layers": layers,
        "layerSum": total,
        "dimTwoWaysEqual": total == len(basis),
        "ok": total == len(basis),
    }


def cmd_verify_inflation(args, field):
    dalg, params = make_context(args, field)
    report = verify_decomposition(dalg, seed=args.seed)
    report["config"] = config_echo(args, field, params)
    return report


def split_pair_datum(args, dalg):
    """The split-pair datum of D at --l."""
    return corner_split_datum(dalg, diagram_fin_algebra(dalg, cap=args.cap), args.l)


def failed_certificates(datum):
    """The datum's failing certificates, keyed as verify-split-pair keys them."""
    return {key: rep for key, rep in datum.certificates().items() if not rep["ok"]}


def cmd_verify_split_pair(args, field):
    dalg, params = make_context(args, field)
    if args.delta_zero_mode and not field.is_zero(field.parse(args.delta)):
        raise CliError("--delta-zero-mode requires --delta 0")
    report = verify_exact_split_pair(split_pair_datum(args, dalg))
    report["config"] = config_echo(args, field, params)
    return report


def walled_table(args, dalg, with_ext):
    """(failing certificates, dominance rows) of a walled algebra at --l: the
    one path of hom-ext --kind walled and dominance-table."""
    datum = split_pair_datum(args, dalg)
    return failed_certificates(datum), dominance_vanishing_experiment(datum, with_ext)


def cmd_hom_ext(args, field):
    dalg, params = make_context(args, field)
    if dalg.kind.family == "walled":
        failed, rows = walled_table(args, dalg, True)
        pairs = [{k: row[k] for k in ("lambda", "mu", "lambda'", "mu'",
                                      "dimHom_big", "dimHom_small",
                                      "dimExt_big", "dimExt_small", "transferOK")}
                 for row in rows]
        ok = all(row["transferOK"] for row in rows)
    else:
        datum = split_pair_datum(args, dalg)
        failed = failed_certificates(datum)
        pairs = hom_ext_transfer(datum, [wreath_trivial_module(datum.W),
                                         wreath_sign_module(datum.W)])
        ok = all(rep["ok"] for rep in pairs)
    return {"config": config_echo(args, field, params), "pairs": pairs, **failed,
            "ok": ok and not failed}


def cmd_dominance_table(args, field):
    dalg, params = make_context(args, field)
    failed, rows = walled_table(args, dalg, table_with_ext(field))
    return {
        "config": config_echo(args, field, params),
        "rows": rows,
        "strictReading": "the published implication is stated with strict dominance, "
                         "which fails on the diagonal; the table tests the non-strict form",
        **failed,
        "ok": all(row["transferOK"] and not row["violation"] for row in rows) and not failed,
    }


def cmd_validate_input_algebra(args, field):
    A, label = make_input_algebra(args, field, validate=False)
    checks = validate_input_algebra(A)
    return {
        "config": config_echo(args, field, {"inputAlgebra": label, "dimA": A.dim}),
        "checks": checks,
        "delta": field.format(A.delta()),
        "ok": all(c["ok"] for c in checks),
    }


def emit(report, fmt: str) -> bytes:
    """Deterministic serialization; identical reports give identical bytes.

    CSV writes the rows of a dominance table, the one report ``run`` allows
    it for; when the run fails, ``main`` also writes the JSON report to
    stderr, as the witness ``--replay`` reads.
    """
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=DOMINANCE_HEADER, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow(row)
    return buf.getvalue().encode()


def run_replay(path):
    """Re-execute a stored witness: re-runs the recorded command line and
    reports whether the witnessed check still fails."""
    with open(path) as fh:
        try:
            witness = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CliError(f"witness is not JSON: {exc}") from exc
    argv = witness.get("argv") if isinstance(witness, dict) else None
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise CliError("witness has no argv list")
    args = build_parser().parse_args(argv)
    if args.replay:
        raise CliError("witness argv asks for --replay itself; refusing to recurse")
    report, code = run(argv, args)
    target = witness.get("check")
    if target and "checks" in report:
        still = next((not c["ok"] for c in report["checks"] if c["name"] == target), None)
    else:
        still = not report["ok"]
    return {"replayed": argv, "check": target, "stillFailing": still,
            "ok": code == 0}, 0 if code == 0 else 1


COMMANDS = {
    "dims": cmd_dims,
    "verify-inflation": cmd_verify_inflation,
    "verify-split-pair": cmd_verify_split_pair,
    "hom-ext": cmd_hom_ext,
    "dominance-table": cmd_dominance_table,
    "validate-input-algebra": cmd_validate_input_algebra,
}


def run(argv, args=None):
    """(report, exit status) of one command line; ``args``, if given, is argv
    as ``build_parser`` parsed it, so a caller that parsed argv already does
    not parse it again."""
    if args is None:
        args = build_parser().parse_args(argv)
    if args.format == "csv" and (args.replay or args.command != "dominance-table"):
        raise CliError("csv format is only available for table reports")
    if args.replay:
        return run_replay(args.replay)
    if not args.command:
        build_parser().error("a subcommand is required (or --replay)")
    field = make_field(args.field)
    report = COMMANDS[args.command](args, field)
    report["argv"] = list(argv)
    return report, 0 if report.get("ok", False) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        if args.cap > _SHARED_DEFAULTS["cap"]:
            print(f"warning: raising the dimension cap to {args.cap} "
                  "leaves the desk-scale envelope", file=sys.stderr)
        report, code = run(argv, args)
        payload = emit(report, args.format)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        if code and args.format == "csv":
            # the table rows carry no witness; the report, with its argv, does
            sys.stderr.write(emit(report, "json").decode())
    except (FieldError, DiagramError, AlgebraError, InputAlgebraError,
            SplitPairError, SpechtError, CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.buffer.write(payload)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
