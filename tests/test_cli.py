import json
import time

import pytest

from diagalg import cli
from diagalg.cli import emit, main, run
from diagalg.input_algebra import perm_sign
from diagalg.linalg import vec_times_rows
from diagalg.split_pair import CornerSplitDatum


def run_json(argv):
    report, code = run(argv)
    return report, code


def test_dims_abrauer_n3():
    report, code = run_json(["dims", "--kind", "abrauer", "--n", "3",
                             "--input-algebra", "trivial", "--delta", "1"])
    assert code == 0
    assert report["dim"] == 15
    assert report["dimTwoWaysEqual"]
    assert [l["layerDim"] for l in report["layers"]] == [6, 9]


def test_dims_walled():
    report, code = run_json(["dims", "--kind", "walled", "--r", "2", "--t", "2"])
    assert code == 0
    assert report["dim"] == 24


def test_verify_inflation_cyclotomic():
    report, code = run_json(["verify-inflation", "--kind", "cyclotomic",
                             "--n", "2", "--deltas", "1,1"])
    assert code == 0
    assert report["dim"] == 12
    assert report["layerSum"] == 12
    assert report["dimensionIdentity"]


def test_cyclotomic_delta_with_trailing_zero_coefficient():
    # "[0,1,0]" over Q(zeta_3) is zeta itself, echoed as its residue [0,1]
    report, code = run_json(["verify-inflation", "--kind", "abrauer", "--n", "2",
                             "--field", "cyc:3", "--delta", "[0,1,0]"])
    assert code == 0
    assert report["config"]["delta"] == "[0,1]"


def test_verify_split_pair_walled():
    report, code = run_json(["verify-split-pair", "--kind", "walled",
                             "--r", "2", "--t", "2", "--l", "1",
                             "--field", "q", "--delta", "1"])
    assert code == 0
    assert report["ok"]
    assert report["transfer"]["rankV"] == 4


def test_verify_split_pair_delta_zero_mode():
    report, code = run_json(["verify-split-pair", "--kind", "abrauer",
                             "--n", "3", "--l", "1", "--delta", "0",
                             "--delta-zero-mode"])
    assert code == 0
    assert report["ok"]


def test_delta_zero_mode_rejects_nonzero_delta(capsys):
    code = main(["verify-split-pair", "--kind", "abrauer", "--n", "3",
                 "--l", "1", "--delta", "2", "--delta-zero-mode"])
    assert code == 2
    assert "delta" in capsys.readouterr().err


def test_hom_ext_walled():
    report, code = run_json(["hom-ext", "--kind", "walled", "--r", "2",
                             "--t", "2", "--l", "1"])
    assert code == 0
    assert report["pairs"][0]["dimHom_big"] == 1


def test_dominance_table_csv_header(capsys):
    code = main(["--format", "csv", "dominance-table", "--r", "2", "--t", "1",
                 "--l", "0", "--field", "fp:5"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0]
    assert header == "l,lambda,mu,lambda',mu',dimHom_big,dimHom_small,dimExt_big,dimExt_small,dominanceOK,violation"


@pytest.mark.parametrize("argv", [
    ["verify-inflation", "--kind", "abrauer", "--n", "2"],
    ["hom-ext", "--kind", "walled", "--r", "2", "--t", "1", "--l", "0"],
    ["--replay", "witness.json"],
], ids=["verify-inflation", "hom-ext", "replay"])
def test_csv_refused_before_any_computation(capsys, monkeypatch, argv):
    """Only the dominance table has a CSV form; anything else is refused with
    exit 2 before a command runs or a witness file is read."""
    def never(*args):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "run_replay", never)
    for name in ("verify-inflation", "hom-ext"):
        monkeypatch.setitem(cli.COMMANDS, name, never)
    assert main(["--format", "csv", *argv]) == 2
    assert "csv format is only available for table reports" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["dims", "--kind", "walled"],
    ["verify-inflation", "--kind", "walled"],
    ["verify-split-pair", "--kind", "walled", "--l", "0"],
    ["hom-ext", "--kind", "walled", "--l", "0"],
    ["dominance-table", "--l", "0"],
], ids=lambda command: command[0])
def test_walled_kind_refuses_deltas(capsys, monkeypatch, command):
    """A walled algebra is built over the trivial input algebra at --delta,
    so --deltas, which the report would echo, is refused before D is built."""
    def never(*args):
        raise AssertionError("diagram algebra built")

    monkeypatch.setattr(cli, "DiagramAlgebra", never)
    argv = [*command, "--r", "2", "--t", "1", "--deltas", "3,1", "--field", "fp:5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: walled kind takes --delta, not --deltas" in captured.err
    assert captured.out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["--out", str(out), "dims", "--kind", "abrauer", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_input_algebra_cyclic():
    report, code = run_json(["validate-input-algebra", "--deltas", "2,1,1"])
    assert code == 0
    assert report["ok"]
    assert report["delta"] == "2"


BROKEN_ALGEBRA = {
    # dual numbers with a tampered involution 1 <-> x: squares to the identity
    # but fails to be an anti-automorphism: (x*x)* = 0 while x* x* = 1
    "dim": 2,
    "basis": ["1", "x"],
    "unit": ["1", "0"],
    "structconsts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    "involution": [["0", "1"], ["1", "0"]],
    "trace": ["1", "1"],
}


def test_validate_input_algebra_failure_has_witness(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(BROKEN_ALGEBRA))
    report, code = run_json(["validate-input-algebra", "--input-algebra", str(path)])
    assert code == 1
    bad = [c for c in report["checks"] if not c["ok"]]
    assert bad and all(c["witness"] is not None for c in bad)


def test_replay_witness_roundtrip(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(BROKEN_ALGEBRA))
    report, code = run_json(["validate-input-algebra", "--input-algebra", str(path)])
    assert code == 1
    bad = next(c for c in report["checks"] if not c["ok"])
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps({"argv": report["argv"], "check": bad["name"]}))
    replay_report, replay_code = run_json(["--replay", str(witness_file)])
    assert replay_report["stillFailing"] is True
    assert replay_code == 1


def test_each_command_line_is_parsed_once(tmp_path, monkeypatch, capsys):
    """main parses its argv once and a replay parses the stored argv once,
    with the reports and exit codes of the parsed runs."""
    parsed = []
    parse_args = cli.argparse.ArgumentParser.parse_args

    def counting(self, argv=None, namespace=None):
        parsed.append(list(argv))
        return parse_args(self, argv, namespace)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", counting)
    argv = ["dims", "--kind", "abrauer", "--n", "2"]
    assert main(argv) == 0
    assert parsed == [argv]
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps({"argv": argv}))
    parsed.clear()
    assert main(["--replay", str(witness_file)]) == 0
    assert parsed == [["--replay", str(witness_file)], argv]
    assert capsys.readouterr().out.count('"ok":true') == 2


TAMPERED_CYCLIC = {
    # group algebra of Z/3 with the product h*h tampered to h: not associative,
    # and * is no longer an anti-automorphism
    "dim": 3,
    "basis": ["h^0", "h^1", "h^2"],
    "unit": ["1", "0", "0"],
    "structconsts": [[i, j, (i + j) % 3, "1"] for i in range(3) for j in range(3)
                     if (i, j) != (1, 1)] + [[1, 1, 1, "1"]],
    "involution": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
    "trace": ["1", "1", "1"],
}

SHIFTED_INVOLUTION = {
    # dual numbers with x* = 1 + x: (x*)* = 2 + x, (x x)* = 0 but x* x* = 1 + 2x,
    # and tr(x*) = 1 differs from tr(x) = 0
    "dim": 2,
    "basis": ["1", "x"],
    "unit": ["1", "0"],
    "structconsts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    "involution": [["1", "0"], ["1", "1"]],
    "trace": ["1", "0"],
}


def _checks(unital, associative, square, antihom, star, tracial):
    names = ["unital", "associative", "involution squares to identity",
             "involution is an anti-automorphism", "trace is *-invariant",
             "trace is tracial"]
    witnesses = [unital, associative, square, antihom, star, tracial]
    return [{"name": n, "ok": w is None, "witness": w} for n, w in zip(names, witnesses)]


@pytest.mark.parametrize("algebra, checks", [
    (BROKEN_ALGEBRA, _checks(None, None, None, [0, 0], None, None)),
    (TAMPERED_CYCLIC, _checks(None, [1, 1, 2], None, [1, 1], None, None)),
    (SHIFTED_INVOLUTION, _checks(None, None, [1], [1, 1], [1], None)),
], ids=["broken", "tampered-cyclic", "shifted-involution"])
def test_validate_input_algebra_failing_checks_are_pinned(tmp_path, algebra, checks):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra))
    report, code = run_json(["validate-input-algebra", "--input-algebra", str(path)])
    assert code == 1
    assert report["checks"] == checks
    assert report["delta"] == "1"


def _malformed(change):
    obj = json.loads(json.dumps(BROKEN_ALGEBRA))
    change(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("text", [
    _malformed(lambda obj: obj.pop("unit")),
    _malformed(lambda obj: obj.update(trace=["1"])),
    _malformed(lambda obj: obj.update(involution=[["0", "1"]])),
    _malformed(lambda obj: obj["structconsts"].append([1, 1, 2, "1"])),
    _malformed(lambda obj: obj["structconsts"].append([0, 1, 1, "2"])),
    '{"dim": 0, "unit": [], "structconsts": [], "involution": [], "trace": []}',
    '{"dim": 2,',
], ids=["missing-unit", "short-trace", "few-involution-rows", "structconst-index",
        "repeated-structconst", "zero-dim", "not-json"])
def test_malformed_input_algebra_exits_2(tmp_path, capsys, text):
    path = tmp_path / "alg.json"
    path.write_text(text)
    for argv in (["validate-input-algebra"],
                 ["verify-inflation", "--kind", "abrauer", "--n", "2"]):
        assert main(argv + ["--input-algebra", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_byte_determinism():
    argv = ["dims", "--kind", "abrauer", "--n", "3"]
    r1, _ = run_json(argv)
    r2, _ = run_json(argv)
    assert emit(r1, "json") == emit(r2, "json")


def test_exit_code_zero_iff_pass():
    _, code = run_json(["dims", "--kind", "abrauer", "--n", "2"])
    assert code == 0


def test_bad_field_errors(capsys):
    assert main(["dims", "--kind", "abrauer", "--n", "2", "--field", "fp:6"]) == 2


def test_negative_sizes_exit_2(capsys):
    for command in ("dims", "verify-inflation"):
        assert main([command, "--kind", "abrauer", "--n", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err


def test_dims_checks_cap_before_enumerating(capsys):
    started = time.monotonic()
    assert main(["dims", "--kind", "abrauer", "--n", "8"]) == 2   # 2,027,025 diagrams
    assert time.monotonic() - started < 5
    assert "2027025 exceeds --cap 2000" in capsys.readouterr().err
    assert main(["dims", "--kind", "walled", "--r", "4", "--t", "3"]) == 2   # 7! > 2000


def test_replay_refuses_recursive_witness(tmp_path, capsys):
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps({"argv": ["--replay", str(witness_file)]}))
    assert main(["--replay", str(witness_file)]) == 2
    assert "--replay" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"check": "unital"}',
                                  '{"argv": "dims"}'])
def test_replay_refuses_malformed_witness(tmp_path, capsys, text):
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(text)
    assert main(["--replay", str(witness_file)]) == 2
    assert "witness" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["validate-input-algebra", "--input-algebra"], "input algebra is not JSON: "),
    (["dims", "--kind", "abrauer", "--n", "2", "--input-algebra"], "input algebra is not JSON: "),
    (["--replay"], "witness is not JSON: "),
], ids=["validate-input-algebra", "dims", "replay"])
def test_non_utf8_file_exits_2(tmp_path, capsys, argv, message):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


@pytest.mark.parametrize("r, t", [(-1, 2), (3, -1)])
def test_negative_walled_side_is_named(capsys, r, t):
    assert main(["verify-inflation", "--kind", "walled", "--r", str(r), "--t", str(t)]) == 2
    assert f"walled sides must be non-negative, got r = {r}, t = {t}" in capsys.readouterr().err


def test_verify_inflation_honours_cap(capsys):
    assert main(["verify-inflation", "--kind", "abrauer", "--n", "4", "--cap", "10"]) == 2
    assert "105 exceeds --cap 10" in capsys.readouterr().err
    assert main(["verify-inflation", "--kind", "abrauer", "--n", "2", "--cap", "1"]) == 2
    assert "exceeds --cap 1" in capsys.readouterr().err


def test_split_pair_checks_cap_before_enumerating(capsys):
    started = time.monotonic()
    assert main(["verify-split-pair", "--kind", "abrauer", "--n", "8", "--l", "1"]) == 2
    assert time.monotonic() - started < 5
    assert "2027025 exceeds --cap 2000" in capsys.readouterr().err


NONASSOCIATIVE_ALGEBRA = {
    # x*x = y and x*y = x but y*x = 0: (x*x)*x = 0 while x*(x*x) = x, which
    # breaks the layer-1 multiplicativity check of D_3 over this algebra
    "dim": 3,
    "basis": ["1", "x", "y"],
    "unit": ["1", "0", "0"],
    "structconsts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [0, 2, 2, "1"],
                     [2, 0, 2, "1"], [1, 1, 2, "1"], [1, 2, 1, "1"]],
    "involution": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "trace": ["1", "0", "0"],
}


def test_replay_decides_verify_inflation_witness(tmp_path, capsys):
    # an input file that is not an algebra is refused before any check runs,
    # and so is the replay of a witness recorded on it
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(NONASSOCIATIVE_ALGEBRA))
    argv = ["verify-inflation", "--kind", "abrauer", "--n", "3", "--input-algebra", str(path)]
    assert main(argv) == 2
    assert "'associative'" in capsys.readouterr().err
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps({"argv": argv}))
    assert main(["--replay", str(witness_file)]) == 2
    assert "'associative'" in capsys.readouterr().err
    witness_file.write_text(json.dumps({"argv": ["verify-inflation", "--kind", "abrauer",
                                                 "--n", "2"]}))
    replay_report, replay_code = run_json(["--replay", str(witness_file)])
    assert replay_report["stillFailing"] is False
    assert replay_code == 0


# every subcommand that builds diagrams over an input-algebra file validates it
# first: the first failing check of validate-input-algebra, with its witness
@pytest.mark.parametrize("algebra, message", [
    (BROKEN_ALGEBRA, "'involution is an anti-automorphism' with witness [0, 0]"),
    (TAMPERED_CYCLIC, "'associative' with witness [1, 1, 2]"),
], ids=["broken", "tampered-cyclic"])
@pytest.mark.parametrize("command", [
    ["verify-inflation", "--kind", "abrauer", "--n", "2"],
    ["verify-split-pair", "--kind", "abrauer", "--n", "2", "--l", "1"],
    ["dims", "--kind", "abrauer", "--n", "2"],
    ["hom-ext", "--kind", "abrauer", "--n", "2", "--l", "1"],
], ids=lambda argv: argv[0])
def test_invalid_input_algebra_file_exits_2(tmp_path, capsys, algebra, message, command):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra))
    assert main(command + ["--input-algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: input algebra {path} fails the check {message}" in err
    assert "Traceback" not in err


def test_valid_input_algebra_file_is_accepted(tmp_path):
    # the Z/3 group algebra, untampered, passes validation and the inflation check
    obj = dict(TAMPERED_CYCLIC, structconsts=[[i, j, (i + j) % 3, "1"]
                                              for i in range(3) for j in range(3)])
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    report, code = run_json(["verify-inflation", "--kind", "abrauer", "--n", "2",
                             "--input-algebra", str(path)])
    assert code == 0 and report["ok"]


# -- defects that only a certificate or a unit map sees ----------------------------

def _tamper_every_datum(monkeypatch, tamper):
    """Every CornerSplitDatum built from here on, replays included, is
    passed to ``tamper`` once constructed."""
    init = CornerSplitDatum.__init__

    def tampered(self, *args):
        init(self, *args)
        tamper(self)

    monkeypatch.setattr(CornerSplitDatum, "__init__", tampered)


def _mu_row_with_a_second_term(datum):
    (other,) = datum.mu_rows[0]
    x = datum.small_big.dim - 1
    datum.mu_rows[x] = {**datum.mu_rows[x], other: datum.field.one}


@pytest.mark.parametrize("argv", [
    ["hom-ext", "--kind", "abrauer", "--n", "3", "--l", "0", "--delta", "2"],
    ["dominance-table", "--r", "2", "--t", "1", "--l", "0", "--field", "fp:5"],
], ids=lambda argv: argv[0])
def test_failed_certificate_fails_hom_ext_and_dominance_table(tmp_path, monkeypatch, argv):
    """A mu row with a second term leaves every Hom and Ext^1 comparison
    alone; only the monomial certificate of the corner sees it, and its
    report goes under the key verify-split-pair uses."""
    _tamper_every_datum(monkeypatch, _mu_row_with_a_second_term)
    out = tmp_path / "report.json"
    assert main(["--out", str(out), *argv]) == 1
    report = json.loads(out.read_text())
    assert not report["ok"]
    assert report["cornerIso"]["failures"][0]["check"] == "mu_monomial"
    assert "alpha" not in report and "transfer" not in report
    rows = report.get("pairs") or report["rows"]
    assert all(row.get("ok", row.get("transferOK")) for row in rows)
    replay_report, replay_code = run_json(["--replay", str(out)])
    assert replay_report["stillFailing"] is True and replay_code == 1


def _sign_element(W):
    return {w: W.field.from_int(perm_sign(key[1])) for w, key in enumerate(W.basis_keys)}


@pytest.mark.parametrize("left_factor, failing", [
    (_sign_element, "unitMapIsIso"),
    (lambda W: W.generators[0], "unitMapIsModuleMap"),
], ids=["sign-element", "transposition"])
def test_unit_map_through_a_twisted_class_of_e_fails(tmp_path, monkeypatch, left_factor,
                                                      failing):
    """D_3 at l = 0 with u*[e] = [sigma(u)*e] read as the class of e, u in
    QS_3: the regular sample's unit map becomes m -> m*u.  For u the sum of
    sgn(w)*w, which is central, it is a module map of rank one; for u a
    transposition it is bijective but not a module map.  Every certificate
    still passes, the run exits 1, and its replay still fails."""
    def twist(datum):
        sigma_u = vec_times_rows(datum.field, left_factor(datum.W), datum.section_big)
        datum._e_class = datum._to_S(datum.big.mul(sigma_u, datum.idem_vec))

    _tamper_every_datum(monkeypatch, twist)
    out = tmp_path / "report.json"
    argv = ["verify-split-pair", "--kind", "abrauer", "--n", "3", "--l", "0", "--delta", "2"]
    assert main(["--out", str(out), *argv]) == 1
    report = json.loads(out.read_text())
    assert not report["ok"]
    assert all(report[key]["ok"] for key in ("cornerIso", "alpha", "transfer"))
    regular = report["samples"][0]
    assert regular["module"] == "regular" and regular[failing] is False
    replay_report, replay_code = run_json(["--replay", str(out)])
    assert replay_report["stillFailing"] is True and replay_code == 1


def test_failing_csv_table_leaves_its_report_on_stderr(tmp_path, monkeypatch, capsys):
    """The csv rows of a run that fails on a certificate all look passing;
    the JSON report on stderr names the failure and replays it."""
    _tamper_every_datum(monkeypatch, _mu_row_with_a_second_term)
    argv = ["--format", "csv", "dominance-table", "--r", "2", "--t", "1", "--l", "0",
            "--field", "fp:5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("l,lambda,mu")
    (line,) = [x for x in captured.err.splitlines() if x.startswith("{")]
    report = json.loads(line)
    assert report["argv"] == argv and not report["ok"]
    assert report["cornerIso"]["failures"][0]["check"] == "mu_monomial"
    witness = tmp_path / "witness.json"
    witness.write_text(line)
    replay_report, replay_code = run_json(["--replay", str(witness)])
    assert replay_report["stillFailing"] is True and replay_code == 1


def test_passing_csv_table_writes_no_report(capsys):
    assert main(["--format", "csv", "dominance-table", "--r", "2", "--t", "1", "--l", "0",
                 "--field", "fp:5"]) == 0
    assert "{" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dominance-table", "--r", "3", "--t", "3", "--l", "0"],
], ids=lambda argv: argv[0])
def test_characteristic_2_refused_before_the_algebra_is_built(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("diagram algebra built")

    monkeypatch.setattr(cli, "diagram_fin_algebra", never)
    assert main([*argv, "--field", "fp:2"]) == 2
    assert "dominance tables exclude characteristic 2" in capsys.readouterr().err


def test_walled_hom_ext_compares_ext_in_characteristic_2():
    """The Hom/Ext transfer needs no dominance, so hom-ext takes the field
    the dominance table refuses: Ext^1 is 2 on both sides of every pair."""
    report, code = run_json(["hom-ext", "--kind", "walled", "--r", "2", "--t", "2",
                             "--l", "0", "--field", "fp:2"])
    assert code == 0 and report["ok"]
    assert len(report["pairs"]) == 16
    assert all(p["dimExt_small"] == p["dimExt_big"] == 2 for p in report["pairs"])


def test_dominance_table_over_the_cap_gets_the_cap_message_first(capsys):
    started = time.monotonic()
    assert main(["dominance-table", "--r", "4", "--t", "4", "--l", "0", "--field", "fp:2"]) == 2
    assert time.monotonic() - started < 5
    assert "40320 exceeds --cap 2000" in capsys.readouterr().err
