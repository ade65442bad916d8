import json
import time

import pytest

from diagalg.cli import emit, main, run


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
