"""Acceptance suite: every criterion is an exact, tolerance-free check and
prints one pass/fail line (run with -s to see them)."""

import time
from math import comb, factorial

from diagalg.inflation import rank_v, small_algebra, verify_decomposition
from diagalg.specht import dominance_vanishing_experiment
from diagalg.split_pair import verify_exact_split_pair


def report(num, text, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    assert ok, line


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


# -- criterion 1: dimension identities, two ways ------------------------------------

def test_criterion_01_dimensions(cache):
    started = time.monotonic()

    def layer_sum(dalg):
        return sum(rank_v(dalg, l) ** 2 * small_algebra(dalg, l).dim
                   for l in range(dalg.layer_bound() + 1))

    ok = True
    for n in (1, 2, 3, 4):
        for dim_a, deltas in ((1, None), (2, ("1", "1"))):
            dalg = cache.dalg("abrauer", n, deltas=deltas)
            expected = dim_a ** n * double_factorial(2 * n - 1)
            ok = ok and len(dalg.basis()) == expected == layer_sum(dalg)
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            deltas = tuple(["1"] * r)
            dalg = cache.dalg("abrauer", n, deltas=deltas)
            expected = r ** n * double_factorial(2 * n - 1)
            ok = ok and len(dalg.basis()) == expected == layer_sum(dalg)
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            dalg = cache.dalg("walled", (r, t))
            expected = factorial(r + t)
            ok = ok and len(dalg.basis()) == expected == layer_sum(dalg)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    report(1, f"dimension identities two ways ({elapsed:.1f}s)", ok)


# -- criterion 2: inflation isomorphism ----------------------------------------------

INFLATION_EXHAUSTIVE = [
    ("abrauer", 2, "3", None),
    ("abrauer", 3, "3", None),
    ("abrauer", 3, "1", None),
    ("cyclotomic", 2, None, ("3", "1")),
    ("cyclotomic", 3, None, ("1", "1")),
    ("cyclotomic", 2, None, ("2", "1", "1")),
    ("walled", (1, 1), "3", None),
    ("walled", (2, 1), "3", None),
    ("walled", (1, 2), "2", None),
    ("walled", (2, 2), "1", None),
]


def test_criterion_02_inflation(cache):
    ok = True
    for family, params, delta, deltas in INFLATION_EXHAUSTIVE:
        fam = "abrauer" if family == "cyclotomic" else family
        dalg = cache.dalg(fam, params, delta=delta or "1", deltas=deltas)
        rep = verify_decomposition(dalg)
        ok = ok and rep["ok"] and all(not l["sampled"] for l in rep["layers"])
    # four strands: at least 500 pairs per layer, zero failures
    dalg4 = cache.dalg("abrauer", 4, delta="2")
    rep4 = verify_decomposition(dalg4)
    ok = ok and rep4["ok"]
    ok = ok and all(l["pairsChecked"] >= 500 or not l["sampled"]
                    for l in rep4["layers"])
    ok = ok and sum(l["pairsChecked"] for l in rep4["layers"]) >= 500
    report(2, "inflation isomorphism (bijective, multiplicative, involution)", ok)


# -- criterion 3: split quotient --------------------------------------------------------

SPLIT_QUOTIENT_CONFIGS = [
    ("abrauer", 2, "1", None),
    ("abrauer", 3, "2", None),
    ("cyclotomic", 2, None, ("1", "1")),
    ("cyclotomic", 3, None, ("1", "1")),
    ("walled", (2, 1), "1", None),
]


def test_criterion_03_split_quotient(cache):
    ok = True
    for family, params, delta, deltas in SPLIT_QUOTIENT_CONFIGS:
        fam = "abrauer" if family == "cyclotomic" else family
        rep = cache.datum(fam, params, 0, delta=delta or "1", deltas=deltas).verify_alpha()
        ok = ok and rep["ok"]
    report(3, "split quotient onto the wreath algebra (pi o eps = id, ker pi = J1)", ok)


# -- criteria 4 and 5: corner rings and the transfer bimodule ----------------------------

CORNER_CONFIGS = [
    ("abrauer", 2, "1", None, (0, 1)),
    ("abrauer", 3, "1", None, (0, 1)),
    ("abrauer", 3, "3", None, (1,)),
    ("abrauer", 4, "1", None, (0, 1, 2)),
    ("cyclotomic", 2, None, ("1", "1"), (0, 1)),
    ("cyclotomic", 3, None, ("1", "1"), (0, 1)),
    ("walled", (1, 1), "1", None, (0, 1)),
    ("walled", (2, 1), "1", None, (0, 1)),
    ("walled", (2, 2), "1", None, (0, 1, 2)),
    ("walled", (3, 1), "1", None, (0, 1)),
    ("walled", (3, 2), "1", None, (0, 1, 2)),
    ("walled", (3, 3), "1", None, (0, 1, 2, 3)),
]


def corner_config_data(cache, config):
    family, params, delta, deltas, layers = config
    fam = "abrauer" if family == "cyclotomic" else family
    for l in layers:
        yield cache.datum(fam, params, l, delta=delta or "1", deltas=deltas)


def test_criterion_04_corner_rings(cache):
    ok = True
    for config in CORNER_CONFIGS:
        for datum in corner_config_data(cache, config):
            if datum.layer == 0:
                # the embedding is the identity on the basis: the corner is
                # the whole algebra and the comparison is definitional
                idem_ok = (datum.mu_rows ==
                           [datum.big.basis_vec(i) for i in range(datum.big.dim)])
                ok = ok and idem_ok and datum.corner_dim == datum.big.dim
            else:
                rep = datum.verify_corner_iso()
                ok = ok and rep["ok"]
    report(4, "corner rings isomorphic to smaller diagram algebras "
              "(full structure-constant comparison)", ok)


def test_criterion_05_corner_split_quotient(cache):
    ok = True
    for config in CORNER_CONFIGS:
        for datum in corner_config_data(cache, config):
            alpha = datum.verify_alpha()
            transfer = datum.verify_transfer_bimodule()
            ok = ok and alpha["ok"] and transfer["ok"]
    report(5, "transfer bimodule left-free of rank rankV with S*e = W", ok)


# -- criterion 6: exact split pair -----------------------------------------------------

PAIR_CONFIGS = [
    # (family, params, delta, deltas, layers, expect_nonsplit_layers)
    ("abrauer", 2, "1", None, (0, 1), ()),
    ("abrauer", 3, "1", None, (0, 1), (1,)),
    ("abrauer", 4, "1", None, (1, 2), ()),
    ("cyclotomic", 2, None, ("1", "1"), (0, 1), ()),
    ("walled", (2, 1), "1", None, (0, 1), ()),
    ("walled", (2, 2), "3", None, (0, 1, 2), (1,)),
]


def test_criterion_06_exact_split_pair(cache):
    ok = True
    nonsplit_seen = 0
    for family, params, delta, deltas, layers, nonsplit_layers in PAIR_CONFIGS:
        fam = "abrauer" if family == "cyclotomic" else family
        for l in layers:
            datum = cache.datum(fam, params, l, delta=delta or "1",
                                field="fp:5", deltas=deltas)
            rep = verify_exact_split_pair(datum)
            ok = ok and rep["ok"]
            ok = ok and len(rep["samples"]) >= 4
            if l in nonsplit_layers:
                nonsplit = [s for s in rep["sequences"] if s.get("split") is False]
                ok = ok and bool(nonsplit)
                nonsplit_seen += len(nonsplit)
            split_seen = [s for s in rep["sequences"] if s.get("split") is True]
            ok = ok and bool(split_seen)
    ok = ok and nonsplit_seen >= 2
    report(6, "exact split pair: res(ind M) = M by explicit isomorphism; "
              "exactness on split and non-split sequences over F5", ok)


# -- criterion 7: hom/ext transfer -------------------------------------------------------

def test_criterion_07_hom_ext_transfer(cache):
    ok = True
    for field in ("q", "fp:5"):
        for l in (0, 1):
            datum = cache.datum("walled", (2, 2), l, delta="1", field=field)
            rows = dominance_vanishing_experiment(datum, True)
            ok = ok and all(row["transferOK"] for row in rows)
            ok = ok and len(rows) == (16 if l == 0 else 1)
    report(7, "hom and first-extension dimensions agree across the pair "
              "(all Specht pairs, rationals and F5)", ok)


# -- criterion 8: dominance contrapositive ---------------------------------------------

def test_criterion_08_dominance(cache):
    ok = True
    for r, t in ((2, 2), (2, 1)):
        for field in ("q", "fp:5"):
            for l in range(0, min(r, t) + 1):
                datum = cache.datum("walled", (r, t), l, delta="1", field=field)
                rows = dominance_vanishing_experiment(datum, True)
                ok = ok and all(not row["violation"] for row in rows)
    report(8, "no nonzero hom/ext where componentwise dominance fails", ok)


# -- criterion 9: delta = 0 variants ------------------------------------------------------

def test_criterion_09_delta_zero(cache):
    ok = True
    for family, params, layers in (("abrauer", 3, (0, 1)), ("walled", (2, 1), (0, 1))):
        for l in layers:
            datum = cache.datum(family, params, l, delta="0", field="fp:5")
            if l == 0:
                ok = ok and datum.corner_dim == datum.big.dim   # criterion 4
            else:
                ok = ok and datum.verify_corner_iso()["ok"]
            ok = ok and datum.verify_alpha()["ok"]                       # criteria 3, 5
            ok = ok and datum.verify_transfer_bimodule()["ok"]
            rep = verify_exact_split_pair(datum)                         # criterion 6
            ok = ok and rep["ok"]
    report(9, "delta = 0 idempotents: split quotient, corners, transfer "
              "bimodule and functor pair all verified", ok)


# -- criterion 10: independent combinatorial oracle ----------------------------------------

def test_criterion_10_layer_rank_identity():
    ok = True
    for n in range(1, 9):
        total = sum((factorial(n) // (factorial(l) * factorial(n - 2 * l) * 2 ** l)) ** 2
                    * factorial(n - 2 * l)
                    for l in range(n // 2 + 1))
        ok = ok and total == double_factorial(2 * n - 1)
    report(10, "layer rank identity sums to the double factorial (n <= 8)", ok)
