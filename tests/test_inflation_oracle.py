"""verify_decomposition against the pair-by-pair oracle, on tampered algebras.

One product of a diagram algebra is tampered through a subclass of its one
product kernel, ``DiagramAlgebra.product``, which every check and
``mul_diagrams`` read: pushed one layer down (its diagram replaced by one
with no horizontal edge), scaled by 2 at layer 1 or layer 0, replaced by
another diagram of its layer, or raised above layer 0.  The library and
``tests/inflation_oracle.py`` must then report the same ideal witnesses,
layer failures and flags, in the exhaustive regime (walled(2,2), D_3 over
Z/2, and D_3 over the dual numbers, whose products are element dicts) and
in the sampled one (D_5 at two seeds).  The work counts of a run
are pinned too: each product once, each wreath side once where it can
repeat, and no cache per pair.
"""

import tracemalloc
from collections import Counter

import pytest

from diagalg import inflation
from diagalg.algebra_kernel import index_cases
from diagalg.diagrams import DiagramAlgebra, DiagramKind
from diagalg.fields import RationalField
from diagalg.inflation import small_algebra, verify_decomposition, verify_layer
from diagalg.input_algebra import (cyclic_group_algebra, input_algebra_from_json,
                                   trivial_input_algebra)

from inflation_oracle import decomposition_by_pairs, horizontal, layer_diagrams
from test_input_algebra import DUAL_NUMBERS

Q = RationalField()


class TamperedProduct(DiagramAlgebra):
    """A diagram algebra with the product of one ordered pair replaced."""

    def __init__(self, kind, A, pair=None, replace=None):
        super().__init__(kind, A)
        self.pair, self.replace = pair, replace

    def product(self, d1, d2):
        got = super().product(d1, d2)
        if (d1, d2) != self.pair:
            return got
        prod = self.replace(self.element(got))
        top = horizontal(next(iter(prod)), self.kind.n)
        if got[0] is None:   # a non-monomial input algebra: the element itself
            return None, prod, top
        (d, c), = prod.items()
        return d.edges, c, top


KINDS = {
    "walled22": (DiagramKind.walled(2, 2), lambda: trivial_input_algebra(Q, Q.parse("1"))),
    "D3_Z2": (DiagramKind.abrauer(3), lambda: cyclic_group_algebra(Q, 2, [Q.one, Q.one])),
    "D4": (DiagramKind.abrauer(4), lambda: trivial_input_algebra(Q, Q.parse("2"))),
    "D5": (DiagramKind.abrauer(5), lambda: trivial_input_algebra(Q, Q.parse("2"))),
    # not monomial: products are read as element dicts
    "D3_dual": (DiagramKind.abrauer(3), lambda: input_algebra_from_json(DUAL_NUMBERS, Q)),
}


def _build(name, pair=None, replace=None):
    kind, make_A = KINDS[name]
    return TamperedProduct(kind, make_A(), pair, replace)


# layer-check tampers: (layer l, layer of the tampered product before the
# tamper, whether the pair may be the contraction form's)
LAYER_TAMPERS = {"scale": (1, 1, True), "wrong-diagram": (1, 1, False),
                 "raise": (0, 0, False), "scale-l0": (0, 0, False), "lower": (1, 2, False)}
CASES = [("walled22", 0), ("D3_Z2", 0), ("D5", 0), ("D5", 1)]


def _contraction_pair(dalg, d1, d2):
    """Whether d1, d2 are the diagrams (f, f, 1), (e, e, 1) whose product
    defines the contraction form."""
    W = small_algebra(dalg, dalg.layer(d1))
    (unit,) = W.unit
    return all(top == bottom and key == W.basis_keys[unit]
               for top, bottom, key in map(dalg.layer_factorize, (d1, d2)))


def _candidates(dalg, how, seed):
    """Ordered pairs, in the order a check visits them, that the tamper hits.

    A push targets the ideal chain at l = 1: the product b*d (``push-left``)
    or d*b (``push-right``) of a visited pair (b, d) with b in layer 0, so
    only that side of the check can see it.  The other tampers target the
    multiplicativity check of their layer l (``LAYER_TAMPERS``); those that
    must reach the single-term comparison skip the contraction form's pair,
    whose product is also read as the form itself.  Each yields the pairs
    whose product is one diagram with exactly l horizontal edges, or l + 1
    for ``lower``.
    """
    n = dalg.kind.n
    h = 1
    if how in LAYER_TAMPERS:
        l, h, contraction_ok = LAYER_TAMPERS[how]
        layer = layer_diagrams(dalg, l)
        pairs, _, _ = index_cases((len(layer), len(layer)), 200, 600, seed)
        ordered = ((layer[i], layer[j]) for i, j in pairs
                   if contraction_ok or not _contraction_pair(dalg, layer[i], layer[j]))
    else:
        basis = dalg.basis()
        members = [d for d in basis if horizontal(d, n) >= 1]
        pairs, _, _ = index_cases((len(basis), len(members)), 150, 1000, seed)
        ordered = ((basis[i], members[t]) if how == "push-left" else (members[t], basis[i])
                   for i, t in pairs if horizontal(basis[i], n) == 0)
    for d1, d2 in ordered:
        prod = dalg.mul_diagrams(d1, d2)
        if len(prod) == 1 and horizontal(next(iter(prod)), n) == h:
            yield d1, d2


def _tampered(name, how, seed):
    """The algebra with one product replaced: pushed down to layer 0 (a
    push), scaled by 2, replaced by another diagram of its layer, raised to
    layer 1, or lowered from layer 2 into layer 1."""
    plain = _build(name)
    pair = next(_candidates(plain, how, seed))
    if how.startswith("scale"):
        return _build(name, pair, lambda prod: {d: 2 * c for d, c in prod.items()})
    if how == "wrong-diagram":
        (right,) = plain.mul_diagrams(*pair)
        other = next(d for d in layer_diagrams(plain, 1) if d != right)
        return _build(name, pair, lambda prod: {other: c for c in prod.values()})
    target = layer_diagrams(plain, 1 if how in ("raise", "lower") else 0)[0]
    return _build(name, pair, lambda prod: {target: c for c in prod.values()})


@pytest.mark.parametrize("name,seed", CASES)
@pytest.mark.parametrize("how", ["push-left", "push-right", "scale", "wrong-diagram", "raise",
                                 "scale-l0"])
def test_tampered_product_matches_oracle(name, seed, how):
    _assert_matches_oracle(name, seed, how)


@pytest.mark.parametrize("name,seed", [case for case in CASES if case[0] != "D3_Z2"])
def test_product_lowered_into_its_layer_matches_oracle(name, seed):
    """A layer-1 pair whose product lies in layer 2, where the prediction is
    zero, made to land in layer 1; D_3 has no layer 2."""
    _assert_matches_oracle(name, seed, "lower")


def _assert_matches_oracle(name, seed, how):
    dalg = _tampered(name, how, seed)
    report = verify_decomposition(dalg, seed=seed)
    witnesses, layers = decomposition_by_pairs(dalg, seed=seed)
    assert report["idealWitnesses"] == witnesses
    assert report["layers"] == layers
    assert report["idealChainOK"] == (not witnesses)
    assert report["ok"] is False
    if how in LAYER_TAMPERS:
        l = LAYER_TAMPERS[how][0]
        assert not layers[l]["psiMultiplicative"] and layers[l]["failures"]
    else:
        assert witnesses and witnesses[0]["l"] == 1


def test_untampered_algebra_matches_oracle():
    dalg = _build("walled22")
    report = verify_decomposition(dalg)
    witnesses, layers = decomposition_by_pairs(dalg)
    assert report["ok"] and not witnesses
    assert report["layers"] == layers


@pytest.mark.parametrize("how", [None, "scale", "push-left"])
def test_non_monomial_algebra_matches_oracle(how):
    """Over the dual numbers the checks compare element dicts; untampered,
    the report passes, and each tamper fails it as the oracle does."""
    if how is None:
        dalg = _build("D3_dual")
        assert dalg.A.label_table is None
        report = verify_decomposition(dalg)
        witnesses, layers = decomposition_by_pairs(dalg)
        assert report["ok"] and not witnesses
        assert report["layers"] == layers
    else:
        _assert_matches_oracle("D3_dual", 0, how)


def test_ideal_chain_multiplies_each_ordered_pair_once(monkeypatch):
    """Over one verify_decomposition, every ordered pair the ideal chain
    visits at l >= 1 is multiplied exactly once, by a layer check or by the
    chain; the checks and the chain multiply no pair of basis diagrams
    twice, the chain multiplies only visited pairs, and none at l = 0, where
    no pair can be a witness.  The only other products are the contraction
    forms', one per pair of configurations of a layer: 1 + 6^2 on D3_Z2."""
    dalg = _build("D3_Z2")
    products = Counter()            # every product of the checks and the chain
    in_forms = Counter()            # the products of the contraction forms
    in_chain = {}                   # chain layer l -> its products
    layers = []
    forming = []
    product = dalg.product
    check = inflation.check_layer_ideal_closed
    form = inflation.contraction_form

    def counting_product(d1, d2):
        (in_forms if forming else products)[d1, d2] += 1
        if layers:
            in_chain.setdefault(layers[-1], set()).add((d1, d2))
        return product(d1, d2)

    def counting_form(*args):
        forming.append(True)
        try:
            return form(*args)
        finally:
            forming.pop()

    def chain_check(dalg, l, *args):
        layers.append(l)
        try:
            return check(dalg, l, *args)
        finally:
            layers.pop()

    monkeypatch.setattr(dalg, "product", counting_product)
    monkeypatch.setattr(inflation, "check_layer_ideal_closed", chain_check)
    monkeypatch.setattr(inflation, "contraction_form", counting_form)
    assert verify_decomposition(dalg)["ok"]
    n, basis = dalg.kind.n, dalg.basis()
    assert sum(in_forms.values()) == 1 + 6 ** 2
    assert len(basis) == 120   # at most 150: the chain is exhaustive
    visited = set()
    for l in range(1, dalg.layer_bound() + 1):
        members = [d for d in basis if horizontal(d, n) >= l]
        pairs, _, _ = index_cases((len(basis), len(members)), 150, 1000, 0)
        visited |= {p for i, t in pairs
                    for p in ((basis[i], members[t]), (members[t], basis[i]))}
    chain = set().union(*in_chain.values())
    assert 0 not in in_chain
    assert max(products.values()) == 1
    assert visited <= set(products)
    assert chain <= visited
    # the layer-1 check multiplied the 72 x 72 pairs of its layer first
    assert len(visited - chain) == 72 ** 2
    assert len(visited) < len(basis) ** 2


def test_layer_check_forms_each_wreath_side_once():
    """Cyclotomic n = 3 at l = 1 has 6 configurations and a 2-dimensional
    wreath algebra, so b_k1 * phi(bot1, top2) * b_k2 takes at most 144
    values over its 5,184 pairs; W multiplies at most 4 more pairs for the
    left factors b_k1 * phi."""
    dalg = _build("D3_Z2")
    W = small_algebra(dalg, 1)
    calls = Counter()
    pair_mul = W.pair_mul

    def counting_pair_mul(i, j):
        calls[i, j] += 1
        return pair_mul(i, j)

    W.pair_mul = counting_pair_mul
    rep = verify_layer(dalg, 1, 0, {}, W=W)
    assert rep["psiBijective"] and rep["psiMultiplicative"] and rep["involutionOK"]
    assert not rep["sampled"] and rep["pairsChecked"] == 5184
    assert (len(dalg.enumerate_partials(1)), W.dim) == (6, 2)
    assert sum(calls.values()) <= 148


def test_verify_layer_keeps_used_once_wreath_products_out_of_the_cache():
    """At l = 0 every pair reads its own wreath product: W's cache holds only
    the left factors, and the check keeps nothing per pair: no wreath side
    and, at l = 0, where the ideal chain reads none, no product layer."""
    dalg = _build("D5")
    W = small_algebra(dalg, 0)
    dalg.basis()
    tracemalloc.start()
    try:
        rep = verify_layer(dalg, 0, 0, {}, W=W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["psiBijective"] and rep["psiMultiplicative"] and rep["involutionOK"]
    assert not rep["sampled"] and rep["pairsChecked"] == 14400
    assert len(W._cache) <= W.dim
    # a table with one entry per pair would take over 90 bytes a pair
    assert peak < 14400 * 72


@pytest.mark.parametrize("name, l", [("D3_Z2", 0), ("D3_Z2", 1), ("D4", 0), ("D4", 1)])
def test_a_corrupted_wreath_product_is_the_witness(name, l):
    """The first wreath product the layer check asks W for, doubled whenever
    it is asked for again.  At l = 0 (one configuration) it is the wreath
    side of the first pair; at l = 1 it enters the first pair with a
    nonzero form.  The walk is untouched, so that pair is the first
    failure: the check compares the wreath product with the walk and does
    not read it off the walk."""
    dalg = _build(name)
    assert verify_layer(dalg, l, 0, {})["psiMultiplicative"]
    W = small_algebra(dalg, l)
    pair_mul, product = W.pair_mul, dalg.product
    corrupted, witness = [], []

    def corrupt(i, j):
        got = pair_mul(i, j)
        if not corrupted:
            corrupted.append((i, j))
        return {m: 2 * c for m, c in got.items()} if (i, j) == corrupted[0] else got

    def product_after_corruption(d1, d2):
        if corrupted and not witness:
            witness.append([dalg.label(d1), dalg.label(d2)])
        return product(d1, d2)

    W.pair_mul = corrupt
    dalg.product = product_after_corruption
    rep = verify_layer(dalg, l, 0, {}, W=W)
    assert (len(dalg.enumerate_partials(l)) == 1) == (l == 0)
    assert rep["psiBijective"] and rep["involutionOK"]
    assert not rep["psiMultiplicative"]
    assert rep["failures"][0] == {"check": "multiplicative", "pair": witness[0]}
