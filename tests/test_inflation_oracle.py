"""verify_decomposition against the pair-by-pair oracle, on tampered algebras.

One product of a diagram algebra is tampered through a subclass: pushed one
layer down (its diagram replaced by one with no horizontal edge) or scaled
by 2.  The library and ``tests/inflation_oracle.py`` must then report
the same ideal witnesses, layer failures and flags, in the exhaustive regime
(walled(2,2), D_3 over Z/2) and in the sampled one (D_5 at two seeds).
"""

from collections import Counter

import pytest

from diagalg import inflation
from diagalg.algebra_kernel import index_cases
from diagalg.diagrams import DiagramAlgebra, DiagramKind
from diagalg.fields import RationalField
from diagalg.inflation import small_algebra, verify_decomposition, verify_layer
from diagalg.input_algebra import cyclic_group_algebra, trivial_input_algebra

from inflation_oracle import decomposition_by_pairs, horizontal

Q = RationalField()


class TamperedProduct(DiagramAlgebra):
    """A diagram algebra with the product of one ordered pair replaced."""

    def __init__(self, kind, A, pair=None, replace=None):
        super().__init__(kind, A)
        self.pair, self.replace = pair, replace

    def mul_diagrams(self, d1, d2):
        prod = super().mul_diagrams(d1, d2)
        return self.replace(prod) if (d1, d2) == self.pair else prod


KINDS = {
    "walled22": (DiagramKind.walled(2, 2), lambda: trivial_input_algebra(Q, Q.parse("1"))),
    "D3_Z2": (DiagramKind.abrauer(3), lambda: cyclic_group_algebra(Q, 2, [Q.one, Q.one])),
    "D5": (DiagramKind.abrauer(5), lambda: trivial_input_algebra(Q, Q.parse("2"))),
}


def _build(name, pair=None, replace=None):
    kind, make_A = KINDS[name]
    return TamperedProduct(kind, make_A(), pair, replace)


def _candidates(dalg, how, seed):
    """Ordered pairs, in the order a check visits them, that the tamper hits.

    A push targets the ideal chain at l = 1: the product b*d (``push-left``)
    or d*b (``push-right``) of a visited pair (b, d) with b in layer 0, so
    only that side of the check can see it.  A scaling targets the layer-1
    multiplicativity check.  Each yields the pairs whose product is one
    diagram with exactly one horizontal edge.
    """
    n = dalg.kind.n
    if how == "scale":
        layer = dalg.layer_basis(1)
        pairs, _, _ = index_cases((len(layer), len(layer)), 200, 600, seed)
        ordered = ((layer[i], layer[j]) for i, j in pairs)
    else:
        basis = dalg.basis()
        members = [d for d in basis if horizontal(d, n) >= 1]
        pairs, _, _ = index_cases((len(basis), len(members)), 150, 1000, seed)
        ordered = ((basis[i], members[t]) if how == "push-left" else (members[t], basis[i])
                   for i, t in pairs if horizontal(basis[i], n) == 0)
    for d1, d2 in ordered:
        prod = dalg.mul_diagrams(d1, d2)
        if len(prod) == 1 and horizontal(next(iter(prod)), n) == 1:
            yield d1, d2


def _tampered(name, how, seed):
    plain = _build(name)
    pair = next(_candidates(plain, how, seed))
    if how == "scale":
        return _build(name, pair, lambda prod: {d: 2 * c for d, c in prod.items()})
    lower = plain.layer_basis(0)[0]
    return _build(name, pair, lambda prod: {lower: c for c in prod.values()})


@pytest.mark.parametrize("name,seed", [("walled22", 0), ("D3_Z2", 0), ("D5", 0), ("D5", 1)])
@pytest.mark.parametrize("how", ["push-left", "push-right", "scale"])
def test_tampered_product_matches_oracle(name, seed, how):
    dalg = _tampered(name, how, seed)
    report = verify_decomposition(dalg, seed=seed)
    witnesses, layers = decomposition_by_pairs(dalg, seed=seed)
    assert report["idealWitnesses"] == witnesses
    assert report["layers"] == layers
    assert report["idealChainOK"] == (not witnesses)
    assert report["ok"] is False
    if how == "scale":
        assert not layers[1]["psiMultiplicative"] and layers[1]["failures"]
    else:
        assert witnesses and witnesses[0]["l"] == 1


def test_untampered_algebra_matches_oracle():
    dalg = _build("walled22")
    report = verify_decomposition(dalg)
    witnesses, layers = decomposition_by_pairs(dalg)
    assert report["ok"] and not witnesses
    assert report["layers"] == layers


def test_ideal_chain_multiplies_each_ordered_pair_once(monkeypatch):
    """The chain multiplies exactly the ordered pairs its l >= 1 checks visit,
    each once, and none at l = 0, where no pair can be a witness."""
    dalg = _build("D3_Z2")
    products = Counter()
    layers, multiplied_at = [], set()
    mul_diagrams = dalg.mul_diagrams
    check = inflation.check_layer_ideal_closed

    def counting_mul(d1, d2):
        if layers:
            products[d1, d2] += 1
            multiplied_at.add(layers[-1])
        return mul_diagrams(d1, d2)

    def chain_check(dalg, l, **kwargs):
        layers.append(l)
        try:
            return check(dalg, l, **kwargs)
        finally:
            layers.pop()

    monkeypatch.setattr(dalg, "mul_diagrams", counting_mul)
    monkeypatch.setattr(inflation, "check_layer_ideal_closed", chain_check)
    assert verify_decomposition(dalg)["ok"]
    n, basis = dalg.kind.n, dalg.basis()
    assert len(basis) == 120   # at most 150: the chain is exhaustive
    visited = set()
    for l in range(1, dalg.layer_bound() + 1):
        members = [d for d in basis if horizontal(d, n) >= l]
        pairs, _, _ = index_cases((len(basis), len(members)), 150, 1000, 0)
        visited |= {p for i, t in pairs
                    for p in ((basis[i], members[t]), (members[t], basis[i]))}
    assert 0 not in multiplied_at
    assert set(products) == visited
    assert max(products.values()) == 1
    assert len(visited) < len(basis) ** 2


def test_verify_layer_keeps_used_once_wreath_products_out_of_the_cache():
    dalg = _build("D5")
    W = small_algebra(dalg, 0)
    rep = verify_layer(dalg, 0, W=W)
    assert rep.ok and not rep.sampled and rep.pairs_checked == 14400
    assert len(W._cache) <= W.dim
