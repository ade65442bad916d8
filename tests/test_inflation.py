from fractions import Fraction

import pytest

from diagalg import inflation
from diagalg.algebra_kernel import index_cases
from diagalg.diagrams import DiagramAlgebra, DiagramKind
from diagalg.fields import PrimeField, RationalField
from diagalg.inflation import (
    contraction_form,
    check_layer_ideal_closed,
    layer_ideal_indices,
    rank_v,
    small_algebra,
    verify_decomposition,
    verify_layer,
)
from diagalg.input_algebra import cyclic_group_algebra, identity_perm, trivial_input_algebra

Q = RationalField()


def brauer(n, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    return DiagramAlgebra(DiagramKind.abrauer(n), A)


def cyclo(n, r, deltas, field=Q):
    A = cyclic_group_algebra(field, r, [field.parse(d) for d in deltas])
    return DiagramAlgebra(DiagramKind.abrauer(n), A)


def walled(r, t, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    return DiagramAlgebra(DiagramKind.walled(r, t), A)


# -- layer ideals ----------------------------------------------------------------

def test_layer_ideal_dims():
    dalg = brauer(2)
    assert len(layer_ideal_indices(dalg, 0)) == 3
    assert len(layer_ideal_indices(dalg, 1)) == 1

    wd = walled(2, 2)
    assert len(layer_ideal_indices(wd, 2)) == 4


def test_layer_ideal_closed_exhaustive_small():
    for dalg in (brauer(3, "2"), walled(2, 1, "3"), cyclo(2, 2, ["1", "1"])):
        for l in range(dalg.layer_bound() + 1):
            assert check_layer_ideal_closed(dalg, l, 0, {}) is None


# -- contraction form ---------------------------------------------------------------

def test_contraction_equal_configs_gives_delta_power():
    dalg = brauer(4, delta="3")
    W = small_algebra(dalg, 1)
    f = dalg.enumerate_partials(1)[0]
    phi = contraction_form(dalg, W, f, f)
    unit_key = ((0, 0), identity_perm(2))
    assert phi == {W.key_index[unit_key]: Fraction(3)}


def test_contraction_isolated_edges_vanish():
    dalg = brauer(4, delta="3")
    W = small_algebra(dalg, 1)
    partials = {p.edges: p for p in dalg.enumerate_partials(1)}
    f = partials[((0, 1, 0),)]
    e = partials[((2, 3, 0),)]
    assert contraction_form(dalg, W, f, e) == {}


def test_contraction_adjacent_overlap_reroutes_through_strand():
    # bottom config {0,1} against top config {1,2}: a single zig-zag chain,
    # no loops; after the left-to-right renumbering the wreath part is the
    # identity permutation and the scalar is one.
    dalg = brauer(4, delta="3")
    W = small_algebra(dalg, 1)
    partials = {p.edges: p for p in dalg.enumerate_partials(1)}
    f = partials[((0, 1, 0),)]
    e = partials[((1, 2, 0),)]
    phi = contraction_form(dalg, W, f, e)
    assert phi == {W.key_index[((0, 0), identity_perm(2))]: Q.one}


def test_contraction_with_cyclic_labels_traces_loops():
    dalg = cyclo(2, 3, ["5", "2", "2"])
    W = small_algebra(dalg, 1)
    partials = {p.edges: p for p in dalg.enumerate_partials(1)}
    for m, want in ((0, Fraction(5)), (1, Fraction(2)), (2, Fraction(2))):
        f = partials[((0, 1, m),)]
        e = partials[((0, 1, 0),)]
        phi = contraction_form(dalg, W, f, e)
        assert phi == {0: want} or phi == {W.key_index[((), ())]: want}


# -- per-layer verification ------------------------------------------------------------

@pytest.mark.parametrize("make,l", [
    (lambda: brauer(2, "3"), 1),
    (lambda: brauer(3, "1"), 1),
    (lambda: brauer(3, "0"), 1),
    (lambda: cyclo(2, 2, ["1", "1"]), 1),
    (lambda: walled(1, 1, "2"), 1),
    (lambda: walled(2, 2, "1"), 1),
])
def test_verify_layer_passes(make, l):
    rep = verify_layer(make(), l, 0, {})
    assert rep["psiBijective"] and rep["psiMultiplicative"] and rep["involutionOK"], rep["failures"]


def test_verify_layer_zero_is_wreath_iso():
    rep = verify_layer(brauer(3, "2"), 0, 0, {})
    assert rep["psiBijective"] and rep["psiMultiplicative"] and rep["involutionOK"]
    assert rep["rankV"] == 1 and rep["dimSmall"] == 6


# -- full decomposition ------------------------------------------------------------------

def test_decomposition_brauer3():
    report = verify_decomposition(brauer(3, "1"))
    assert report["ok"]
    assert report["dim"] == 15
    assert [l["layerDim"] for l in report["layers"]] == [6, 9]


def test_decomposition_cyclotomic_n2_r2():
    report = verify_decomposition(cyclo(2, 2, ["1", "1"]))
    assert report["ok"]
    assert report["dim"] == 12
    assert [l["layerDim"] for l in report["layers"]] == [8, 4]


def test_decomposition_walled_1_1():
    report = verify_decomposition(walled(1, 1, "1"))
    assert report["ok"]
    assert report["dim"] == 2
    assert [l["layerDim"] for l in report["layers"]] == [1, 1]


def test_decomposition_delta_zero_abrauer():
    report = verify_decomposition(brauer(3, "0"))
    assert report["ok"]


def test_decomposition_over_prime_field():
    report = verify_decomposition(walled(2, 1, "2", field=PrimeField(5)))
    assert report["ok"]
    assert report["dim"] == 6


@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_checks_visit_as_many_distinct_pairs_as_they_count(monkeypatch, seed):
    """On D_5 the layer checks at l = 1 and 2 and the ideal chain sample.
    Each visits as many distinct pairs as it counts: pairsChecked for the
    layer checks, 1,000 for each layer of the chain."""
    visited = []

    def recording(sizes, limit, samples, seed):
        cases, count, sampled = index_cases(sizes, limit, samples, seed)
        seen = []
        visited.append(seen)
        return (seen.append(c) or c for c in cases), count, sampled

    monkeypatch.setattr(inflation, "index_cases", recording)
    report = verify_decomposition(brauer(5, "2"), seed=seed)
    assert report["ok"]
    # three layer checks, then the chain at l = 1 and 2 (l = 0 draws nothing)
    layers, chain = visited[:3], visited[3:]
    assert len(chain) == 2
    for rep, seen in zip(report["layers"], layers):
        assert len(set(seen)) == len(seen) == rep["pairsChecked"]
    assert [rep["sampled"] for rep in report["layers"]] == [False, True, True]
    assert [len(set(seen)) for seen in chain] == [1000, 1000]


def test_rank_v_values():
    assert rank_v(brauer(4), 1) == 6
    assert rank_v(walled(2, 2), 1) == 4
    assert rank_v(cyclo(3, 2, ["1", "1"]), 1) == 6
