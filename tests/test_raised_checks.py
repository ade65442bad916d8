"""Internal consistency checks raise their module's error, under ``python -O`` too.

Each check guards a step that cannot fail on a well-formed algebra, so each
test here breaks one input, product or helper and asserts the error.
"""

import pytest

from diagalg import specht
from diagalg.algebra_kernel import AlgebraError, regular_module
from diagalg.diagrams import DiagramAlgebra, DiagramError, DiagramKind, diagram_fin_algebra
from diagalg.fields import RationalField
from diagalg.inflation import contraction_form, small_algebra, verify_layer
from diagalg.input_algebra import trivial_input_algebra, wreath_product
from diagalg.split_pair import CornerSplitDatum, SplitPairError, corner_split_datum

Q = RationalField()


def brauer(n, delta="2"):
    return DiagramAlgebra(DiagramKind.abrauer(n), trivial_input_algebra(Q, Q.parse(delta)))


def test_contraction_that_changes_the_configurations_raises():
    """The product of the contraction form's diagrams replaced by a layer-1
    diagram with other configurations."""
    dalg = brauer(4)
    W = small_algebra(dalg, 1)
    f, e = dalg.enumerate_partials(1)[:2]
    foreign = next(d for d in dalg.basis()
                   if dalg.layer(d) == 1 and dalg.layer_factorize(d)[0] not in (f, e))
    dalg.product = lambda d1, d2: (foreign.edges, Q.one, 1)
    with pytest.raises(AlgebraError, match="contraction changed the configurations"):
        contraction_form(dalg, W, f, e)
    with pytest.raises(AlgebraError, match="contraction changed the configurations"):
        verify_layer(dalg, 1, 0, {}, W=W)


def test_cups_with_unequal_free_columns_raise():
    with pytest.raises(DiagramError, match="unequal numbers of free columns"):
        brauer(3)._cup_diagram_element(((0, 1),), ())


def test_delta_zero_cups_without_their_shift_raise(monkeypatch):
    """At delta = 0 the cup diagram with its bottom cups under its top cups
    squares to zero, the trace of the closed loop, so without the shift of
    its bottom cups the layer idempotent is not idempotent."""
    dalg = brauer(3, "0")
    cups = ((1, 2),)
    monkeypatch.setattr(dalg, "layer_idempotent",
                        lambda l: dalg._cup_diagram_element(cups, cups))
    with pytest.raises(SplitPairError, match="element is not idempotent"):
        corner_split_datum(dalg, diagram_fin_algebra(dalg), 1)


def test_permuted_polytabloid_outside_the_span_raises(monkeypatch):
    """With the polytabloid replaced by the tabloid of its tableau, the spin
    of its permutations leaves the Specht module: it spans the whole tabloid
    module of shape (2, 1), of dimension 3, not the hook length 2."""
    def tabloid(tableaux, m, tab_index, F):
        key = [0] * m
        for i, row in enumerate(row for tableau in tableaux for row in tableau):
            for v in row:
                key[v] = i
        return {tab_index[tuple(key)]: F.one}

    monkeypatch.setattr(specht, "_polytabloid", tabloid)
    W = wreath_product(trivial_input_algebra(Q, Q.one), 3)
    with pytest.raises(AlgebraError, match="the spin spans dimension 3, not 2"):
        specht.specht_module((2, 1), W)


def test_alpha_of_a_foreign_bottom_configuration_raises(monkeypatch):
    monkeypatch.setattr(CornerSplitDatum, "_to_S", lambda self, v: {-1: self.field.one})
    dalg = brauer(3)
    with pytest.raises(SplitPairError, match="foreign bottom configuration"):
        corner_split_datum(dalg, diagram_fin_algebra(dalg), 1)


def test_corner_coordinates_of_a_vector_outside_the_corner_raise():
    dalg = brauer(3)
    big = diagram_fin_algebra(dalg)
    datum = corner_split_datum(dalg, big, 1)
    with pytest.raises(SplitPairError, match="vector outside the corner"):
        datum._alpha(big.unit)


def test_layer_idempotent_without_its_prefactor_raises(monkeypatch):
    """At delta = 2 the cup diagram squares to twice itself, so without
    the delta^-l prefactor the layer idempotent is not idempotent."""
    dalg = brauer(3)
    (cup,) = dalg.layer_idempotent(1)
    monkeypatch.setattr(dalg, "layer_idempotent", lambda l: {cup: Q.one})
    with pytest.raises(SplitPairError, match="element is not idempotent"):
        corner_split_datum(dalg, diagram_fin_algebra(dalg), 1)


def test_restriction_through_a_section_that_leaves_N_e_raises():
    """N * e is D * e for the regular module; a swap moving the cup of e
    takes it elsewhere."""
    dalg = brauer(3)
    big = diagram_fin_algebra(dalg)
    datum = corner_split_datum(dalg, big, 1)
    (swap,) = dalg.swap(1)
    datum.section_big = [big.basis_vec(big.key_index[swap])] * datum.W.dim
    with pytest.raises(SplitPairError, match="restriction escaped N\\*e"):
        datum.restrict(regular_module(big))
