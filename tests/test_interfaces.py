"""Diagram text format, pullbacks and extensions, cyclotomic scalars."""

from fractions import Fraction

from diagalg.algebra_kernel import (
    hom_space,
    regular_module,
    direct_sum,
    ext1,
)
from diagalg.diagrams import (
    DiagramAlgebra,
    DiagramKind,
    diagram_fin_algebra,
    format_diagram,
)
from diagalg.fields import CyclotomicField, RationalField
from diagalg.input_algebra import cyclic_group_algebra, trivial_input_algebra, wreath_product
from diagalg.split_pair import corner_split_datum, wreath_sign_module, wreath_trivial_module
from ideal_oracle import pullback_module

Q = RationalField()


def test_diagram_text_is_injective():
    # the text form names each basis diagram once: Brauer D_3 over the group
    # algebra of Z/2, and the walled Brauer algebra B_{2,2}
    for dalg, suffix in (
            (DiagramAlgebra(DiagramKind.abrauer(3), cyclic_group_algebra(Q, 2, [Q.one] * 2)),
             "@ abrauer(3)"),
            (DiagramAlgebra(DiagramKind.walled(2, 2), trivial_input_algebra(Q, Fraction(2))),
             "@ walled(2,2)")):
        texts = [format_diagram(dalg, d) for d in dalg.basis()]
        assert len(texts) == dalg.dimension()
        assert len(set(texts)) == len(texts)
        assert all(t.endswith(suffix) for t in texts)


# -- remaining worked examples for pullbacks and extensions ------------------------

def test_pullback_along_split_quotient_kills_cup():
    A = trivial_input_algebra(Q, Fraction(3))
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    big = diagram_fin_algebra(dalg)
    sq = corner_split_datum(dalg, big, 0)
    M = wreath_trivial_module(sq.W)
    P = pullback_module(M, sq.alpha_rows, big)
    e_vec = {big.key_index[d]: c for d, c in dalg.cup_generator(1).items()}
    assert P.action_rows(e_vec) == [{}]      # the cup acts by zero


def test_pullback_preserves_hom_dimensions():
    A = trivial_input_algebra(Q, Fraction(3))
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    big = diagram_fin_algebra(dalg)
    sq = corner_split_datum(dalg, big, 0)
    W = sq.W
    mods = [regular_module(W), wreath_trivial_module(W), wreath_sign_module(W)]
    for M in mods:
        for N in mods:
            pulled = len(hom_space(pullback_module(M, sq.alpha_rows, big, check=False),
                                   pullback_module(N, sq.alpha_rows, big, check=False)))
            assert pulled == len(hom_space(M, N))


def test_ext1_additive_in_direct_sums():
    from diagalg.fields import PrimeField
    F5 = PrimeField(5)
    W = wreath_product(cyclic_group_algebra(F5, 5, [F5.one] * 5), 1)
    triv = wreath_trivial_module(W)
    single = ext1(triv, triv)
    assert ext1(direct_sum(triv, triv), triv) == 2 * single
    assert ext1(triv, direct_sum(triv, triv)) == 2 * single


def test_diagram_algebra_over_cyclotomic_field():
    C3 = CyclotomicField(3)
    z = C3.generator()
    A = cyclic_group_algebra(C3, 3, [C3.from_int(2), z, z])
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    e = dalg.cup_generator(1)
    h = dalg.label_generator(1, 1)
    prod = dalg.mul(dalg.mul(e, h), e)
    from diagalg.linalg import vec_scale
    assert prod == vec_scale(C3, z, e)
