"""Serialization surfaces: diagram text format, module JSON, scalar strings."""

from fractions import Fraction

import pytest

from diagalg.algebra_kernel import (
    hom_space,
    module_from_json,
    module_to_json,
    pullback_module,
    regular_module,
    direct_sum,
    ext1,
)
from diagalg.diagrams import (
    DiagramAlgebra,
    DiagramError,
    DiagramKind,
    diagram_fin_algebra,
    format_diagram,
    parse_diagram,
)
from diagalg.fields import CyclotomicField, RationalField
from diagalg.input_algebra import cyclic_group_algebra, trivial_input_algebra, wreath_product
from diagalg.split_pair import split_quotient, wreath_sign_module, wreath_trivial_module

Q = RationalField()


def test_diagram_text_roundtrip():
    A = cyclic_group_algebra(Q, 3, [Fraction(1)] * 3)
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    for d in dalg.basis():
        text = format_diagram(dalg, d)
        assert text.endswith("@ abrauer(2)")
        assert parse_diagram(dalg, text) == d


def test_diagram_text_walled_and_direction_flag():
    A = trivial_input_algebra(Q, Fraction(2))
    dalg = DiagramAlgebra(DiagramKind.walled(2, 1), A)
    (d, _), = dalg.cup_generator(2, 3).items()
    text = format_diagram(dalg, d)
    assert "@ walled(2,1)" in text
    assert parse_diagram(dalg, text) == d
    # reversed orientation with the trivial involution parses to the same edge
    reversed_text = text.replace("(t2,t3,h^0,+)", "(t3,t2,h^0,-)")
    assert parse_diagram(dalg, reversed_text) == d


def test_diagram_text_rejects_wrong_kind():
    A = trivial_input_algebra(Q, Fraction(1))
    d2 = DiagramAlgebra(DiagramKind.abrauer(2), A)
    d3 = DiagramAlgebra(DiagramKind.abrauer(3), A)
    text = format_diagram(d2, d2.basis()[0])
    with pytest.raises(DiagramError):
        parse_diagram(d3, text)


def test_module_json_roundtrip():
    W = wreath_product(trivial_input_algebra(Q, Q.one), 2)
    M = regular_module(W)
    obj = module_to_json(M)
    assert obj["dim"] == 2
    back = module_from_json(obj, W)
    assert back.dim == M.dim
    assert back.action == M.action


# -- remaining worked examples for pullbacks and extensions ------------------------

def test_pullback_along_split_quotient_kills_cup():
    A = trivial_input_algebra(Q, Fraction(3))
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    big = diagram_fin_algebra(dalg)
    sq = split_quotient(dalg, big)
    M = wreath_trivial_module(sq.small)
    P = pullback_module(M, sq.proj_rows, big)
    e_vec = {big.key_index[d]: c for d, c in dalg.cup_generator(1).items()}
    assert P.action_rows(e_vec) == [{}]      # the cup acts by zero


def test_pullback_preserves_hom_dimensions():
    A = trivial_input_algebra(Q, Fraction(3))
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    big = diagram_fin_algebra(dalg)
    sq = split_quotient(dalg, big)
    W = sq.small
    mods = [regular_module(W), wreath_trivial_module(W), wreath_sign_module(W)]
    for M in mods:
        for N in mods:
            pulled = len(hom_space(pullback_module(M, sq.proj_rows, big, check=False),
                                   pullback_module(N, sq.proj_rows, big, check=False)))
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
