"""Exhaustive structural invariants at the largest desk-scale parameters.

These run every check exhaustively: the involution over all basis pairs,
associativity by Light's test over all basis pairs and every generator;
the quicker per-module spot checks live next to each module's own tests.
"""

from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import RationalField
from diagalg.input_algebra import cyclic_group_algebra, wreath_product

Q = RationalField()


def test_wreath_m3_dim2_associative_unital_involutive():
    A = cyclic_group_algebra(Q, 2, [Q.one, Q.zero])
    W = wreath_product(A, 3)
    assert W.dim == 48
    assert W.check_unital() is None
    assert W.check_associative() is None
    assert W.check_involution_square() is None
    assert W.check_involution_antihom() is None


def test_three_strand_labeled_diagram_algebra_associative():
    A = cyclic_group_algebra(Q, 2, [Q.one, Q.one])
    big = diagram_fin_algebra(DiagramAlgebra(DiagramKind.abrauer(3), A))
    assert big.dim == 120
    assert big.check_unital() is None
    assert big.check_associative() is None
