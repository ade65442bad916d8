from fractions import Fraction

import pytest

from diagalg.algebra_kernel import generated_subalgebra_dim, regular_module
from diagalg.diagrams import DiagramAlgebra, DiagramKind
from diagalg.fields import PrimeField, RationalField
from diagalg.inflation import small_algebra
from diagalg.input_algebra import (
    InputAlgebra,
    InputAlgebraError,
    cyclic_group_algebra,
    input_algebra_from_json,
    invert_perm,
    trivial_input_algebra,
    validate_input_algebra,
    wreath_product,
)

from wreath_oracle import compose_perms, oracle_wreath_involution, oracle_wreath_product

Q = RationalField()


def fr(c):
    return Fraction(c)


def test_trivial_algebra_has_delta_trace():
    A = trivial_input_algebra(Q, fr(7))
    assert A.dim == 1
    assert A.delta() == fr(7)


def test_cyclic_r2():
    A = cyclic_group_algebra(Q, 2, [fr(3), fr(1)])
    assert A.dim == 2
    assert A.mul_basis(1, 1) == {0: Q.one}          # (h^1)^2 = h^0
    assert A.trace[1] == fr(1)
    assert A.involution_rows[1] == {1: Q.one}        # h -> h^{2-1}


def test_cyclic_r3_star_invariance_enforced():
    cyclic_group_algebra(Q, 3, [fr(2), fr(1), fr(1)])  # delta_1 = delta_2: fine
    with pytest.raises(InputAlgebraError):
        cyclic_group_algebra(Q, 3, [fr(2), fr(1), fr(5)])


def test_validation_passes_on_cyclic():
    A = cyclic_group_algebra(Q, 3, [fr(2), fr(1), fr(1)])
    assert all(c["ok"] for c in validate_input_algebra(A))


def test_validation_catches_broken_associativity():
    A = cyclic_group_algebra(Q, 3, [fr(1), fr(1), fr(1)])
    A.structconsts[(1, 1)] = {1: Q.one}  # tamper: h*h = h, then (hh)h^2 != h(hh^2)
    report = {c["name"]: c for c in validate_input_algebra(A)}
    bad = report["associative"]
    assert not bad["ok"] and bad["witness"] is not None


def test_validation_catches_nontracial_trace():
    # dim-2 algebra with basis 1, x and x^2 = 0, but a fake non-symmetric product
    struct = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {}, (1, 1): {}}
    invo = [{0: Q.one}, {1: Q.one}]
    A = InputAlgebra(Q, ["1", "x"], {0: Q.one}, struct, invo, [fr(1), fr(1)])
    report = {c["name"]: c for c in validate_input_algebra(A)}
    assert not report["trace is tracial"]["ok"]


def test_wreath_dims():
    assert wreath_product(trivial_input_algebra(Q, fr(1)), 3).dim == 6
    A2 = cyclic_group_algebra(Q, 2, [fr(1), fr(0)])
    assert wreath_product(A2, 2).dim == 8
    assert wreath_product(A2, 0).dim == 1


def test_wreath_product_rule():
    A = cyclic_group_algebra(Q, 2, [fr(1), fr(0)])
    W = wreath_product(A, 2)
    i = W.key_index[((1, 0), (1, 0))]   # (h, 1) decorating the transposition
    j = W.key_index[((1, 0), (0, 1))]   # (h, 1) on the identity
    # (h,1 | s) * (h,1 | id): labels (h*1, 1*h) = (h, h), perm s
    prod = W.mul_basis(i, j)
    assert prod == {W.key_index[((1, 1), (1, 0))]: Q.one}


def test_wreath_associative_and_unital_small():
    A = cyclic_group_algebra(Q, 2, [fr(1), fr(0)])
    for m in (0, 1, 2):
        W = wreath_product(A, m)
        assert W.check_associative() is None
        assert W.check_unital() is None
        assert W.check_involution_square() is None
        assert W.check_involution_antihom() is None


def test_wreath_involution_matches_formula():
    A = cyclic_group_algebra(Q, 3, [fr(2), fr(1), fr(1)])
    W = wreath_product(A, 2)
    key = ((1, 2), (1, 0))
    img = W.involve(W.basis_vec(W.key_index[key]))
    # (a, s)* = (s^{-1}(a*), s^{-1}); here s = s^{-1} = swap, a* = (h^2, h^1)
    assert img == {W.key_index[((1, 2), (1, 0))]: Q.one}


def test_walled_wreath_is_product_of_symmetric_groups():
    triv = trivial_input_algebra(Q, fr(1))
    W = wreath_product(triv, 4, wall=2)
    assert W.dim == 4  # 2! * 2!
    assert W.check_associative() is None


def test_wreath_generators_generate():
    A = cyclic_group_algebra(Q, 2, [fr(1), fr(0)])
    for m, wall in ((2, None), (3, None), (0, None)):
        W = wreath_product(A, m)
        assert generated_subalgebra_dim(W) == W.dim
    triv = trivial_input_algebra(Q, fr(1))
    W = wreath_product(triv, 4, wall=2)
    assert generated_subalgebra_dim(W) == W.dim
    # the layer wreath algebras of the README and benchmark configurations,
    # over which their sample, Specht and induced modules are built
    F5 = PrimeField(5)
    for field in (Q, F5):
        for kind, layers in ((DiagramKind.abrauer(3), (0, 1)),
                             (DiagramKind.abrauer(4), (0, 1, 2)),
                             (DiagramKind.walled(2, 2), (0, 1)),
                             (DiagramKind.walled(3, 2), (0, 1, 2)),
                             (DiagramKind.walled(2, 3), (0, 1, 2))):
            for delta in ("2", "0"):
                dalg = DiagramAlgebra(kind, trivial_input_algebra(field, field.parse(delta)))
                for l in layers:
                    W = small_algebra(dalg, l)
                    assert generated_subalgebra_dim(W) == W.dim, (W.name, delta, field)
        # the symmetric group algebras of the Specht modules
        for m in range(6):
            W = wreath_product(trivial_input_algebra(field, field.one), m)
            assert generated_subalgebra_dim(W) == W.dim


def test_wreath_regular_module_is_a_module():
    A = cyclic_group_algebra(Q, 2, [fr(1), fr(0)])
    W = wreath_product(A, 2)
    assert regular_module(W).check() is None


def test_perm_helpers():
    s, t = (1, 2, 0), (0, 2, 1)
    st = compose_perms(s, t)
    assert st == tuple(t[s[i]] for i in range(3))
    assert compose_perms(s, invert_perm(s)) == (0, 1, 2)


def test_input_algebra_from_json_roundtrip():
    obj = {
        "dim": 2,
        "basis": ["1", "g"],
        "unit": ["1", "0"],
        "structconsts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "involution": [["1", "0"], ["0", "1"]],
        "trace": ["3", "1"],
    }
    A = input_algebra_from_json(obj, Q)
    assert all(c["ok"] for c in validate_input_algebra(A))
    assert A.delta() == fr(3)


SIGNED = {
    # k[g]/(g^2 - 2) with g* = -g: monomial, with coefficients other than 1
    "dim": 2,
    "basis": ["1", "g"],
    "unit": ["1", "0"],
    "structconsts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "2"]],
    "involution": [["1", "0"], ["0", "-1"]],
    "trace": ["3", "0"],
}


DUAL_NUMBERS = {
    # k[x]/(x^2) with x* = x, tr(1) = 3, tr(x) = 0: x^2 = 0 is not monomial
    "dim": 2,
    "basis": ["1", "x"],
    "unit": ["1", "0"],
    "structconsts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    "involution": [["1", "0"], ["0", "1"]],
    "trace": ["3", "0"],
}


def test_wreath_label_table_matches_generic_reduction():
    """Wreath products by index and involutions, on the monomial table and
    on the word table, equal the oracle that multiplies slot labels through
    A.mul: the signed and dual-number algebras and Z/3 on m <= 3 strands,
    and the walled perm2(r, t) with r + t <= 4."""
    cases = []
    for algebra, monomial in ((input_algebra_from_json(SIGNED, Q), True),
                              (input_algebra_from_json(DUAL_NUMBERS, Q), False),
                              (cyclic_group_algebra(Q, 3, [fr(2), fr(1), fr(1)]), True)):
        assert (algebra.label_table is not None) == monomial
        assert all(c["ok"] for c in validate_input_algebra(algebra))
        cases += [(algebra, m, None) for m in range(4)]
    trivial = trivial_input_algebra(Q, fr(2))
    cases += [(trivial, r + t, r) for r in range(5) for t in range(5 - r)]
    for A, m, wall in cases:
        W = wreath_product(A, m, wall=wall)

        def vec(element):
            return {W.key_index[k]: c for k, c in element.items()}

        for i, x in enumerate(W.basis_keys):
            assert W.involution_rows[i] == vec(oracle_wreath_involution(A, x)), x
            for j, y in enumerate(W.basis_keys):
                assert W.pair_mul(i, j) == vec(oracle_wreath_product(A, x, y)), (x, y)
