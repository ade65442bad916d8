import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagalg.diagrams import (Diagram, DiagramAlgebra, DiagramError, DiagramKind,
                              diagram_fin_algebra)
from diagalg.fields import PrimeField, RationalField, make_field
from diagalg.input_algebra import (cyclic_group_algebra, input_algebra_from_json,
                                   trivial_input_algebra)
from diagalg.linalg import vec_iadd, vec_scale

import idempotent_oracle
from diagram_oracle import oracle_product
from test_input_algebra import DUAL_NUMBERS, SIGNED

Q = RationalField()


def fr(c):
    return Fraction(c)


def brauer(n, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    return DiagramAlgebra(DiagramKind.abrauer(n), A)


def cyclo(n, r, deltas, field=Q):
    A = cyclic_group_algebra(field, r, [field.parse(d) for d in deltas])
    return DiagramAlgebra(DiagramKind.abrauer(n), A)


def walled(r, t, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    return DiagramAlgebra(DiagramKind.walled(r, t), A)


# -- enumeration ------------------------------------------------------------

def test_basis_counts_match_closed_forms():
    for dalg, dim in ((brauer(0), 1), (brauer(2), 3), (brauer(3), 15),   # (2n-1)!!
                      (brauer(4), 105), (walled(1, 1), 2), (walled(2, 2), 24),  # (r+t)!
                      (cyclo(1, 3, ["1", "1", "1"]), 3),              # r^n (2n-1)!!
                      (cyclo(2, 2, ["1", "1"]), 12)):
        assert len(dalg.basis()) == dalg.dimension() == dim


def test_partial_counts():
    # n! / (l! (n-2l)! 2^l) times (dim A)^l
    assert len(brauer(4).enumerate_partials(1)) == 6
    assert len(brauer(4).enumerate_partials(2)) == 3
    assert len(cyclo(4, 2, ["1", "1"]).enumerate_partials(1)) == 12
    # walled: binom(r,l) binom(t,l) l!
    assert len(walled(2, 2).enumerate_partials(1)) == 4
    assert len(walled(2, 2).enumerate_partials(2)) == 2
    assert len(walled(3, 2).enumerate_partials(2)) == 6


def test_walled_basis_is_wall_legal():
    dalg = walled(2, 1)
    for d in dalg.basis():
        dalg.check_diagram(d)


# -- generators --------------------------------------------------------------

def test_swap_diagram_picture():
    dalg = brauer(3)
    (d, c), = dalg.swap(2).items()
    assert c == Q.one
    assert d == Diagram(((0, 3, 0), (1, 5, 0), (2, 4, 0)))


def test_label_generator_picture():
    dalg = cyclo(2, 3, ["1", "1", "1"])
    (d, c), = dalg.label_generator(1, 2).items()
    assert d == Diagram(((0, 2, 2), (1, 3, 0)))


def test_walled_cup_generator_picture():
    dalg = walled(2, 1)
    (d, c), = dalg.cup_generator(2, 3).items()
    assert d == Diagram(((0, 3, 0), (1, 2, 0), (4, 5, 0)))


def test_generator_range_errors():
    with pytest.raises(DiagramError):
        brauer(3).swap(3)
    with pytest.raises(DiagramError):
        walled(2, 2).swap(2)          # would cross the wall
    with pytest.raises(DiagramError):
        walled(2, 2).cup_generator(1, 2)  # both left of the wall


# -- multiplication -----------------------------------------------------------

def test_swap_squares_to_identity():
    dalg = brauer(2)
    s = dalg.swap(1)
    assert dalg.mul(s, s) == dalg.identity()


def test_cup_squares_to_delta_cup():
    dalg = brauer(2, delta="5")
    e = dalg.cup_generator(1)
    assert dalg.mul(e, e) == vec_scale(Q, fr(5), e)


def test_cup_label_cup_contracts_to_trace():
    dalg = cyclo(2, 3, ["9", "4", "4"])
    e = dalg.cup_generator(1)
    for m, want in ((0, fr(9)), (1, fr(4)), (2, fr(4))):
        h = dalg.label_generator(1, m)
        prod = dalg.mul(dalg.mul(e, h), e)
        assert prod == vec_scale(Q, want, e)


def test_walled_cup_squares_to_delta_cup():
    dalg = walled(1, 1, delta="3")
    e = dalg.cup_generator(1, 2)
    assert dalg.mul(e, e) == vec_scale(Q, fr(3), e)


def test_product_of_wall_legal_is_wall_legal():
    dalg = walled(2, 2)
    rng = random.Random(0)
    basis = dalg.basis()
    for _ in range(50):
        d1, d2 = rng.choice(basis), rng.choice(basis)
        for d in dalg.mul_diagrams(d1, d2):
            dalg.check_diagram(d)


def test_filtration_horizontal_count_grows():
    dalg = brauer(3)
    basis = dalg.basis()
    for d1 in basis:
        for d2 in basis:
            low = max(dalg.layer(d1), dalg.layer(d2))
            for d in dalg.mul_diagrams(d1, d2):
                assert dalg.layer(d) >= low


@pytest.mark.parametrize("make", [
    lambda: brauer(2, delta="3"),
    lambda: brauer(3, delta="0"),
    lambda: cyclo(2, 2, ["2", "1"]),
    lambda: walled(2, 1, delta="2"),
])
def test_associativity_exhaustive_small(make):
    dalg = make()
    basis = dalg.basis()
    for d1 in basis:
        for d2 in basis:
            for d3 in basis:
                x = {d1: Q.one}
                lhs = dalg.mul(dalg.mul(x, {d2: Q.one}), {d3: Q.one})
                rhs = dalg.mul(x, dalg.mul({d2: Q.one}, {d3: Q.one}))
                assert lhs == rhs


def test_associativity_sampled_n4():
    dalg = brauer(4, delta="2")
    basis = dalg.basis()
    rng = random.Random(0)
    for _ in range(300):
        d1, d2, d3 = (rng.choice(basis) for _ in range(3))
        lhs = dalg.mul(dalg.mul({d1: Q.one}, {d2: Q.one}), {d3: Q.one})
        rhs = dalg.mul({d1: Q.one}, dalg.mul({d2: Q.one}, {d3: Q.one}))
        assert lhs == rhs


F5 = PrimeField(5)


@pytest.mark.parametrize("make", [
    lambda: cyclo(3, 2, ["2", "0"]),
    lambda: cyclo(3, 2, ["0", "3"], field=F5),
    lambda: cyclo(3, 3, ["0", "1", "1"]),
    lambda: cyclo(3, 3, ["2", "0", "0"], field=F5),
    lambda: brauer(4, delta="2"),
    lambda: brauer(4, delta="0"),
    lambda: walled(2, 2, delta="3"),
    lambda: DiagramAlgebra(DiagramKind.abrauer(3), input_algebra_from_json(SIGNED, Q)),
], ids=["D3-Z2-Q", "D3-Z2-F5", "D3-Z3-Q", "D3-Z3-F5", "D4-delta2", "D4-delta0", "walled22",
        "D3-signed"])
def test_label_table_matches_generic_reduction(make):
    """Every product by table lookups equals the independent oracle, which
    reduces labels through the structure constants."""
    dalg = make()
    assert dalg.A.label_table is not None
    assert_products_match_oracle(dalg)


def assert_products_match_oracle(dalg, pairs=None):
    basis = dalg.basis()
    if pairs is None:
        pairs = itertools.product(range(len(basis)), repeat=2)
    for i, j in pairs:
        d1, d2 = basis[i], basis[j]
        assert dalg.mul_diagrams(d1, d2) == oracle_product(dalg, d1, d2), (d1, d2)


@pytest.mark.parametrize("make", [
    lambda: cyclo(3, 2, ["1", "1"]),
    lambda: walled(2, 2),
    lambda: brauer(3, delta="0"),
    lambda: brauer(4, delta="0"),
    lambda: brauer(4, delta="2"),
    lambda: cyclo(3, 3, ["0", "1", "1"]),
], ids=["D3-Z2", "walled22", "D3-delta0", "D4-delta0", "D4-delta2", "D3-Z3-zero-trace"])
def test_product_kernel_matches_oracle(make):
    """The walk's edges, coefficient and top-row count on every pair: the
    oracle's product is Diagram(edges) times the coefficient (nothing when
    it is zero), and the count is the layer of that diagram.  On D_4 and on
    D_3 over Z/3 some products keep closed loops after every through-path
    has matched, so a walk that stopped there would miss their traces."""
    dalg = make()
    F = dalg.field
    zeros = 0
    for d1, d2 in itertools.product(dalg.basis(), repeat=2):
        edges, c, top = dalg.product(d1, d2)
        want = oracle_product(dalg, d1, d2)
        if F.is_zero(c):
            zeros += 1
            assert want == {}, (d1, d2)
        else:
            assert want == {Diagram(edges): c}, (d1, d2)
        assert top == dalg.layer(Diagram(edges))
    # delta = 0 kills every product that closes a loop
    assert (zeros > 0) == F.is_zero(dalg.A.delta())


@pytest.mark.parametrize("make", [
    lambda: DiagramAlgebra(DiagramKind.abrauer(0), input_algebra_from_json(DUAL_NUMBERS, Q)),
    lambda: DiagramAlgebra(DiagramKind.abrauer(1), input_algebra_from_json(DUAL_NUMBERS, Q)),
    lambda: DiagramAlgebra(DiagramKind.abrauer(2), input_algebra_from_json(DUAL_NUMBERS, Q)),
    lambda: walled(3, 0, delta="2"),
    lambda: brauer(0, delta="2"),
], ids=["dual-n0", "dual-n1", "dual-n2", "walled30", "D0"])
def test_products_match_oracle_on_edge_cases(make):
    """The non-monomial dual numbers, walled(3,0) (no horizontal edges) and
    n = 0 (no vertices) go through the same walk."""
    assert_products_match_oracle(make())


FIELDS = {"q": Q, "fp:5": F5, "cyc:3": make_field("cyc:3")}


def trace_value(spec, a, b):
    return FIELDS[spec].parse(f"[{a},{b}]" if spec == "cyc:3" else str(a))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(spec=st.sampled_from(sorted(FIELDS)), n=st.integers(0, 3), r=st.integers(1, 3),
       values=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=2),
       data=st.data())
def test_products_match_oracle_for_random_cyclic_traces(spec, n, r, values, data):
    """D_n over Z/r with *-invariant trace values, zero among the choices."""
    deltas = [trace_value(spec, *values[min(m, r - m)]) for m in range(r)]
    dalg = DiagramAlgebra(DiagramKind.abrauer(n),
                          cyclic_group_algebra(FIELDS[spec], r, deltas))
    indices = st.integers(0, dalg.dimension() - 1)
    pairs = data.draw(st.lists(st.tuples(indices, indices), min_size=1, max_size=25))
    assert_products_match_oracle(dalg, pairs)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_non_monomial_input_takes_generic_path(n):
    A = input_algebra_from_json(DUAL_NUMBERS, Q)
    assert A.label_table is None
    alg = diagram_fin_algebra(DiagramAlgebra(DiagramKind.abrauer(n), A))
    assert alg.check_unital() is None
    assert alg.check_associative() is None


def test_negative_columns_refused():
    with pytest.raises(DiagramError):
        brauer(-1)


# -- involution ---------------------------------------------------------------

def involution(dalg, x):
    """The diagram involution extended linearly to an element."""
    out = {}
    for d, c in x.items():
        vec_iadd(dalg.field, out, c, dalg.involution_key(d))
    return out

def test_involution_fixes_swap():
    dalg = brauer(2)
    s = dalg.swap(1)
    assert involution(dalg, s) == s


def test_involution_inverts_cyclic_label():
    dalg = cyclo(1, 3, ["1", "1", "1"])
    h1 = dalg.label_generator(1, 1)
    h2 = dalg.label_generator(1, 2)
    assert involution(dalg, h1) == h2


def test_involution_is_involutive_on_basis():
    for dalg in (brauer(3), cyclo(2, 3, ["1", "1", "1"]), walled(2, 1)):
        for d in dalg.basis():
            assert involution(dalg, involution(dalg, {d: Q.one})) == {d: Q.one}


def test_involution_antihomomorphism_random():
    dalg = cyclo(2, 3, ["5", "2", "2"])
    basis = dalg.basis()
    rng = random.Random(1)
    for _ in range(60):
        d1, d2 = rng.choice(basis), rng.choice(basis)
        lhs = involution(dalg, dalg.mul({d1: Q.one}, {d2: Q.one}))
        rhs = dalg.mul(involution(dalg, {d2: Q.one}), involution(dalg, {d1: Q.one}))
        assert lhs == rhs


# -- idempotents ----------------------------------------------------------------

# Q[Z/2] on its primitive idempotents, traces 1 and -1: delta = 0, and the
# unit e1 + e2 is no basis element, so unit labels expand into a sum
IDEMPOTENT_BASIS = {
    "dim": 2,
    "basis": ["e1", "e2"],
    "unit": ["1", "1"],
    "structconsts": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
    "involution": [["1", "0"], ["0", "1"]],
    "trace": ["1", "-1"],
}


def idempotent_cases():
    yield brauer(2, delta="2"), [0, 1]
    yield brauer(3, delta="-1"), [0, 1]
    yield brauer(4, delta="3"), [0, 1, 2]
    yield brauer(3, delta="0"), [0, 1]
    yield brauer(5, delta="0"), [0, 1, 2]
    yield cyclo(2, 2, ["3", "1"]), [0, 1]
    yield cyclo(3, 2, ["0", "0"]), [0, 1]
    yield walled(2, 2, delta="4"), [0, 1, 2]
    yield walled(2, 1, delta="0"), [0, 1]
    yield walled(1, 2, delta="0"), [0, 1]
    yield walled(3, 3, delta="0"), [0, 1, 2]
    yield walled(2, 2, delta="0"), [0, 1]
    for n in (3, 5):
        A = input_algebra_from_json(IDEMPOTENT_BASIS, Q)
        yield DiagramAlgebra(DiagramKind.abrauer(n), A), range(n // 2 + 1)


def test_layer_idempotents_square_to_themselves():
    for dalg, layers in idempotent_cases():
        for l in layers:
            e = dalg.layer_idempotent(l)
            assert dalg.mul(e, e) == e, (dalg.kind, l)


def test_layer_zero_is_identity():
    assert brauer(3).layer_idempotent(0) == brauer(3).identity()


def test_delta_zero_even_n_refused():
    with pytest.raises(DiagramError):
        brauer(4, delta="0").layer_idempotent(1)


def test_delta_zero_walled_needs_free_column():
    with pytest.raises(DiagramError):
        walled(1, 1, delta="0").layer_idempotent(1)


def test_prefactor_example():
    dalg = brauer(2, delta="2")
    e = dalg.layer_idempotent(1)
    (d, c), = e.items()
    assert c == Fraction(1, 2)
    assert d == Diagram(((0, 1, 0), (2, 3, 0)))


def _idempotent_grid():
    """Brauer n <= 7 and walled r, t <= 4 at delta in {0, 1, 2, -1}, and
    Brauer n <= 5 over Z/2 with traces (0, 1), over Q, F_2, F_3 and F_5."""
    for field in (Q, PrimeField(2), PrimeField(3), PrimeField(5)):
        for delta in ("0", "1", "2", "-1"):
            yield from (brauer(n, delta, field) for n in range(8))
            yield from (walled(r, t, delta, field) for r in range(5) for t in range(5))
        yield from (cyclo(n, 2, ["0", "1"], field) for n in range(6))


def _outcome(build, dalg, l):
    try:
        return build(dalg, l)
    except DiagramError as exc:
        return str(exc)


def test_layer_idempotent_matches_the_hand_built_oracle():
    """One cup-diagram builder against cups and strands placed by hand, the
    delta = 0 slanted strand included: the same element or the same refusal
    at every layer up to one past the bound."""
    compared = 0
    for dalg in _idempotent_grid():
        for l in range(dalg.layer_bound() + 2):
            got = _outcome(DiagramAlgebra.layer_idempotent, dalg, l)
            assert got == _outcome(idempotent_oracle.layer_idempotent, dalg, l), (dalg.kind, l)
            compared += 1
    assert compared > 1000


# -- layer factorization ----------------------------------------------------------

def test_factorize_roundtrip_exhaustive():
    for dalg in (brauer(3), cyclo(2, 2, ["1", "1"]), walled(2, 1)):
        for d in dalg.basis():
            l = dalg.layer(d)
            top, bottom, key = dalg.layer_factorize(d)
            assert len(top.edges) == len(bottom.edges) == l
            assert dalg.layer_assemble_key(top, bottom, key) == d


def test_factorize_of_identity_is_identity_perm():
    dalg = brauer(3)
    (d, _), = dalg.identity().items()
    top, bottom, (labels, perm) = dalg.layer_factorize(d)
    assert top.edges == () and bottom.edges == ()
    assert perm == (0, 1, 2)
    assert labels == (0, 0, 0)


def test_layer_basis_partition():
    dalg = brauer(4)
    total = sum(len([d for d in dalg.basis() if dalg.layer(d) == l])
                for l in range(dalg.layer_bound() + 1))
    assert total == len(dalg.basis())


def test_mixed_field():
    F5 = PrimeField(5)
    dalg = brauer(2, delta="2", field=F5)
    e = dalg.cup_generator(1)
    assert dalg.mul(e, e) == vec_scale(F5, F5.from_int(2), e)
