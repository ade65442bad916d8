"""The corner read through the small algebra, against the corner algebra of
``corner_oracle.py``; the corner isomorphism checked on generators, against
the check on every pair; and the oracle's own tests.

``CornerSplitDatum`` keeps no corner algebra: alpha reads a corner element
directly, the corner's coordinates are the small algebra's through mu, and
the kernel of alpha is mu of the small algebra's first layer ideal.  It
keeps no isomorphism S*e = W either: the unit map reads the class of e,
which must be theta^{-1}(1) for the oracle's theta: s -> alpha(lift(s)*e)
on its own S*e.  On every configuration each of these must agree with the
old route through the echelon coordinates of the corner.
"""

import copy
from fractions import Fraction

import pytest

from corner_oracle import corner_algebra, corner_iso_pair_witness, invert_rows
from diagalg.algebra_kernel import AlgebraError, check_algebra_map, regular_module
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import RationalField
from diagalg.inflation import layer_ideal_indices
from diagalg.input_algebra import (
    input_algebra_from_json,
    trivial_input_algebra,
    wreath_product,
)
from diagalg.linalg import (
    Echelon,
    kernel_basis,
    transpose_rows,
    vec_scale,
    vec_times_rows,
)
from diagalg.split_pair import corner_split_datum
from test_algebra_kernel import off_generators
from test_input_algebra import DUAL_NUMBERS
from transfer_oracle import layer_lift

Q = RationalField()

# arguments of ConfigCache.datum: family, params, l, delta, field, deltas
CONFIGS = {
    "D3-l0": ("abrauer", 3, 0),
    "D3-l1": ("abrauer", 3, 1),
    "D4-delta2-l1": ("abrauer", 4, 1, "2"),
    "D4-delta2-l2": ("abrauer", 4, 2, "2"),
    "walled22-delta2-l1": ("walled", (2, 2), 1, "2"),
    "walled32-delta0-l1-F5": ("walled", (3, 2), 1, "0", "fp:5"),
    "cyclotomic-n3-r2-l1": ("abrauer", 3, 1, "1", "q", ("1", "1")),
    "D3-delta0-l1": ("abrauer", 3, 1, "0"),
    "dual-D3-l1": 3,
}


def _datum(cache, config):
    if isinstance(config, tuple):
        return cache.datum(*config)
    dalg = DiagramAlgebra(DiagramKind.abrauer(config), input_algebra_from_json(DUAL_NUMBERS, Q))
    return corner_split_datum(dalg, diagram_fin_algebra(dalg), 1)


def _same_span(F, u, v):
    ech = Echelon(F).insert_all(u)
    return ech.dim == Echelon(F).insert_all(v).dim and all(ech.contains(x) for x in v)


@pytest.mark.parametrize("name", CONFIGS)
def test_corner_reading_matches_the_corner_algebra(cache, name):
    datum = _datum(cache, CONFIGS[name])
    F, big, W = datum.field, datum.big, datum.W
    corner = corner_algebra(big, datum.idem_vec)

    # (a) the corner's dimension
    assert datum.corner_dim == corner.algebra.dim

    # (b) alpha read on the corner's echelon basis is an algebra map
    alpha_rows = [datum._alpha(row) for row in corner.rows]
    assert check_algebra_map(corner.algebra, W, alpha_rows) is None

    # (c) mu of J_1 of the small algebra spans the kernel of alpha
    ker = kernel_basis(F, transpose_rows(alpha_rows, W.dim), corner.algebra.dim)
    ker_big = [vec_times_rows(F, k, corner.rows) for k in ker]
    first_layer = layer_ideal_indices(datum.small_dalg, datum.small_big, 1)
    assert _same_span(F, ker_big, [datum.mu_rows[i] for i in first_layer])

    # (d) theta inverted on S*e, at the unit, is the class of e
    lift = layer_lift(datum)
    Se_rows = Echelon(F).insert_all(datum._to_S(big.mul(lift({s: F.one}), datum.idem_vec))
                                    for s in range(datum.n_l * W.dim)).basis_rows()

    def theta(s_vec):
        lifted = big.mul(lift(s_vec), datum.idem_vec)
        return vec_times_rows(F, corner.ech.coords(lifted), alpha_rows)

    theta_inv = invert_rows(F, [theta(r) for r in Se_rows])
    assert len(Se_rows) == W.dim and theta_inv is not None
    unit = vec_times_rows(F, vec_times_rows(F, W.unit, theta_inv), Se_rows)
    assert unit == datum._to_S(datum.idem_vec)
    # and the unit map is the one through it: on a commutative W another
    # wreath key can give a module isomorphism too, so the samples may miss it
    M = regular_module(W)
    eta, ind, res = datum.natural_unit_iso(M)
    slots = datum._left_coords(unit)
    assert eta.rows == [res.subspace_coords(ind.act(datum._ind_row(M, i, slots), datum.idem_vec))
                        for i in range(M.dim)]

    # (e) the section, through corner coordinates and back
    small = datum.small_dalg
    empty = small.enumerate_partials(0)[0]
    for w, key in enumerate(W.basis_keys):
        mu_w = datum.mu_rows[datum.small_big.key_index[small.layer_assemble_key(empty, empty, key)]]
        assert datum.section_big[w] == vec_times_rows(F, corner.ech.coords(mu_w), corner.rows)


@pytest.mark.parametrize("name", CONFIGS)
def test_corner_iso_on_generators_matches_every_pair(cache, name):
    """The generator-form check and the dim^2 comparison agree: both pass on
    every configuration, and both fail once mu of a basis element that is
    neither the unit nor a generator is scaled, where there is one."""
    datum = _datum(cache, CONFIGS[name])
    assert datum.verify_corner_iso()["ok"]
    assert corner_iso_pair_witness(datum) is None
    off = off_generators(datum.small_big)
    if not off:
        return
    x = off[-1]
    tampered = copy.copy(datum)
    tampered.mu_rows = list(datum.mu_rows)
    tampered.mu_rows[x] = vec_scale(datum.field, datum.field.from_int(2), datum.mu_rows[x])
    report = tampered.verify_corner_iso()
    assert not report["ok"]
    assert [f["check"] for f in report["failures"]] == ["multiplicative"]
    assert corner_iso_pair_witness(tampered) is not None


# -- the oracle ------------------------------------------------------------------

def brauer_alg(n, delta="1"):
    dalg = DiagramAlgebra(DiagramKind.abrauer(n), trivial_input_algebra(Q, Q.parse(delta)))
    return dalg, diagram_fin_algebra(dalg)


def test_corner_of_unit_is_whole_algebra():
    _, alg = brauer_alg(2, "1")
    corner = corner_algebra(alg, alg.unit)
    assert corner.algebra.dim == alg.dim
    # a corner carries no involution, so both involution checks refuse it
    for check in (corner.algebra.check_involution_square,
                  corner.algebra.check_involution_antihom):
        with pytest.raises(AlgebraError):
            check()


def test_corner_of_scaled_cup_is_one_dimensional():
    dalg, alg = brauer_alg(2, "5")
    e = vec_scale(Q, Fraction("1/5"), dalg.cup_generator(1))
    e_vec = {alg.key_index[d]: c for d, c in e.items()}
    corner = corner_algebra(alg, e_vec)
    assert corner.algebra.dim == 1
    assert corner.algebra.check_unital() is None


def test_corner_of_cup_in_d4_delta_one():
    dalg, alg = brauer_alg(4, "1")
    e_vec = {alg.key_index[d]: c for d, c in dalg.cup_generator(3).items()}
    corner = corner_algebra(alg, e_vec)
    assert corner.algebra.dim == 3   # isomorphic to the 2-strand algebra
    assert corner.algebra.check_associative() is None


def test_corner_requires_idempotent():
    dalg, alg = brauer_alg(2, "5")
    e_vec = {alg.key_index[d]: c for d, c in dalg.cup_generator(1).items()}
    with pytest.raises(AlgebraError):
        corner_algebra(alg, e_vec)


def test_corner_product_outside_the_corner_raises():
    """e = (1 + s)/2 in the group algebra of S_2 spans its own corner; once
    every product reads 1, e * e = 1 leaves it."""
    W = wreath_product(trivial_input_algebra(Q, Q.one), 2)
    half = Q.parse("1/2")
    corner = corner_algebra(W, {0: half, 1: half})
    assert corner.algebra.dim == 1
    W._cache.clear()
    W.pair_mul = lambda i, j: {0: Q.one}
    with pytest.raises(AlgebraError, match="product escaped the corner"):
        corner.algebra.pair_mul(0, 0)
