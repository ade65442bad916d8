from fractions import Fraction
from math import factorial

import pytest

from diagalg import specht
from diagalg.algebra_kernel import AlgebraError, hom_space, regular_module
from diagalg.cli import run
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import PrimeField, RationalField
from diagalg.input_algebra import trivial_input_algebra, wreath_product
from diagalg.specht import (
    SpechtError,
    dominance_vanishing_experiment,
    dominates,
    hook_length_dim,
    outer_product,
    partitions,
    specht_module,
    table_with_ext,
    walled_cell_labels,
)
from diagalg.split_pair import corner_split_datum
from isomorphism import find_isomorphism
from specht_oracle import kronecker_outer_product, polytabloid_specht_module, standard_tableaux

Q = RationalField()


def sym_algebra(m, field=Q):
    return wreath_product(trivial_input_algebra(field, field.one), m)


# -- combinatorics ----------------------------------------------------------------

def test_partition_counts():
    for m, count in ((0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)):
        assert len(partitions(m)) == count


def test_dominance_examples():
    # strictly greater: one way only
    assert dominates((2,), (1, 1)) and not dominates((1, 1), (2,))
    assert dominates((3, 1, 1), (2, 2, 1)) and not dominates((2, 2, 1), (3, 1, 1))
    # equal: both ways
    assert dominates((2, 1), (2, 1))
    # incomparable: neither way
    assert not dominates((3, 1, 1, 1), (2, 2, 2)) and not dominates((2, 2, 2), (3, 1, 1, 1))
    with pytest.raises(SpechtError, match=r"sizes differ: \(2,\) vs \(1, 1, 1\)"):
        dominates((2,), (1, 1, 1))


def test_dominance_is_partial_order_up_to_six():
    for m in range(7):
        parts = partitions(m)
        for a in parts:
            assert dominates(a, a)
            for b in parts:
                if dominates(a, b) and dominates(b, a):
                    assert a == b
                for c in parts:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


def test_standard_tableaux_counts_match_hooks():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1)]:
        assert len(standard_tableaux(lam)) == hook_length_dim(lam)


# -- Specht modules ----------------------------------------------------------------

def test_one_row_is_trivial_module():
    W = sym_algebra(3)
    S = specht_module((3,), W=W)
    assert S.dim == 1
    for b in range(W.dim):
        assert S.action[b] == [{0: Q.one}]


def test_two_one_has_dimension_two():
    W = sym_algebra(3)
    S = specht_module((2, 1), W=W)
    assert S.dim == 2
    assert S.check() is None


def test_column_is_sign_module():
    W = sym_algebra(2)
    S = specht_module((1, 1), W=W)
    assert S.dim == 1
    swap_idx = W.key_index[((0, 0), (1, 0))]
    assert S.action[swap_idx] == [{0: Fraction(-1)}]


def test_specht_dims_match_hooks_up_to_five():
    for m in range(6):
        W = sym_algebra(m)
        for lam in partitions(m):
            S = specht_module(lam, W=W)
            assert S.dim == hook_length_dim(lam), lam


def test_sum_of_squares_is_group_order():
    for m in range(6):
        total = sum(hook_length_dim(lam) ** 2 for lam in partitions(m))
        assert total == factorial(m)


def test_specht_modules_are_modules_over_f5():
    F5 = PrimeField(5)
    W = sym_algebra(3, field=F5)
    for lam in partitions(3):
        assert specht_module(lam, W=W).check() is None


def test_specht_size_guard():
    """The cap is a module constant, checked before the group algebra is read."""
    with pytest.raises(SpechtError, match="partition size 6 exceeds the cap 5"):
        specht_module((6,), W=None)


@pytest.mark.parametrize("field", [Q, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_one_polytabloid_spin_matches_all_standard_polytabloids(field):
    """A subspace has one reduced echelon basis, so the spin of one
    polytabloid and the span of all standard ones give equal matrices, for
    every basis element of the group algebra."""
    for m in range(6):
        W = sym_algebra(m, field=field)
        for lam in partitions(m):
            S, oracle = specht_module(lam, W), polytabloid_specht_module(lam, W)
            assert S.dim == oracle.dim, lam
            assert [S.action[b] for b in range(W.dim)] == oracle.action, lam


def test_specht_module_raises_when_the_hook_dimension_is_off(monkeypatch):
    """The spin must reach hook_length_dim exactly: one more than the span of
    the polytabloid is refused."""
    monkeypatch.setattr(specht, "hook_length_dim", lambda lam: hook_length_dim(lam) + 1)
    with pytest.raises(AlgebraError, match="the spin spans dimension 2, not 3"):
        specht_module((2, 1), sym_algebra(3))


def test_specht_simples_pairwise_orthogonal_char0():
    W = sym_algebra(3)
    mods = {lam: specht_module(lam, W=W) for lam in partitions(3)}
    for a in partitions(3):
        for b in partitions(3):
            expected = 1 if a == b else 0
            assert len(hom_space(mods[a], mods[b])) == expected


def test_regular_decomposes_with_specht_multiplicities_char0():
    W = sym_algebra(3)
    R = regular_module(W)
    for lam in partitions(3):
        S = specht_module(lam, W=W)
        assert len(hom_space(S, R)) == S.dim


# -- outer products -----------------------------------------------------------------

def walled_sym_algebra(a, b, field=Q):
    return wreath_product(trivial_input_algebra(field, field.one), a + b, wall=a)


def test_outer_product_dims():
    M = outer_product((2, 1), (1, 1), walled_sym_algebra(3, 2))
    assert M.dim == 2
    assert M.check() is None


def test_outer_trivial_times_trivial():
    M = outer_product((1,), (1,), walled_sym_algebra(1, 1))
    assert M.dim == 1


def test_outer_hom_is_product_of_homs():
    Wab = walled_sym_algebra(2, 2)
    mods = {}
    for lam in partitions(2):
        for mu in partitions(2):
            mods[(lam, mu)] = outer_product(lam, mu, Wab)
    for x in mods:
        for y in mods:
            expected = 1 if x == y else 0
            assert len(hom_space(mods[x], mods[y])) == expected


@pytest.mark.parametrize("field", [Q, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_spun_box_product_is_the_kronecker_product(field):
    """The box product spun from one polytabloid over the walled group
    algebra is isomorphic to the Kronecker product of the sides' Specht
    modules, for every lam |- a and mu |- b with a, b <= 3."""
    for a in range(4):
        for b in range(4):
            Wab = walled_sym_algebra(a, b, field)
            Wa, Wb = sym_algebra(a, field), sym_algebra(b, field)
            for lam in partitions(a):
                for mu in partitions(b):
                    spun = outer_product(lam, mu, Wab)
                    oracle = kronecker_outer_product(specht_module(lam, Wa),
                                                     specht_module(mu, Wb), Wab)
                    assert spun.dim == oracle.dim == hook_length_dim(lam) * hook_length_dim(mu)
                    assert find_isomorphism(spun, oracle) is not None, (lam, mu)


def test_box_product_refuses_each_side_above_the_cap():
    with pytest.raises(SpechtError, match="partition size 6 exceeds the cap 5"):
        outer_product((1,), (6,), None)


# -- dominance experiment ---------------------------------------------------------------

def walled_datum(r, t, l, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    dalg = DiagramAlgebra(DiagramKind.walled(r, t), A)
    big = diagram_fin_algebra(dalg)
    return corner_split_datum(dalg, big, l)


def test_cell_labels():
    assert walled_cell_labels(2, 2, 1) == [((1,), (1,))]
    assert len(walled_cell_labels(2, 2, 0)) == 4


def test_experiment_char0_l0_diagonal():
    rows = dominance_vanishing_experiment(walled_datum(2, 2, 0), True)
    assert len(rows) == 16
    for row in rows:
        assert row["transferOK"]
        assert not row["violation"]
        diagonal = row["lambda"] == row["lambda'"] and row["mu"] == row["mu'"]
        assert row["dimHom_big"] == (1 if diagonal else 0)
        assert row["dimExt_big"] == 0


def test_experiment_char0_l1_single_label():
    rows = dominance_vanishing_experiment(walled_datum(2, 2, 1), True)
    assert len(rows) == 1
    assert rows[0]["dimHom_big"] == 1
    assert not rows[0]["violation"]


def test_experiment_charp_matches_char0_when_p_large():
    rows = dominance_vanishing_experiment(walled_datum(2, 2, 0, field=PrimeField(5)), True)
    for row in rows:
        diagonal = row["lambda"] == row["lambda'"] and row["mu"] == row["mu'"]
        assert row["dimHom_big"] == (1 if diagonal else 0)
        assert not row["violation"]


def test_experiment_refuses_char2():
    """The experiment's one refusing caller is the dominance table, which
    refuses characteristic 2, where its prediction fails."""
    with pytest.raises(SpechtError, match="dominance tables exclude characteristic 2"):
        run(["dominance-table", "--r", "2", "--t", "1", "--l", "0", "--field", "fp:2"])


def test_table_field_rule_reads_the_field_alone():
    """The dominance table's rule, read before D is built: Ext^1 away from
    characteristic 3, and characteristic 2 refused."""
    assert table_with_ext(RationalField()) is True
    assert table_with_ext(PrimeField(5)) is True
    assert table_with_ext(PrimeField(3)) is False
    with pytest.raises(SpechtError, match="dominance tables exclude characteristic 2"):
        table_with_ext(PrimeField(2))


def test_experiment_char3_drops_ext():
    """The dominance table leaves Ext^1 out in characteristic 3; hom-ext,
    which asks for it in every characteristic, gets it."""
    datum = walled_datum(2, 1, 1, field=PrimeField(3))
    rows = dominance_vanishing_experiment(datum, table_with_ext(datum.field))
    assert rows[0]["dimExt_big"] == ""
    rows = dominance_vanishing_experiment(datum, True)
    assert rows[0]["dimExt_big"] == rows[0]["dimExt_small"] == 0
