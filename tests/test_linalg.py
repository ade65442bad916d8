import random
from fractions import Fraction

from corner_oracle import invert_rows
from diagalg.fields import PrimeField, RationalField
from diagalg.linalg import (
    Echelon,
    identity_rows,
    kernel_basis,
    mat_mul,
    entry_iadd,
    vec_iadd,
    vec_times_rows,
)

Q = RationalField()


def fr(rows):
    return [{j: Fraction(c) for j, c in r.items() if c} for r in rows]


def test_vec_ops_drop_zeros():
    u = {0: Fraction(1), 1: Fraction(2)}
    v = {0: Fraction(-1), 2: Fraction(3)}
    acc = dict(u)
    assert vec_iadd(Q, acc, Q.one, v) is acc
    assert acc == {1: Fraction(2), 2: Fraction(3)}
    assert vec_iadd(Q, dict(u), Fraction(0), v) == u
    assert vec_iadd(Q, dict(u), Fraction(2), v) == {0: Fraction(-1), 1: Fraction(2), 2: Fraction(6)}
    assert v == {0: Fraction(-1), 2: Fraction(3)}
    entry_iadd(Q, acc, 1, Fraction(-2))
    entry_iadd(Q, acc, 5, Fraction(1, 2))
    assert acc == {2: Fraction(3), 5: Fraction(1, 2)}


def test_echelon_rank_and_membership():
    rows = fr([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}])
    ech = Echelon(Q).insert_all(rows)
    assert ech.dim == 2
    assert ech.contains({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
    assert not ech.contains({2: Fraction(1)})


def test_echelon_coordinates_reconstruct():
    rows = fr([{0: 1, 2: 1}, {1: 1, 2: -1}])
    ech = Echelon(Q).insert_all(rows)
    v = {0: Fraction(2), 1: Fraction(3), 2: Fraction(-1)}
    coords = ech.coords(v)
    assert vec_times_rows(Q, coords, ech.basis_rows()) == v
    assert ech.coords({2: Fraction(1)}) is None


def test_echelon_coords_by_pivot_position_after_inserts():
    # rows: pivot 2 -> {2: 1, 4: -1}, pivot 3 -> {3: 1, 4: 1}
    ech = Echelon(Q).insert_all(fr([{3: 1, 4: 1}, {2: 1, 3: 1}]))
    handed_out = ech.basis_rows()
    snapshot = [dict(r) for r in handed_out]
    v = {2: Fraction(1), 3: Fraction(2), 4: Fraction(1)}
    assert ech.coords(v) == {0: Fraction(1), 1: Fraction(2)}
    ech.insert({0: Fraction(1)})        # a smaller pivot shifts the positions
    assert ech.coords(v) == {1: Fraction(1), 2: Fraction(2)}
    ech.insert({4: Fraction(1)})        # clears column 4 from the stored rows
    assert handed_out == snapshot
    assert ech.coords(v) == {1: Fraction(1), 2: Fraction(2), 3: Fraction(1)}
    assert vec_times_rows(Q, ech.coords(v), ech.basis_rows()) == v


def test_kernel_of_known_matrix():
    # x0 + x1 = 0, x1 + x2 = 0  ->  kernel spanned by (1, -1, 1)
    rows = fr([{0: 1, 1: 1}, {1: 1, 2: 1}])
    ker = kernel_basis(Q, rows, 3)
    assert len(ker) == 1
    k = ker[0]
    for eq in rows:
        assert Q.sum(Q.mul(eq.get(j, Q.zero), k.get(j, Q.zero)) for j in range(3)) == Q.zero


def test_kernel_dimension_rank_nullity():
    rng = random.Random(3)
    F5 = PrimeField(5)
    for _ in range(10):
        rows = [{j: rng.randrange(5) for j in range(6) if rng.random() < 0.5} for _ in range(4)]
        rows = [{j: c for j, c in r.items() if c} for r in rows]
        ker = kernel_basis(F5, rows, 6)
        assert len(ker) == 6 - Echelon(F5).insert_all(rows).dim


def test_invert_rows():
    # the inverse the corner oracle uses
    rows = fr([{0: 2, 1: 1}, {1: 1}])
    inv = invert_rows(Q, rows)
    assert mat_mul(Q, rows, inv) == identity_rows(Q, 2)
    assert mat_mul(Q, inv, rows) == identity_rows(Q, 2)
    assert invert_rows(Q, fr([{0: 1, 1: 1}, {0: 2, 1: 2}])) is None


def test_vec_times_rows():
    rows = fr([{0: 1, 1: 1}, {1: 2}])
    assert vec_times_rows(Q, {0: Fraction(1), 1: Fraction(1)}, rows) == {0: Fraction(1), 1: Fraction(3)}


def test_determinism_of_pivots():
    rows = fr([{1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: 1}])
    ech = Echelon(Q).insert_all(rows)
    assert ech.pivots() == [0, 1, 2]
