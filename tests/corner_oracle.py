"""Test oracles for the corner: the corner algebra e*A*e of an idempotent,
in coordinates over an echelon basis of its span inside A, and the corner
isomorphism checked on every pair of basis elements.

``corner_algebra`` inserts e*b_i*e for every basis element b_i, and the
corner's structure constants are the echelon coordinates of products of its
rows.  ``CornerSplitDatum`` reads the corner through the small algebra's
basis and the corner isomorphism instead, so the tests can compare the two.
``corner_iso_pair_witness`` compares mu(b_i)*mu(b_j) with mu(b_i*b_j) for
all dim^2 pairs, where ``verify_corner_iso`` checks the generators only.
``invert_rows`` inverts a square matrix, for the tests that need a map's
inverse and not only its rank.
"""

from typing import NamedTuple

from diagalg.algebra_kernel import AlgebraError, FinAlgebra
from diagalg.linalg import Echelon, vec_times_rows


class Corner(NamedTuple):
    """Corner algebra e*A*e of an idempotent, with its basis inside A."""
    parent: FinAlgebra
    idempotent: dict
    algebra: FinAlgebra
    rows: list          # corner basis as vectors in the parent
    ech: Echelon        # its span; ech.coords reads corner coordinates


def corner_algebra(alg, e_vec, name=""):
    F = alg.field
    if alg.mul(e_vec, e_vec) != e_vec:
        raise AlgebraError("element is not idempotent")
    ech = Echelon(F)
    for i in range(alg.dim):
        ech.insert(alg.mul(alg.mul(e_vec, alg.basis_vec(i)), e_vec))
    rows = ech.basis_rows()

    def from_parent(w):
        coords = ech.coords(w)
        if coords is None:
            raise AlgebraError("product escaped the corner")
        return coords

    def pair_mul(i, j):
        return from_parent(alg.mul(rows[i], rows[j]))

    unit = from_parent(e_vec)
    corner_alg = FinAlgebra(F, ech.dim, unit, pair_mul, name=name or f"e({alg.name})e")
    return Corner(alg, dict(e_vec), corner_alg, rows, ech)


def corner_iso_pair_witness(datum):
    """("unit",) if mu(1) != e, else the first basis pair (i, j) of the small
    algebra with mu(b_i)*mu(b_j) != mu(b_i*b_j), or None."""
    F, small, big, rows = datum.field, datum.small_big, datum.big, datum.mu_rows
    if vec_times_rows(F, small.unit, rows) != datum.idem_vec:
        return ("unit",)
    for i in range(small.dim):
        for j in range(small.dim):
            if big.mul(rows[i], rows[j]) != vec_times_rows(F, small.mul_basis(i, j), rows):
                return (i, j)
    return None


def invert_rows(F, rows):
    """Inverse of a square matrix given as rows; None if singular."""
    n = len(rows)
    ech = Echelon(F)
    for i, r in enumerate(rows):
        ech.insert({**r, n + i: F.one})
    if set(ech.rows) != set(range(n)):
        return None
    inv = []
    for i in range(n):
        row = ech.rows[i]
        inv.append({j - n: c for j, c in row.items() if j >= n})
    return inv
