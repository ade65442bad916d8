"""Test oracle: the corner algebra e*A*e of an idempotent, in coordinates
over an echelon basis of its span inside A.

``corner_algebra`` inserts e*b_i*e for every basis element b_i, and the
corner's structure constants are the echelon coordinates of products of its
rows.  ``CornerSplitDatum`` reads the corner through the small algebra's
basis and the corner isomorphism instead, so the tests can compare the two.
"""

from typing import NamedTuple

from diagalg.algebra_kernel import AlgebraError, FinAlgebra
from diagalg.linalg import Echelon


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
    labels = [f"c{p}" for p in ech.pivots()]
    corner_alg = FinAlgebra(F, labels, unit, pair_mul, name=name or f"e({alg.name})e")
    return Corner(alg, dict(e_vec), corner_alg, rows, ech)
