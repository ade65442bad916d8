"""Test oracles: two-sided ideals, quotient algebras and pullback modules.

``ideal_span`` closes a generating set under left and right multiplication
by every basis element, and ``quotient_algebra`` divides it out, so the
tests can rebuild the layer ideals and the split quotient of a diagram
algebra from their generators alone and compare them with the layer
coordinates and the map alpha of ``CornerSplitDatum`` at l = 0.
``pullback_module`` views a module along an algebra map, for comparing the
layer-0 induction with the pullback along alpha.
"""

from diagalg.algebra_kernel import (
    AlgebraError,
    FinAlgebra,
    RightModule,
    check_algebra_map,
    index_cases,
)
from diagalg.linalg import Echelon


def ideal_span(alg, gen_vectors):
    """Echelon basis of the two-sided ideal generated by the given elements."""
    F = alg.field
    ech = Echelon(F)
    frontier = []
    for g in gen_vectors:
        if ech.insert(dict(g)) is not None:
            frontier.append(dict(g))
    while frontier:
        new = []
        for v in frontier:
            for i in range(alg.dim):
                b = alg.basis_vec(i)
                for prod in (alg.mul(b, v), alg.mul(v, b)):
                    if ech.reduce(prod):
                        ech.insert(prod)
                        new.append(prod)
        frontier = new
    return ech


def is_two_sided_ideal(alg, ech, seed=0):
    """Check closure of the echelon span under basis multiplication.

    Exhaustive up to dimension 200, 1000 seeded (basis, row) pairs above.
    Returns a witness (side, i, pivot) or None.
    """
    rows = ech.basis_rows()
    pivs = ech.pivots()
    pairs, _, _ = index_cases((alg.dim, len(rows)), 200, 1000, seed)
    for i, t in pairs:
        b = alg.basis_vec(i)
        if not ech.contains(alg.mul(b, rows[t])):
            return ("left", i, pivs[t])
        if not ech.contains(alg.mul(rows[t], b)):
            return ("right", i, pivs[t])
    return None


def quotient_algebra(alg, ideal_ech, name=""):
    """Quotient by a two-sided ideal; returns (algebra, projection rows).

    The quotient basis is indexed by the non-pivot coordinates of the ideal.
    """
    F = alg.field
    keep = [j for j in range(alg.dim) if j not in ideal_ech.rows]
    pos = {j: t for t, j in enumerate(keep)}

    def project(v):
        red = ideal_ech.reduce(v)
        return {pos[j]: c for j, c in red.items()}

    witness = is_two_sided_ideal(alg, ideal_ech)
    if witness is not None:
        raise AlgebraError(f"not a two-sided ideal: witness {witness}")

    def pair_mul(i, j):
        return project(alg.mul_basis(keep[i], keep[j]))

    quot = FinAlgebra(F, len(keep), project(alg.unit), pair_mul, name=name or f"{alg.name}/I")
    if alg.generators is not None:
        quot.generators = [project(g) for g in alg.generators]
    proj_rows = [project({i: F.one}) for i in range(alg.dim)]
    return quot, proj_rows


def pullback_module(M, q_rows, C, check=True):
    """View a right module over B as a module over C along a surjection q: C -> B."""
    if check:
        witness = check_algebra_map(C, M.algebra, q_rows)
        if witness is not None:
            raise AlgebraError(f"q is not an algebra map: witness {witness}")
    action = [M.action_rows(q_rows[i]) for i in range(C.dim)]
    return RightModule(C, M.dim, action, name=f"{M.name}|q")
