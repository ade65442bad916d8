"""Specht modules and box products built the ways ``diagalg.specht`` replaced.

``polytabloid_specht_module`` is the span of every standard polytabloid
inside the tabloid module, with its reduced echelon basis, and one action
matrix built eagerly for every basis element of the group algebra.  A
subspace has one reduced echelon basis, so it and the spin of one
polytabloid must give equal matrices.

``kronecker_outer_product`` builds S^lam x S^mu from Specht modules over the
two sides' own symmetric group algebras: the matrix of (sigma, tau) is the
Kronecker product of the sides' matrices.  The box product spun over the
walled group algebra must be isomorphic to it.
"""

from diagalg.algebra_kernel import LazyAction, RightModule
from diagalg.input_algebra import invert_perm
from diagalg.linalg import Echelon, entry_iadd
from diagalg.specht import _polytabloid, check_partition, tabloids


def standard_tableaux(lam):
    """All standard tableaux of the given shape, entries 0..m-1."""
    lam = tuple(lam)
    m = sum(lam)
    if m == 0:
        return [()]
    out = []
    for i, row in enumerate(lam):
        if row and (i == len(lam) - 1 or lam[i + 1] < row):
            smaller = list(lam)
            smaller[i] -= 1
            if smaller[i] == 0:
                smaller.pop(i)
            for t in standard_tableaux(tuple(smaller)):
                rows = [list(r) for r in t]
                while len(rows) <= i:
                    rows.append([])
                rows[i].append(m - 1)
                out.append(tuple(tuple(r) for r in rows))
    return out


def polytabloid_specht_module(lam, W):
    """S^lam on the span of the standard polytabloids, every matrix built."""
    lam = check_partition(lam) if lam else ()
    m = sum(lam)
    F = W.field
    tabs = tabloids((lam,))
    tab_index = {k: i for i, k in enumerate(tabs)}
    std = standard_tableaux(lam)
    span = Echelon(F).insert_all(_polytabloid([t], m, tab_index, F) for t in std)
    assert span.dim == len(std), lam
    rows = span.basis_rows()

    def act_key(vec, perm):
        pinv = invert_perm(perm)
        out = {}
        for idx, c in vec.items():
            key = tabs[idx]
            entry_iadd(F, out, tab_index[tuple(key[pinv[v]] for v in range(m))], c)
        return out

    action = []
    for _, perm in W.basis_keys:
        mat = [span.coords(act_key(r, perm)) for r in rows]
        assert None not in mat, (lam, perm)
        action.append(mat)
    return RightModule(W, len(std), action, name=f"S{lam}")


def kronecker_outer_product(Sa, Sb, Wab):
    """Box product of modules over two symmetric group algebras, as a module
    over the wall-preserving wreath algebra on the joined strands."""
    Wa, Wb = Sa.algebra, Sb.algebra
    F = Wab.field
    a = len(Wa.basis_keys[0][1])

    def rows_for(b):
        perm = Wab.basis_keys[b][1]
        tau = tuple(v - a for v in perm[a:])
        ra = Sa.action[Wa.key_index[((0,) * a, tuple(perm[:a]))]]
        rb = Sb.action[Wb.key_index[((0,) * len(tau), tau)]]
        return [{ii * Sb.dim + jj: F.mul(ca, cb) for ii, ca in row_a.items()
                 for jj, cb in row_b.items()}
                for row_a in ra for row_b in rb]

    return RightModule(Wab, Sa.dim * Sb.dim, LazyAction(Wab.dim, rows_for),
                       name=f"{Sa.name}x{Sb.name}")
