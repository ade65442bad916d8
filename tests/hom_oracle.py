"""Test oracle: Hom spaces by solving for every entry of a map.

A map f: M -> N is a dim M x dim N matrix F, and it is a module map when
rho_M(g) F = F rho_N(g) for every algebra generator g: |generators|*m*n
equations in m*n unknowns.  It shares with the spin in
``diagalg.algebra_kernel`` only the field, the sparse-vector helpers and the
Echelon null space, so the tests compare the two.  Like the spin, it relies
on the algebra's generators and unit generating the algebra, and it uses
every basis element when the algebra names no generators.
"""

from diagalg.algebra_kernel import ModuleMap
from diagalg.linalg import entry_iadd, kernel_basis, transpose_rows


def hom_space_by_entries(M, N):
    """Basis of Hom(M, N), found by linear solving in all m*n entries."""
    alg = M.algebra
    F = alg.field
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return []
    gens = alg.generators
    if gens is None:
        gens = [{b: F.one} for b in range(alg.dim)]
    eqs = []
    for g in gens:
        rm = M.action_rows(g)
        rn_cols = transpose_rows(N.action_rows(g), n)
        for i in range(m):
            for j in range(n):
                eq = {k * n + j: c for k, c in rm[i].items()}
                for k, c in rn_cols[j].items():
                    entry_iadd(F, eq, i * n + k, F.neg(c))
                if eq:
                    eqs.append(eq)
    maps = []
    for x in kernel_basis(F, eqs, m * n):
        rows = [{} for _ in range(m)]
        for flat, c in x.items():
            rows[flat // n][flat % n] = c
        maps.append(ModuleMap(M, N, rows))
    return maps
