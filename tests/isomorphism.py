"""Test helper: search for a module isomorphism.

The search tries the basis of Hom(M, N), then seeded random combinations of
it.  A result is a checked isomorphism; ``None`` proves nothing, so tests
only assert that one is found.
"""

import random

from diagalg.algebra_kernel import ModuleMap, hom_space
from diagalg.linalg import vec_iadd


def find_isomorphism(M, N, seed=0, tries=80):
    """Invertible module map M -> N, or None; searched inside hom_space."""
    if M.dim != N.dim:
        return None
    basis = hom_space(M, N)
    for h in basis:
        if h.is_iso():
            return h
    F = M.algebra.field
    rng = random.Random(seed)
    for _ in range(tries):
        rows = [{} for _ in range(M.dim)]
        for h in basis:
            c = F.from_int(rng.randint(-2, 2))
            if F.is_zero(c):
                continue
            for acc, row in zip(rows, h.rows):
                vec_iadd(F, acc, c, row)
        cand = ModuleMap(M, N, rows)
        if cand.is_iso():
            return cand
    return None
