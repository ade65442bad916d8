"""Partitions, dominance, Specht modules, and the dominance-vanishing tables.

A Specht module is the cyclic span of one polytabloid (James, The
Representation Theory of the Symmetric Groups, LNM 682, 1978): the
polytabloid of the row-reading tableau is spun inside the tabloid
permutation module, and the module has the reduced echelon basis of the
span, which a subspace determines.  The spin must reach the hook length
dimension, so the hook length formula is certified in every run.  No
straightening is implemented; at the desk-scale size cap this is the
simplest construction that is exact over any field.

A box product S^lam x S^mu over the wall-preserving group algebra W_l of
the walled family is built the same way, over W_l itself: the tabloid
module sends each side's values to that side's rows, and the polytabloid
spun is the tensor product of the sides' row-reading polytabloids.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .algebra_kernel import LazyAction, RightModule, SpanModule, Spin
# bound here because the benchmark harness checks that its tracer wraps and
# restores this module's binding (benchmarks/test_harness.py)
from .algebra_kernel import free_presentation  # noqa: F401
from .input_algebra import invert_perm, perm_sign
from .linalg import entry_iadd
from .split_pair import hom_ext_transfer

# largest partition size a Specht module is built for
MAX_SIZE = 5


class SpechtError(ValueError):
    pass


def check_partition(lam):
    lam = tuple(int(x) for x in lam)
    if any(x <= 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise SpechtError(f"not a partition: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions(m):
    """All partitions of m, in lexicographically decreasing order."""
    if m == 0:
        return [()]
    out = []

    def extend(prefix, remaining, largest):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            extend(prefix + [part], remaining - part, part)

    extend([], m, m)
    return out


def dominates(lam, mu):
    """Whether lam dominates mu, partitions of equal size: every partial sum
    of lam is at least mu's (past the shorter one both are the full size)."""
    if sum(lam) != sum(mu):
        raise SpechtError(f"sizes differ: {tuple(lam)} vs {tuple(mu)}")
    return all(a >= b for a, b in zip(itertools.accumulate(lam), itertools.accumulate(mu)))


def hook_length_dim(lam):
    """Number of standard tableaux by the hook length formula (oracle)."""
    lam = tuple(lam)
    m = sum(lam)
    conj = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam else []
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    return math.factorial(m) // denom


def tabloids(shape):
    """Row-membership keys: key[v] is the row of value v, and side k's
    values lie in side k's rows, numbered on through the sides."""
    firsts = itertools.accumulate((len(lam) for lam in shape), initial=0)
    sides = [sorted(set(itertools.permutations([first + i for i, row in enumerate(lam)
                                                for _ in range(row)])))
             for lam, first in zip(shape, firsts)]
    return [sum(keys, ()) for keys in itertools.product(*sides)]


def _polytabloid(tableaux, m, tab_index, F):
    """Signed sum of tabloids over the column stabilizer, as a sparse vector;
    with one tableau per side, the tensor product of their polytabloids."""
    cols = [[row[j] for row in tableau if len(row) > j]
            for tableau in tableaux for j in range(len(tableau[0]) if tableau else 0)]
    rows = [row for tableau in tableaux for row in tableau]
    vec = {}
    for perms in itertools.product(*(itertools.permutations(c) for c in cols)):
        image = list(range(m))
        sign = 1
        for orig, perm in zip(cols, perms):
            for a, b in zip(orig, perm):
                image[a] = b
            sign *= perm_sign(tuple(orig.index(x) for x in perm))
        key = [0] * m
        for i, row in enumerate(rows):
            for v in row:
                key[image[v]] = i
        entry_iadd(F, vec, tab_index[tuple(key)], F.from_int(sign))
    return vec


def _spin_specht(shape, W):
    """The box product of the Specht modules of the shape's partitions, one
    per side of W's wall, spun as the module docstring says; the spin must
    reach the product of the hook length dimensions."""
    shape = tuple(check_partition(lam) if lam else () for lam in shape)
    for lam in shape:
        if sum(lam) > MAX_SIZE:
            raise SpechtError(f"partition size {sum(lam)} exceeds the cap {MAX_SIZE}")
    m = sum(map(sum, shape))
    F = W.field
    tabs = tabloids(shape)
    tab_index = {k: i for i, k in enumerate(tabs)}

    def rows_for(b):
        pinv = invert_perm(W.basis_keys[b][1])
        return [{tab_index[tuple(key[pinv[v]] for v in range(m))]: F.one} for key in tabs]

    M = RightModule(W, len(tabs), LazyAction(W.dim, rows_for),
                    name="x".join(f"M{lam}" for lam in shape))
    values = iter(range(m))
    tableaux = [tuple(tuple(itertools.islice(values, row)) for row in lam) for lam in shape]
    spin = Spin(M, starts=[_polytabloid(tableaux, m, tab_index, F)],
                span_dim=math.prod(map(hook_length_dim, shape)))
    return SpanModule(W, spin._ech, M.act_basis, name="x".join(f"S{lam}" for lam in shape))


def specht_module(lam, W):
    """Specht module S^lam over the group algebra W of the symmetric group on
    sum(lam) strands (the wreath algebra with trivial input)."""
    return _spin_specht((lam,), W)


def outer_product(lam, mu, W):
    """Box product S^lam x S^mu over the wall-preserving group algebra W on
    sum(lam) + sum(mu) strands, the wall after the first sum(lam)."""
    return _spin_specht((lam, mu), W)


def walled_cell_labels(r, t, l):
    return [(lam, mu) for lam in partitions(r - l) for mu in partitions(t - l)]


# the report field of a dominance table whose Ext^1 columns table_with_ext empties
EXT_SKIPPED = ("Ext^1 is not tabulated in characteristic 3, where the dominance "
               "prediction for Ext^1 fails")


def table_with_ext(field):
    """Whether a dominance table over the field tabulates Ext^1.  Its
    prediction fails in characteristic 2, which is refused, and for Ext^1 in
    characteristic 3, where Ext^1 is skipped.  Read from the field alone, so
    that ``dominance-table`` refuses before it builds D; ``hom-ext``, whose
    transfer needs no dominance, tabulates Ext^1 in every characteristic."""
    p = field.characteristic()
    if p == 2:
        raise SpechtError("dominance tables exclude characteristic 2")
    return p != 3


def dominance_vanishing_experiment(datum, with_ext):
    """Hom and first-extension dimensions between all induced Specht pairs of
    one layer, against the componentwise dominance prediction.

    Returns a list of row dicts matching the CSV schema of the table command;
    the Ext^1 columns are empty unless ``with_ext``.
    """
    kind = datum.dalg.kind
    if kind.family != "walled":
        raise SpechtError("the dominance experiment is a walled-family computation")
    r, t, l = kind.wall, kind.n - kind.wall, datum.layer

    labels = walled_cell_labels(r, t, l)
    modules = [outer_product(lam, mu, datum.W) for lam, mu in labels]
    reps = hom_ext_transfer(datum, modules, with_ext=with_ext)

    rows = []
    for (x, y), rep in zip(itertools.product(labels, repeat=2), reps):
        dom_ok = dominates(x[0], y[0]) and dominates(x[1], y[1])
        violation = (rep["homBig"] > 0 and not dom_ok) or \
                    (with_ext and rep.get("extBig", 0) > 0 and not dom_ok)
        rows.append({
            "l": l,
            "lambda": str(x[0]), "mu": str(x[1]),
            "lambda'": str(y[0]), "mu'": str(y[1]),
            "dimHom_big": rep["homBig"], "dimHom_small": rep["homSmall"],
            "dimExt_big": rep.get("extBig", ""), "dimExt_small": rep.get("extSmall", ""),
            "dominanceOK": dom_ok,
            "violation": violation,
            "transferOK": rep["ok"],
        })
    return rows
