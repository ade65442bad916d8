"""Partitions, dominance, Specht modules, and the dominance-vanishing tables.

A Specht module is the cyclic span of one polytabloid (James, The
Representation Theory of the Symmetric Groups, LNM 682, 1978): the
polytabloid of the row-reading tableau is spun inside the tabloid
permutation module, and the module has the reduced echelon basis of the
span, which a subspace determines.  The spin must reach the hook length
dimension, so the hook length formula is certified in every run.  No
straightening is implemented; at the desk-scale size cap this is the
simplest construction that is exact over any field.

The layered order on cell labels follows the published convention: labels
with more horizontal edges sit lower, and within a layer the label that
dominates componentwise is the smaller one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from .algebra_kernel import LazyAction, RightModule, Spin, _span_submodule
# bound here because the benchmark harness checks that its tracer wraps and
# restores this module's binding (benchmarks/test_harness.py)
from .algebra_kernel import free_presentation  # noqa: F401
from .input_algebra import invert_perm, perm_sign, trivial_input_algebra, wreath_product
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


def dominance(lam, mu):
    """Compare partitions of equal size: greater / less / equal / incomparable."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise SpechtError(f"sizes differ: {lam} vs {mu}")
    if lam == mu:
        return "equal"
    width = max(len(lam), len(mu))
    a = list(lam) + [0] * (width - len(lam))
    b = list(mu) + [0] * (width - len(mu))
    ge = le = True
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa < sb:
            ge = False
        if sa > sb:
            le = False
    if ge:
        return "greater"
    if le:
        return "less"
    return "incomparable"


def dominates(lam, mu):
    return dominance(lam, mu) in ("greater", "equal")


def layer_order(x, y):
    """Order on layered labels (l, components): more edges sits lower; at equal
    depth the label whose components dominate is the smaller one."""
    lx, cx = x
    ly, cy = y
    if lx == ly and tuple(cx) == tuple(cy):
        return "equal"
    if lx != ly:
        return "less" if ly < lx else "greater"
    if len(cx) != len(cy):
        raise SpechtError("labels have different numbers of components")
    if all(dominates(a, b) for a, b in zip(cx, cy)):
        return "less"
    if all(dominates(b, a) for a, b in zip(cx, cy)):
        return "greater"
    return "incomparable"


def hook_length_dim(lam):
    """Number of standard tableaux by the hook length formula (oracle)."""
    lam = tuple(lam)
    m = sum(lam)
    conj = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam else []
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    return factorial(m) // denom


def tabloids(lam):
    """Row-membership keys: key[v] = row of value v, with row sizes lam."""
    return sorted(set(itertools.permutations([i for i, row in enumerate(lam) for _ in range(row)])))


def _polytabloid(tableau, m, tab_index, field):
    """Signed sum of tabloids over the column stabilizer, as a sparse vector."""
    F = field
    cols = [[row[j] for row in tableau if len(row) > j]
            for j in range(len(tableau[0]) if tableau else 0)]
    vec = {}
    for perms in itertools.product(*(itertools.permutations(c) for c in cols)):
        image = list(range(m))
        sign = 1
        for orig, perm in zip(cols, perms):
            for a, b in zip(orig, perm):
                image[a] = b
            sign *= perm_sign(tuple(orig.index(x) for x in perm))
        key = [0] * m
        for i, row in enumerate(tableau):
            for v in row:
                key[image[v]] = i
        entry_iadd(F, vec, tab_index[tuple(key)], F.from_int(sign))
    return vec


def specht_module(lam, W):
    """Specht module S^lam over the group algebra W of the symmetric group on
    sum(lam) strands (the wreath algebra with trivial input).

    The cyclic span of the polytabloid of the row-reading tableau inside the
    tabloid module M^lam, with its reduced echelon basis.  The spin must
    reach the hook length dimension, and the span is certified stable.
    """
    lam = check_partition(lam) if lam else ()
    m = sum(lam)
    if m > MAX_SIZE:
        raise SpechtError(f"partition size {m} exceeds the cap {MAX_SIZE}")
    F = W.field
    tabs = tabloids(lam)
    tab_index = {k: i for i, k in enumerate(tabs)}

    def rows_for(b):
        pinv = invert_perm(W.basis_keys[b][1])
        return [{tab_index[tuple(key[pinv[v]] for v in range(m))]: F.one} for key in tabs]

    M = RightModule(W, len(tabs), LazyAction(W.dim, rows_for), name=f"M{lam}")
    ends = itertools.accumulate(lam)
    tableau = tuple(tuple(range(end - row, end)) for row, end in zip(lam, ends))
    spin = Spin(M, starts=[_polytabloid(tableau, m, tab_index, F)],
                span_dim=hook_length_dim(lam))
    return _span_submodule(M, spin._ech, name=f"S{lam}")[0]


def outer_product(Sa: RightModule, Sb: RightModule, Wab) -> RightModule:
    """Box product of modules over two symmetric group algebras, as a module
    over the wall-preserving wreath algebra on the joined strands: the matrix
    of (sigma, tau) is the Kronecker product of the factors' matrices, built
    on first read."""
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


def walled_cell_labels(r, t, l):
    return [(lam, mu) for lam in partitions(r - l) for mu in partitions(t - l)]


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
    F = datum.field
    kind = datum.dalg.kind
    if kind.family != "walled":
        raise SpechtError("the dominance experiment is a walled-family computation")
    r, t, l = kind.wall, kind.n - kind.wall, datum.layer

    Wa = wreath_product(trivial_input_algebra(F, F.one), r - l)
    Wb = wreath_product(trivial_input_algebra(F, F.one), t - l)
    labels = walled_cell_labels(r, t, l)
    modules = [outer_product(specht_module(lam, W=Wa), specht_module(mu, W=Wb), datum.W)
               for lam, mu in labels]
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
