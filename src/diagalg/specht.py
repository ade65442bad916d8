"""Partitions, dominance, Specht modules, and the dominance-vanishing tables.

Specht modules are built inside the tabloid permutation module: the basis is
the set of polytabloids of standard tableaux, and action matrices come from
expressing permuted polytabloids in that basis by linear solving.  No
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

from .algebra_kernel import RightModule
# bound here because the benchmark harness checks that its tracer wraps and
# restores this module's binding (benchmarks/test_harness.py)
from .algebra_kernel import free_presentation  # noqa: F401
from .input_algebra import invert_perm, perm_sign, trivial_input_algebra, wreath_product
from .linalg import CoordSolver, entry_iadd


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


def tabloids(lam):
    """Row-membership keys: key[v] = row of value v, with row sizes lam."""
    m = sum(lam)
    if m == 0:
        return [()]
    keys = set()
    symbols = []
    for i, row in enumerate(lam):
        symbols += [i] * row
    for perm in itertools.permutations(symbols):
        keys.add(tuple(perm))
    return sorted(keys)


def _column_group(tableau):
    cols = []
    width = len(tableau[0]) if tableau else 0
    for j in range(width):
        cols.append([row[j] for row in tableau if len(row) > j])
    return cols


def _polytabloid(tableau, m, tab_index, field):
    """Signed sum of tabloids over the column stabilizer, as a sparse vector."""
    F = field
    cols = _column_group(tableau)
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


def specht_module(lam, W=None, field=None, max_size=5):
    """Specht module over the group algebra of the symmetric group.

    ``W`` is the wreath algebra with trivial input on sum(lam) strands; it is
    built on the fly when omitted (then ``field`` is required).
    """
    lam = check_partition(lam) if lam else ()
    m = sum(lam)
    if m > max_size:
        raise SpechtError(f"partition size {m} exceeds the cap {max_size}")
    if W is None:
        if field is None:
            raise SpechtError("need either the group algebra or a field")
        W = wreath_product(trivial_input_algebra(field, field.one), m)
    F = W.field
    tabs = tabloids(lam)
    tab_index = {k: i for i, k in enumerate(tabs)}
    std = standard_tableaux(lam)
    rows = [_polytabloid(t, m, tab_index, F) for t in std]
    solver = CoordSolver(F, rows, width=len(tabs))

    def act_key(vec, perm):
        pinv = invert_perm(perm)
        out = {}
        for idx, c in vec.items():
            key = tabs[idx]
            moved = tuple(key[pinv[v]] for v in range(m))
            entry_iadd(F, out, tab_index[moved], c)
        return out

    action = []
    for (labels, perm) in W.basis_keys:
        mat = []
        for r in rows:
            coords = solver.coords(act_key(r, perm))
            assert coords is not None, "permuted polytabloid left the span"
            mat.append(coords)
        action.append(mat)
    mod = RightModule(W, len(std), action, name=f"S{lam}")
    mod.tableaux = std
    return mod


def outer_product(Sa: RightModule, Sb: RightModule, Wab) -> RightModule:
    """Box product of modules over two symmetric group algebras, as a module
    over the wall-preserving wreath algebra on the joined strands."""
    Wa, Wb = Sa.algebra, Sb.algebra
    F = Wab.field
    a = len(Wa.basis_keys[0][1]) if Wa.dim else 0
    dim = Sa.dim * Sb.dim
    action = []
    for (labels, perm) in Wab.basis_keys:
        sigma = tuple(perm[:a])
        tau = tuple(v - a for v in perm[a:])
        ra = Sa.action[Wa.key_index[((0,) * a, sigma)]]
        rb = Sb.action[Wb.key_index[((0,) * len(tau), tau)]]
        rows = []
        for i in range(Sa.dim):
            for j in range(Sb.dim):
                row = {}
                for ii, ca in ra[i].items():
                    for jj, cb in rb[j].items():
                        row[ii * Sb.dim + jj] = F.mul(ca, cb)
                rows.append(row)
        action.append(rows)
    return RightModule(Wab, dim, action, name=f"{Sa.name}x{Sb.name}")


def walled_cell_labels(r, t, l):
    return [(lam, mu) for lam in partitions(r - l) for mu in partitions(t - l)]


def dominance_vanishing_experiment(datum, with_ext=True, max_size=5):
    """Hom and first-extension dimensions between all induced Specht pairs of
    one layer, against the componentwise dominance prediction.

    Returns a list of row dicts matching the CSV schema of the table command.
    Characteristic 2 is refused outright; extensions are only tabulated away
    from characteristics 2 and 3.
    """
    from .split_pair import hom_ext_transfer

    F = datum.field
    p = F.characteristic()
    if p == 2:
        raise SpechtError("dominance tables exclude characteristic 2")
    if p == 3:
        with_ext = False
    kind = datum.dalg.kind
    if kind.family != "walled":
        raise SpechtError("the dominance experiment is a walled-family computation")
    r, t, l = kind.wall, kind.n - kind.wall, datum.layer

    Wa = wreath_product(trivial_input_algebra(F, F.one), r - l)
    Wb = wreath_product(trivial_input_algebra(F, F.one), t - l)
    labels = walled_cell_labels(r, t, l)
    modules = [outer_product(specht_module(lam, W=Wa, max_size=max_size),
                             specht_module(mu, W=Wb, max_size=max_size), datum.W)
               for lam, mu in labels]
    inductions = [datum.induce(M) for M in modules]

    rows = []
    for x, M, ind in zip(labels, modules, inductions):
        # one spin per source row serves every target of the row
        reps = hom_ext_transfer(datum, M, modules, ind_m=ind,
                                ind_targets=inductions, with_ext=with_ext)
        for y, rep in zip(labels, reps):
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
