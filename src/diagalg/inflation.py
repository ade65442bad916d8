"""Layer structure of diagram algebras.

The span of all diagrams with at least l horizontal edges per row is a
two-sided ideal; consecutive quotients are spanned by the exactly-l-edge
diagrams.  Such a diagram factors as (top configuration, bottom
configuration, decorated permutation of the free vertices), and under this
factorization the product of two layer elements is governed by a bilinear
contraction form with values in the wreath algebra of the layer: stacking
the bottom configuration of the first factor against the top configuration
of the second either produces closed loops and through-strands (a wreath
element scaled by the loop traces) or strands that re-enter the same row,
which pushes the product into the next layer and contributes zero.

``verify_layer`` checks, for one layer: (a) the factorization is a bijection
onto pairs-of-configurations times wreath basis, (b) multiplication modulo
the next layer agrees with the contraction-form product, (c) the diagram
involution swaps the two configurations and stars the wreath part.
``verify_decomposition`` runs every layer, the ideal chain and the global
dimension identity.

The form of layer l is one table, ``contraction_forms``: every pair of
configurations through ``contraction_form``.  The layer check and the
cell-head Gram matrix of ``split_pair`` read it; its P^2 products, for P
configurations, are the only ones ``verify_decomposition`` may compute
twice.

Otherwise the checks share their work, so that a run computes each product
of two basis diagrams once (a pair that sampling draws twice is multiplied
twice).  A product is one walk, ``DiagramAlgebra.product``, read as its
edges, its coefficient and the edge count of its top row, which is its
layer: no check builds a ``Diagram`` or an element dict for a monomial
product it only compares or locates.  ``verify_decomposition`` passes one
table to every check: each layer check writes the lowest layer of every
product it computed at l >= 1, and the ideal chain reads it, computing each
other product once.  The layer checks read the diagrams the roundtrip
assembled; wreath products used by one pair stay out of the wreath
algebra's product cache, and a wreath side b_k1 * phi * b_k2 that can
repeat is formed once.
``diagram_fin_algebra``'s cache is not used: it is built at setup and
caches whole product vectors, which costs memory the checks do not need.
Which pairs are checked, and the bounds between exhaustive and sampled,
do not depend on this sharing.
"""

from __future__ import annotations

from .algebra_kernel import AlgebraError, FinAlgebra, index_cases
from .diagrams import DiagramAlgebra
from .input_algebra import wreath_product
from .linalg import entry_iadd, vec_iadd


def small_algebra(dalg: DiagramAlgebra, l: int) -> FinAlgebra:
    """Wreath algebra of the free strands at layer l."""
    kind = dalg.kind.free_columns(l)
    return wreath_product(dalg.A, kind.n, wall=kind.wall)


def rank_v(dalg: DiagramAlgebra, l: int) -> int:
    return len(dalg.enumerate_partials(l))


def contraction_form(dalg: DiagramAlgebra, W, f_pd, e_pd):
    """Value of the layer bilinear form on (bottom config, top config).

    Computed, as in the defining construction, by multiplying the diagrams
    assembled from (f, f, id) and (e, e, id) and reading the wreath part of
    the result modulo the next layer; loops contribute their label traces,
    and any strand returning to its own row kills the product.
    """
    unit_keys = {W.basis_keys[i]: c for i, c in W.unit.items()}
    prod = dalg.mul(dalg.layer_assemble(f_pd, f_pd, unit_keys),
                    dalg.layer_assemble(e_pd, e_pd, unit_keys))
    out = {}
    for d, c in dalg.truncate_above_layer(prod, len(f_pd.edges)).items():
        top, bottom, key = dalg.layer_factorize(d)
        if top != f_pd or bottom != e_pd:
            raise AlgebraError("contraction changed the configurations")
        entry_iadd(dalg.field, out, W.key_index[key], c)
    return out


def contraction_forms(dalg: DiagramAlgebra, W, l: int):
    """The table of the layer-l form: row f, column e holds
    ``contraction_form`` of the f-th and e-th configurations of
    ``enumerate_partials(l)``."""
    partials = dalg.enumerate_partials(l)
    return [[contraction_form(dalg, W, f, e) for e in partials] for f in partials]


def _lowest(dalg, result):
    """Fewest horizontal edges in the support of a ``product`` result (n when
    the product is zero)."""
    edges, c, top = result
    zero = not c if edges is None else dalg.field.is_zero(c)
    return dalg.kind.n if zero else top


def layer_ideal_indices(dalg: DiagramAlgebra, big: FinAlgebra, l: int):
    """Coordinates of the basis diagrams with at least l horizontal edges."""
    return [i for i, d in enumerate(big.basis_keys) if dalg.layer(d) >= l]


def check_layer_ideal_closed(dalg: DiagramAlgebra, l: int, seed, table):
    """Closure of the layer span under diagram multiplication.

    Uses the support of products directly: every product diagram must again
    have at least l horizontal edges.  Exhaustive up to 150 basis diagrams,
    1000 seeded (basis, member) pairs above; each pair tests b*d, then d*b.
    Returns a witness pair or None.

    ``table`` maps i * dim + j to the fewest horizontal edges in the support
    of b_i * b_j (n for a zero product), read from the top-row count of the
    product.  Passed the same table for every l, filled first by the layer
    checks, the chain computes each product once in a run; the pairs and
    bounds do not change.

    At l = 0 the span is the whole algebra and no diagram has fewer than 0
    horizontal edges, so no pair could be a witness: None, with no pair
    drawn and no product computed.
    """
    if l == 0:
        return None
    basis = dalg.basis()
    dim = len(basis)
    members = [i for i, d in enumerate(basis) if dalg.layer(d) >= l]

    def lowest(i, j):
        key = i * dim + j
        got = table.get(key)
        if got is None:
            got = table[key] = _lowest(dalg, dalg.product(basis[i], basis[j]))
        return got

    pairs, _, _ = index_cases((dim, len(members)), 150, 1000, seed)
    for i, t in pairs:
        m = members[t]
        if lowest(i, m) < l or lowest(m, i) < l:
            return (basis[i], basis[m])
    return None


def verify_layer(dalg: DiagramAlgebra, l: int, seed, table, W=None) -> dict:
    """Checks (a)-(c) of the module docstring at layer l, as the layer's
    report dict; multiplication is checked on every pair of layer diagrams
    up to 200 of them, on 600 seeded pairs above; sharing the work below
    changes neither the pairs nor the bounds.  At l >= 1 the lowest layer of
    each product computed is written into ``table``, as
    ``check_layer_ideal_closed`` reads it.

    The roundtrip check assembles every layer diagram from its factors, and
    the involution and multiplication checks read those assemblies back.
    Configurations and wreath keys are read as ints.  Each checked pair
    costs one ``DiagramAlgebra.product``; a single-term product is compared
    with a single-term prediction by edges and coefficient, and any other
    case by element dicts.  The forms phi come from ``contraction_forms``.

    b_k1 * phi(bot1, top2) is formed once per (k1, bot1, top2), through W's
    product cache.  Its product with b_k2 goes through ``W.pair_mul``, which
    caches nothing: once per (k1, bot1, top2, k2) when there is more than
    one configuration, so that such a key can repeat, and once per pair
    otherwise, when no key repeats.
    """
    if W is None:
        W = small_algebra(dalg, l)
    F = dalg.field
    basis = dalg.basis()
    dim = len(basis)
    at = [i for i, d in enumerate(basis) if dalg.layer(d) == l]
    layer = [basis[i] for i in at]
    partials = dalg.enumerate_partials(l)
    P, Wd = len(partials), W.dim
    config = {p: t for t, p in enumerate(partials)}
    failures = []

    expected = P * P * Wd
    assembled = {}   # (top * P + bottom) * Wd + k -> diagram

    def assemble(top, bottom, k):
        slot = (top * P + bottom) * Wd + k
        got = assembled.get(slot)
        if got is None:
            got = assembled[slot] = dalg.layer_assemble_key(
                partials[top], partials[bottom], W.basis_keys[k])
        return got

    def assemble_vec(top, bottom, wreath_vec):
        out = {}
        for k, c in wreath_vec.items():
            entry_iadd(F, out, assemble(top, bottom, k), c)
        return out

    factored = [dalg.layer_factorize(d) for d in layer]
    fac = [(config[top], config[bottom], W.key_index[key]) for top, bottom, key in factored]
    bijective = (len(layer) == expected and len(set(factored)) == len(layer))
    for d, (top, bottom, k) in zip(layer, fac):
        if assemble(top, bottom, k) != d:
            bijective = False
            failures.append({"check": "roundtrip", "diagram": dalg.label(d)})
            break

    involution_ok = True
    for d, (top, bottom, k) in zip(layer, fac):
        lhs = dalg.involution({d: F.one})
        rhs = assemble_vec(bottom, top, W.involve(W.basis_vec(k)))
        if lhs != rhs:
            involution_ok = False
            failures.append({"check": "involution", "diagram": dalg.label(d)})
            break

    n_layer = len(layer)
    forms = contraction_forms(dalg, W, l)

    left_cache = {}   # (k1 * P + bot1) * P + top2 -> b_k1 * phi(bot1, top2)
    wreath_cache = {}   # ((k1 * P + bot1) * P + top2) * Wd + k2 -> wreath side
    one = F.one

    def wreath_side(k1, bot1, top2, k2):
        key = (k1 * P + bot1) * P + top2
        left = left_cache.get(key)
        if left is None:
            left = left_cache[key] = W.mul(W.basis_vec(k1), forms[bot1][top2])
        if len(left) == 1:
            (m, c), = left.items()
            got = W.pair_mul(m, k2)
            return got if c == one else {m2: F.mul(c, c2) for m2, c2 in got.items()}
        got = {}
        for m, c in left.items():
            vec_iadd(F, got, c, W.pair_mul(m, k2))
        return got

    pairs, pairs_checked, sampled = index_cases((n_layer, n_layer), 200, 600, seed)
    multiplicative = True
    for i, j in pairs:
        top1, bot1, k1 = fac[i]
        top2, bot2, k2 = fac[j]
        if P == 1:
            wprod = wreath_side(k1, bot1, top2, k2)
        else:
            key = ((k1 * P + bot1) * P + top2) * Wd + k2
            wprod = wreath_cache.get(key)
            if wprod is None:
                wprod = wreath_cache[key] = wreath_side(k1, bot1, top2, k2)
        got = dalg.product(layer[i], layer[j])
        if l:
            table[at[i] * dim + at[j]] = _lowest(dalg, got)
        edges, c, top = got
        if edges is not None and len(wprod) <= 1:
            if wprod:
                (m, cw), = wprod.items()
                ok = edges == assemble(top1, bot2, m).edges and c == cw
            else:
                ok = top > l or F.is_zero(c)
        else:
            ok = (dalg.truncate_above_layer(dalg.element(got), l)
                  == assemble_vec(top1, bot2, wprod))
        if not ok:
            multiplicative = False
            failures.append({"check": "multiplicative",
                             "pair": [dalg.label(layer[i]), dalg.label(layer[j])]})
            if len(failures) > 5:
                break

    return {
        "l": l,
        "rankV": P,
        "dimSmall": Wd,
        "layerDim": expected,
        "psiBijective": bijective,
        "psiMultiplicative": multiplicative,
        "involutionOK": involution_ok,
        "pairsChecked": pairs_checked,
        "sampled": sampled,
        "failures": failures,
    }


def verify_decomposition(dalg: DiagramAlgebra, seed=0) -> dict:
    basis = dalg.basis()
    bound = dalg.layer_bound()
    # one table for the run: the chain reads the products the layer checks
    # computed, and computes each other product once for every l
    table = {}
    layers = [verify_layer(dalg, l, seed, table) for l in range(bound + 1)]

    chain_ok = True
    ideal_witnesses = []
    counts = [sum(1 for d in basis if dalg.layer(d) >= l) for l in range(bound + 2)]
    for l in range(bound + 1):
        if counts[l + 1] >= counts[l]:   # every layer is nonempty, so strictly nested
            chain_ok = False
        w = check_layer_ideal_closed(dalg, l, seed, table)
        if w is not None:
            chain_ok = False
            ideal_witnesses.append({"l": l, "pair": [dalg.label(w[0]), dalg.label(w[1])]})

    layer_sum = sum(rep["layerDim"] for rep in layers)
    dim_ok = layer_sum == len(basis)
    return {
        "kind": dalg.kind.family,
        "params": _params_dict(dalg),
        "dim": len(basis),
        "layerSum": layer_sum,
        "dimensionIdentity": dim_ok,
        "idealChainOK": chain_ok,
        "idealWitnesses": ideal_witnesses,
        "layers": layers,
        "rankVConvention": "(dim A)^l * n!/(l!(n-2l)!2^l): one label per "
                           "horizontal edge; exponent n in place of l would "
                           "contradict the dimension identity verified above",
        "ok": dim_ok and chain_ok and all(rep[flag] for rep in layers for flag in
                                          ("psiBijective", "psiMultiplicative", "involutionOK")),
    }


def _params_dict(dalg):
    kind = dalg.kind
    if kind.family == "abrauer":
        return {"n": kind.n, "dimA": dalg.A.dim}
    return {"r": kind.wall, "t": kind.n - kind.wall}
