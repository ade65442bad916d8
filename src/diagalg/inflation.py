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
configurations through ``contraction_form``, one product of the diagrams
(f, f, 1) and (e, e, 1) that ``DiagramAlgebra.unit_assembly`` builds once
per configuration.  The layer check and the cell-head Gram matrix of
``split_pair`` read it; its P^2 products, for P configurations, are the
only ones ``verify_decomposition`` may compute twice.

Otherwise a run computes each product of two basis diagrams once (a pair
that sampling draws twice is multiplied twice).  A product is one walk,
``DiagramAlgebra.product``, read as its edges, its coefficient and the edge
count of its top row, which is its layer, so no check builds a ``Diagram``
or an element dict for a monomial product it only compares or locates.
The layer checks write the lowest layer of every product they computed at
l >= 1 into one table per run, and the ideal chain reads it.  A layer check
assembles each of its P^2 dim W diagrams once and compares every pair's
walk with the wreath product ``W.pair_mul``, by basis index: b_k1 * b_k2
when P = 1 and the form is 1, else through b_k1 * phi, formed once per
(k1, bot1, top2), and each wreath side that can repeat formed once.
``diagram_fin_algebra``'s cache is not used: it caches whole product
vectors, which costs memory the checks do not need.  Which pairs are
checked, and the bounds between exhaustive and sampled, do not depend on
this sharing.
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
    (f, f, 1) and (e, e, 1), built once per configuration, and reading the
    wreath part of the result modulo the next layer; loops contribute their
    label traces, and any strand returning to its own row kills the product.
    """
    prod = dalg.mul(dalg.unit_assembly(f_pd), dalg.unit_assembly(e_pd))
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


def _lowest(F, n, result):
    """Fewest horizontal edges in the support of a ``product`` result (n when
    the product is zero)."""
    edges, c, top = result
    return n if (not c if edges is None else F.is_zero(c)) else top


def layer_ideal_indices(dalg: DiagramAlgebra, l: int):
    """Coordinates of the basis diagrams with at least l horizontal edges."""
    return [i for i, h in enumerate(dalg.basis_layers()) if h >= l]


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
    members = layer_ideal_indices(dalg, l)
    F, n, product = dalg.field, dalg.kind.n, dalg.product

    def lowest(i, j):
        key = i * dim + j
        got = table.get(key)
        if got is None:
            got = table[key] = _lowest(F, n, product(basis[i], basis[j]))
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
    up to 200 of them, on 600 seeded pairs above.  At l >= 1 the lowest
    layer of each product computed is written into ``table``, as
    ``check_layer_ideal_closed`` reads it.

    Each slot (top, bottom, wreath key) is assembled once, and the
    roundtrip, involution and multiplication checks read the assemblies.
    Each checked pair costs one ``DiagramAlgebra.product``, compared by
    edges and coefficient with a single-term wreath side, and as element
    dicts otherwise.  The wreath side is ``W.pair_mul(k1, k2)`` when P = 1
    and the form is 1.  Otherwise b_k1 * phi(bot1, top2) is formed once per
    (k1, bot1, top2) through W's product cache, and its product with b_k2,
    through ``W.pair_mul``, once per (k1, bot1, top2, k2).
    """
    if W is None:
        W = small_algebra(dalg, l)
    F = dalg.field
    basis = dalg.basis()
    dim = len(basis)
    at = [i for i, h in enumerate(dalg.basis_layers()) if h == l]
    layer = [basis[i] for i in at]
    partials = dalg.enumerate_partials(l)
    P, Wd = len(partials), W.dim
    config = {p: t for t, p in enumerate(partials)}
    failures = []

    expected = P * P * Wd
    # slot (top * P + bottom) * Wd + k: the diagram assembled from its factors
    assembled = [dalg.layer_assemble_key(top, bottom, key)
                 for top in partials for bottom in partials for key in W.basis_keys]

    def assemble_vec(top, bottom, wreath_vec):
        base = (top * P + bottom) * Wd
        return {assembled[base + k]: c for k, c in wreath_vec.items()}

    factored = [dalg.layer_factorize(d) for d in layer]
    fac = [(config[top], config[bottom], W.key_index[key]) for top, bottom, key in factored]
    bijective = (len(layer) == expected and len(set(factored)) == len(layer))
    for d, (top, bottom, k) in zip(layer, fac):
        if assembled[(top * P + bottom) * Wd + k] != d:
            bijective = False
            failures.append({"check": "roundtrip", "diagram": dalg.label(d)})
            break

    involution_ok = True
    for d, (top, bottom, k) in zip(layer, fac):
        if dalg.involution_key(d) != assemble_vec(bottom, top, W.involution_rows[k]):
            involution_ok = False
            failures.append({"check": "involution", "diagram": dalg.label(d)})
            break

    forms = contraction_forms(dalg, W, l)
    left_cache = {}   # (k1 * P + bot1) * P + top2 -> b_k1 * phi(bot1, top2)
    wreath_cache = {}   # ((k1 * P + bot1) * P + top2) * Wd + k2 -> wreath side

    def wreath_side(k1, bot1, top2, k2):
        key = (k1 * P + bot1) * P + top2
        left = left_cache.get(key)
        if left is None:
            left = left_cache[key] = W.mul(W.basis_vec(k1), forms[bot1][top2])
        got = {}
        for m, c in left.items():
            vec_iadd(F, got, c, W.pair_mul(m, k2))
        return got

    # one configuration and phi = 1: the wreath side is b_k1 * b_k2
    unit_form = P == 1 and forms[0][0] == W.unit
    pairs, pairs_checked, sampled = index_cases((len(layer), len(layer)), 200, 600, seed)
    multiplicative = True
    pair_mul, product, n = W.pair_mul, dalg.product, dalg.kind.n
    for i, j in pairs:
        top1, bot1, k1 = fac[i]
        top2, bot2, k2 = fac[j]
        if unit_form:
            wprod = pair_mul(k1, k2)
        else:
            key = ((k1 * P + bot1) * P + top2) * Wd + k2
            wprod = wreath_cache.get(key)
            if wprod is None:
                wprod = wreath_cache[key] = wreath_side(k1, bot1, top2, k2)
        edges, c, top = got = product(layer[i], layer[j])
        if l:
            table[at[i] * dim + at[j]] = _lowest(F, n, got)
        if edges is not None and len(wprod) <= 1:
            if wprod:
                (m, cw), = wprod.items()
                ok = edges == assembled[(top1 * P + bot2) * Wd + m].edges and c == cw
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

    return {"l": l, "rankV": P, "dimSmall": Wd, "layerDim": expected,
            "psiBijective": bijective, "psiMultiplicative": multiplicative,
            "involutionOK": involution_ok, "pairsChecked": pairs_checked,
            "sampled": sampled, "failures": failures}


def verify_decomposition(dalg: DiagramAlgebra, seed=0) -> dict:
    basis = dalg.basis()
    bound = dalg.layer_bound()
    # one table for the run: the chain reads the products the layer checks
    # computed, and computes each other product once for every l
    table = {}
    layers = [verify_layer(dalg, l, seed, table) for l in range(bound + 1)]

    chain_ok = True
    ideal_witnesses = []
    counts = [sum(h >= l for h in dalg.basis_layers()) for l in range(bound + 2)]
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
