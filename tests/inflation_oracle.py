"""Test oracle: the layer and ideal-chain checks of ``diagalg.inflation``,
recomputed pair by pair.

The ideal chain multiplies both sides of every visited (basis, member) pair
afresh at each layer l.  The layer check assembles each right-hand side
anew and forms b_k1 * phi * b_k2 through the wreath algebra's cached
product, so it shares none of the library's product table, assembly memo or
uncached wreath products.  It visits the same pairs with the same bounds
(150 / 1000 for the chain, 200 / 600 for a layer), so on any algebra, a
tampered one included, the library must report the same witnesses, failures
and flags.
"""

from diagalg.algebra_kernel import index_cases
from diagalg.inflation import contraction_form, small_algebra


def horizontal(d, n):
    """Horizontal edges per row of a diagram on n columns."""
    return sum(1 for (_, v, _) in d.edges if v < n)


def layer_diagrams(dalg, l):
    """The basis diagrams with exactly l horizontal edges per row."""
    return [d for d in dalg.basis() if horizontal(d, dalg.kind.n) == l]


def _assemble(dalg, W, top, bottom, idx_vec):
    """The element of the wreath vector idx_vec between two configurations."""
    return {dalg.layer_assemble_key(top, bottom, W.basis_keys[i]): c for i, c in idx_vec.items()}


def ideal_witness_by_pairs(dalg, l, seed=0):
    """First (basis, member) pair whose product leaves J_l, or None."""
    n = dalg.kind.n
    basis = dalg.basis()
    members = [d for d in basis if horizontal(d, n) >= l]
    pairs, _, _ = index_cases((len(basis), len(members)), 150, 1000, seed)
    for i, t in pairs:
        b, d = basis[i], members[t]
        for side in (dalg.mul_diagrams(b, d), dalg.mul_diagrams(d, b)):
            for prod in side:
                if horizontal(prod, n) < l:
                    return (b, d)
    return None


def layer_report_by_pairs(dalg, l, seed=0):
    """Report dict of checks (a)-(c) at layer l, every product recomputed."""
    W = small_algebra(dalg, l)
    layer = layer_diagrams(dalg, l)
    partials = dalg.enumerate_partials(l)
    failures = []

    factored = [dalg.layer_factorize(d) for d in layer]
    expected = len(partials) ** 2 * W.dim
    bijective = (len(layer) == expected and len(set(factored)) == len(layer))
    for d, (top, bottom, key) in zip(layer, factored):
        if dalg.layer_assemble_key(top, bottom, key) != d:
            bijective = False
            failures.append({"check": "roundtrip", "diagram": dalg.label(d)})
            break

    involution_ok = True
    for d, (top, bottom, key) in zip(layer, factored):
        lhs = dalg.involution_key(d)
        starred = W.involve(W.basis_vec(W.key_index[key]))
        if lhs != _assemble(dalg, W, bottom, top, starred):
            involution_ok = False
            failures.append({"check": "involution", "diagram": dalg.label(d)})
            break

    pairs, pairs_checked, sampled = index_cases((len(layer), len(layer)), 200, 600, seed)
    phi_cache = {}
    multiplicative = True
    for i, j in pairs:
        d1, d2 = layer[i], layer[j]
        top1, bot1, key1 = factored[i]
        top2, bot2, key2 = factored[j]
        phi = phi_cache.get((bot1, top2))
        if phi is None:
            phi = phi_cache[bot1, top2] = contraction_form(dalg, W, bot1, top2)
        lhs = dalg.truncate_above_layer(dalg.mul_diagrams(d1, d2), l)
        wprod = W.mul(W.mul(W.basis_vec(W.key_index[key1]), phi),
                      W.basis_vec(W.key_index[key2]))
        if lhs != _assemble(dalg, W, top1, bot2, wprod):
            multiplicative = False
            failures.append({"check": "multiplicative",
                             "pair": [dalg.label(d1), dalg.label(d2)]})
            if len(failures) > 5:
                break

    return {"l": l, "rankV": len(partials), "dimSmall": W.dim, "layerDim": expected,
            "psiBijective": bijective, "psiMultiplicative": multiplicative,
            "involutionOK": involution_ok, "pairsChecked": pairs_checked,
            "sampled": sampled, "failures": failures}


def decomposition_by_pairs(dalg, seed=0):
    """(idealWitnesses, layer dicts) as ``verify_decomposition`` reports them."""
    bound = dalg.layer_bound()
    witnesses = []
    for l in range(bound + 1):
        w = ideal_witness_by_pairs(dalg, l, seed)
        if w is not None:
            witnesses.append({"l": l, "pair": [dalg.label(w[0]), dalg.label(w[1])]})
    layers = [layer_report_by_pairs(dalg, l, seed) for l in range(bound + 1)]
    return witnesses, layers
