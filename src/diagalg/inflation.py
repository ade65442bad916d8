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

The checks share their work.  The ideal chain reads one table of lowest
layers, shared by every l, so it computes each product once; the layer
checks read the diagrams the roundtrip assembled, and keep wreath products
used by one pair out of the wreath algebra's product cache.
``diagram_fin_algebra``'s cache is not used: it is built at setup and
caches whole product vectors, which costs memory the checks do not need.
Which pairs are checked, and the bounds between exhaustive and sampled,
do not depend on this sharing.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra_kernel import FinAlgebra, index_cases
from .diagrams import DiagramAlgebra
from .input_algebra import wreath_product
from .linalg import entry_iadd, vec_iadd


def small_algebra(dalg: DiagramAlgebra, l: int) -> FinAlgebra:
    """Wreath algebra of the free strands at layer l."""
    kind = dalg.kind
    if kind.family == "abrauer":
        return wreath_product(dalg.A, kind.n - 2 * l)
    r = kind.wall
    t = kind.n - r
    return wreath_product(dalg.A, (r - l) + (t - l), wall=r - l)


def rank_v(dalg: DiagramAlgebra, l: int) -> int:
    return len(dalg.enumerate_partials(l))


def _to_key_vec(W, idx_vec):
    return {W.basis_keys[i]: c for i, c in idx_vec.items()}


def contraction_form(dalg: DiagramAlgebra, W, f_pd, e_pd):
    """Value of the layer bilinear form on (bottom config, top config).

    Computed, as in the defining construction, by multiplying the diagrams
    assembled from (f, f, id) and (e, e, id) and reading the wreath part of
    the result modulo the next layer; loops contribute their label traces,
    and any strand returning to its own row kills the product.
    """
    l = len(f_pd.edges)
    unit_keys = _to_key_vec(W, W.unit)
    df = dalg.layer_assemble(f_pd, f_pd, unit_keys)
    de = dalg.layer_assemble(e_pd, e_pd, unit_keys)
    prod = dalg.truncate_above_layer(dalg.mul(df, de), l)
    out = {}
    F = dalg.field
    for d, c in prod.items():
        top, bottom, key = dalg.layer_factorize(d)
        assert top == f_pd and bottom == e_pd, "contraction changed the configurations"
        entry_iadd(F, out, W.key_index[key], c)
    return out


def layer_ideal_indices(dalg: DiagramAlgebra, big: FinAlgebra, l: int):
    """Coordinates of the basis diagrams with at least l horizontal edges."""
    return [i for i, d in enumerate(big.basis_keys) if dalg.layer(d) >= l]


def check_layer_ideal_closed(dalg: DiagramAlgebra, l: int, seed=0, table=None):
    """Closure of the layer span under diagram multiplication.

    Uses the support of products directly: every product diagram must again
    have at least l horizontal edges.  Exhaustive up to 150 basis diagrams,
    1000 seeded (basis, member) pairs above; each pair tests b*d, then d*b.
    Returns a witness pair or None.

    ``table`` maps i * dim + j to the fewest horizontal edges in the support
    of b_i * b_j (n for a zero product).  Passed the same table for every l,
    the chain computes each product once; the pairs and bounds do not change.

    At l = 0 the span is the whole algebra and no diagram has fewer than 0
    horizontal edges, so no pair could be a witness: None, with no pair
    drawn and no product computed.
    """
    if l == 0:
        return None
    n = dalg.kind.n
    basis = dalg.basis()
    dim = len(basis)
    if table is None:
        table = {}
    members = [i for i, d in enumerate(basis) if dalg.layer(d) >= l]

    def lowest(i, j):
        key = i * dim + j
        got = table.get(key)
        if got is None:
            prod = dalg.mul_diagrams(basis[i], basis[j])
            got = table[key] = min(map(dalg.layer, prod), default=n)
        return got

    pairs, _, _ = index_cases((dim, len(members)), 150, 1000, seed)
    for i, t in pairs:
        m = members[t]
        if lowest(i, m) < l or lowest(m, i) < l:
            return (basis[i], basis[m])
    return None


class LayerReport(NamedTuple):
    layer: int
    rank_v: int
    dim_small: int
    layer_dim: int
    psi_bijective: bool
    psi_multiplicative: bool
    involution_ok: bool
    pairs_checked: int
    sampled: bool
    failures: list

    @property
    def ok(self):
        return self.psi_bijective and self.psi_multiplicative and self.involution_ok

    def as_dict(self):
        return {
            "l": self.layer,
            "rankV": self.rank_v,
            "dimSmall": self.dim_small,
            "layerDim": self.layer_dim,
            "psiBijective": self.psi_bijective,
            "psiMultiplicative": self.psi_multiplicative,
            "involutionOK": self.involution_ok,
            "pairsChecked": self.pairs_checked,
            "sampled": self.sampled,
            "failures": self.failures,
        }


def verify_layer(dalg: DiagramAlgebra, l: int, W=None, seed=0) -> LayerReport:
    """Checks (a)-(c) of the module docstring at layer l; multiplication is
    checked on every pair of layer diagrams up to 200 of them, on 600 seeded
    pairs above; sharing the work below changes neither the pairs nor the
    bounds.

    The roundtrip check assembles every layer diagram from its factors, and
    the involution and multiplication checks read those assemblies back.
    b_k1 * phi is formed once per wreath index k1 and contraction value phi;
    its product with b_k2, which one pair reads, goes through ``W.pair_mul``,
    so W's product cache keeps no product that is used once.
    """
    if W is None:
        W = small_algebra(dalg, l)
    layer = dalg.layer_basis(l)
    partials = dalg.enumerate_partials(l)
    failures = []
    F = dalg.field

    assembled = {}   # (top, bottom) -> {wreath index: diagram}

    def assemble(top, bottom, k):
        row = assembled.setdefault((top, bottom), {})
        got = row.get(k)
        if got is None:
            got = row[k] = dalg.layer_assemble_key(top, bottom, W.basis_keys[k])
        return got

    def assemble_vec(top, bottom, wreath_vec):
        out = {}
        for k, c in wreath_vec.items():
            entry_iadd(F, out, assemble(top, bottom, k), c)
        return out

    factored = [dalg.layer_factorize(d) for d in layer]
    windex = [W.key_index[key] for _, _, key in factored]
    expected = len(partials) ** 2 * W.dim
    bijective = (len(layer) == expected and len(set(factored)) == len(layer))
    for d, (top, bottom, _), k in zip(layer, factored, windex):
        if assemble(top, bottom, k) != d:
            bijective = False
            failures.append({"check": "roundtrip", "diagram": dalg.label(d)})
            break

    involution_ok = True
    for d, (top, bottom, _), k in zip(layer, factored, windex):
        lhs = dalg.involution({d: F.one})
        rhs = assemble_vec(bottom, top, W.involve(W.basis_vec(k)))
        if lhs != rhs:
            involution_ok = False
            failures.append({"check": "involution", "diagram": dalg.label(d)})
            break

    pairs, pairs_checked, sampled = index_cases((len(layer), len(layer)), 200, 600, seed)
    phi_cache = {}
    left_cache = {}   # (k1, bot1, top2) -> b_k1 * phi(bot1, top2)
    multiplicative = True
    for i, j in pairs:
        top1, bot1, _ = factored[i]
        top2, bot2, _ = factored[j]
        k1 = windex[i]
        left = left_cache.get((k1, bot1, top2))
        if left is None:
            phi = phi_cache.get((bot1, top2))
            if phi is None:
                phi = phi_cache[bot1, top2] = contraction_form(dalg, W, bot1, top2)
            left = left_cache[k1, bot1, top2] = W.mul(W.basis_vec(k1), phi)
        wprod = {}
        for m, c in left.items():
            vec_iadd(F, wprod, c, W.pair_mul(m, windex[j]))
        d1, d2 = layer[i], layer[j]
        lhs = dalg.truncate_above_layer(dalg.mul_diagrams(d1, d2), l)
        if lhs != assemble_vec(top1, bot2, wprod):
            multiplicative = False
            failures.append({"check": "multiplicative",
                             "pair": [dalg.label(d1), dalg.label(d2)]})
            if len(failures) > 5:
                break

    return LayerReport(l, len(partials), W.dim, expected, bijective,
                       multiplicative, involution_ok, pairs_checked, sampled, failures)


def verify_decomposition(dalg: DiagramAlgebra, seed=0) -> dict:
    basis = dalg.basis()
    bound = dalg.layer_bound()
    layers = [verify_layer(dalg, l, seed=seed) for l in range(bound + 1)]

    chain_ok = True
    ideal_witnesses = []
    lowest_layer = {}   # shared by every l: each product is computed once
    counts = [sum(1 for d in basis if dalg.layer(d) >= l) for l in range(bound + 2)]
    for l in range(bound + 1):
        if counts[l + 1] >= counts[l]:   # every layer is nonempty, so strictly nested
            chain_ok = False
        w = check_layer_ideal_closed(dalg, l, seed=seed, table=lowest_layer)
        if w is not None:
            chain_ok = False
            ideal_witnesses.append({"l": l, "pair": [dalg.label(w[0]), dalg.label(w[1])]})

    layer_sum = sum(rep.layer_dim for rep in layers)
    dim_ok = layer_sum == len(basis)
    return {
        "kind": dalg.kind.family,
        "params": _params_dict(dalg),
        "dim": len(basis),
        "layerSum": layer_sum,
        "dimensionIdentity": dim_ok,
        "idealChainOK": chain_ok,
        "idealWitnesses": ideal_witnesses,
        "layers": [rep.as_dict() for rep in layers],
        "rankVConvention": "(dim A)^l * n!/(l!(n-2l)!2^l): one label per "
                           "horizontal edge; exponent n in place of l would "
                           "contradict the dimension identity verified above",
        "ok": dim_ok and chain_ok and all(rep.ok for rep in layers),
    }


def _params_dict(dalg):
    kind = dalg.kind
    if kind.family == "abrauer":
        return {"n": kind.n, "dimA": dalg.A.dim}
    return {"r": kind.wall, "t": kind.n - kind.wall}
