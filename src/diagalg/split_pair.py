"""Corner split quotients and the induction / restriction functor pair.

For a diagram algebra D with layer idempotent e at depth l:

* the corner e*D*e is isomorphic to the diagram algebra on the free columns
  through mu, which sends a small diagram d to e*d'*e where d' adds identity
  strands through the cup block; the corner is read in the small algebra's
  basis through mu.  At l = 0, e = 1 and the small algebra is D itself.
  mu(d) is a nonzero multiple of one diagram iota(d), iota is injective, and
  the corner products e*b*e lie on iota's diagrams: dim e*D*e is a count;
* reading the exactly-l part of a corner element as a decorated permutation
  of the free strands gives a surjection ``alpha`` onto the wreath algebra W
  of the layer, split by mu of the layer-0 small diagrams, which it sends to
  W's basis.  Its kernel is mu of the first layer ideal J_1 of the small
  algebra, certified at every l;
* the transfer bimodule S = W (x)_{corner} e*D is the quotient of e*D by
  ker(alpha)*e*D, which is e*D meet J_{l+1}: the class [x] of x is its
  exactly-l part, read through the layer factorization with one coordinate
  per layer-l diagram (e_top, f, key).  W acts on the key, so S is left-free
  on the diagrams (e_top, f, identity).  The run certifies the reading: it
  kills ker(alpha)*e*D, and it is onto rank V * dim W = dim S coordinates.

mu, alpha and its section are checked as algebra maps on the unit and the
generators of their source (``check_algebra_map``), which generate it, a
premise the check certifies.

S*e is isomorphic to W as a right W-module through w -> w*[e] = [sigma(w)],
with sigma = mu o s for the section s of alpha.  It has no check of its
own, as the certificates above give it:

* ``cornerIso`` gives e*D*e = mu(small), with mu an injective algebra map;
* ``alpha`` gives small = s(W) + J_1, a direct sum, with s multiplicative;
  so e*D*e = sigma(W) + mu(J_1);
* ``transfer`` (``S_is_layer_part``) makes S the reading;
* so S*e = [e*D*e] = [sigma(W)], because mu(j) = mu(j)*e lies in
  ker(alpha)*e*D;
* w -> [sigma(w)] is injective: if [sigma(w)] = 0, then sigma(w) =
  sigma(w)*e lies in mu(J_1)*e*D*e = mu(J_1), J_1 being an ideal, and
  mu(J_1) meets sigma(W) in 0;
* it is a module map because sigma is multiplicative.

Induction tensors against S, so dim ind M = rank V * dim M; the left
coordinates of (e_top, f, identity) * b are the keys of one diagram product,
read as above.  Restriction multiplies by e and restricts along the
W-embedding; ``natural_unit_iso`` realizes M = res(ind M) through the class
of e, which is the unit of the split-pair adjunction, and the regular
sample's unit map checks that path in every report.  Induced and restricted
modules build each matrix on first use.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra_kernel import (
    FinAlgebra,
    LazyAction,
    ModuleMap,
    RightModule,
    check_algebra_map,
    direct_sum,
    ext1_dims,
    free_presentation,
    hom_space,
    hom_spaces,
    quotient_module,
    regular_module,
    stable_action,
)
from .diagrams import Diagram, DiagramAlgebra, diagram_fin_algebra
from .inflation import contraction_forms, layer_ideal_indices, small_algebra
from .input_algebra import perm_sign
from .linalg import (
    Echelon,
    entry_iadd,
    identity_rows,
    kernel_basis,
    mat_mul,
    transpose_rows,
)


class SplitPairError(ValueError):
    pass


# ---------------------------------------------------------------------------
# corner split quotient at depth l
# ---------------------------------------------------------------------------

class CornerSplitDatum:
    def __init__(self, dalg: DiagramAlgebra, big: FinAlgebra, l: int):
        self.dalg = dalg
        self.big = big
        self.layer = l
        self.field = big.field
        self.unit_label = dalg.A.unit_basis_index()
        if self.unit_label is None:
            raise SplitPairError("corner machinery needs the input-algebra unit "
                                 "to be a basis element")

        self.idem = dalg.layer_idempotent(l)
        e = self.idem_vec = {big.key_index[d]: c for d, c in self.idem.items()}
        if big.mul(e, e) != e:
            raise SplitPairError("element is not idempotent")
        (self._e_diag, self._e_pref), = self.idem.items()
        self.e_top, self.e_bottom, _ = dalg.layer_factorize(self._e_diag)
        # S has W.dim coordinates per bottom configuration
        self.bottom_configs = dalg.enumerate_partials(l)
        self._slot = {f: s for s, f in enumerate(self.bottom_configs)}
        self.n_l = len(self.bottom_configs)

        # the diagrams of the corner products e*b*e span e*D*e; as they are
        # mu's (verify_corner_iso), their number is its dimension
        self._corner_support = set()
        for i in range(big.dim):
            self._corner_support.update(big.mul(big.mul(e, big.basis_vec(i)), e))
        self.corner_dim = len(self._corner_support)
        # D itself at l = 0, else never larger than big, which is capped
        self.small_dalg = DiagramAlgebra(dalg.kind.free_columns(l), dalg.A) if l else dalg
        self.small_big = diagram_fin_algebra(self.small_dalg, cap=big.dim) if l else big
        self.W = small_algebra(dalg, l)
        self._coords = [self._coordinate(d) for d in big.basis_keys]

        self.mu_rows = [self._mu(d) for d in self.small_big.basis_keys]
        self._first_layer = layer_ideal_indices(self.small_dalg, self.small_big, 1)

        self._build_alpha()
        self._build_transfer_bimodule()
        self._build_left_basis()
        self._e_class = self._to_S(self.idem_vec)
        self._induce_decomp_cache = {}

    # -- corner isomorphism ---------------------------------------------------

    def embed_small_diagram(self, d: Diagram) -> Diagram:
        """Add identity strands through the cup block of the idempotent: the
        2l columns at the small algebra's wall (its right end for abrauer),
        past which the small diagram's later columns move."""
        n, l = self.dalg.kind.n, self.layer
        m, wall = self.small_dalg.kind.n, self.small_dalg.kind.wall
        block = m if wall is None else wall

        def col(c):
            return c if c < block else c + 2 * l
        edges = []
        for (u, v, k) in d.edges:
            uu = col(u) if u < m else n + col(u - m)
            vv = col(v) if v < m else n + col(v - m)
            edges.append((uu, vv, k) if uu < vv else (vv, uu, k))
        for c in range(block, block + 2 * l):
            edges.append((c, n + c, self.unit_label))
        out = Diagram(tuple(sorted(edges)))
        self.dalg.check_diagram(out)
        return out

    def _mu(self, d: Diagram):
        big = self.big
        emb = {big.key_index[self.embed_small_diagram(d)]: self.field.one}
        return big.mul(big.mul(self.idem_vec, emb), self.idem_vec)

    def verify_corner_iso(self) -> dict:
        """mu: d -> e d' e is a bijection onto e*D*e: each row is one term on a
        diagram iota(d), no two share it, and the diagrams of the products
        e*b*e, which span e*D*e, are iota's.  It is an algebra map with mu(1)
        = e, checked on the unit and the small algebra's generators, which
        generate it, as the same check certifies (``check_algebra_map``)."""
        failures = []
        iota = {i for row in self.mu_rows for i in row}
        if any(len(row) != 1 for row in self.mu_rows) or len(iota) != len(self.mu_rows):
            failures.append({"check": "mu_monomial", "diagrams": len(iota)})
        elif self._corner_support != iota:
            failures.append({"check": "corner_is_mu_image",
                             "diagram": min(self._corner_support ^ iota)})
        match check_algebra_map(self.small_big, self.big, self.mu_rows, unit=self.idem_vec):
            case ("unit",):
                failures.append({"check": "unital"})
            case ("generators", dim):
                failures.append({"check": "generators_generate", "generatedDim": dim})
            case ("mult", x, k):
                failures.append({"check": "multiplicative", "pair": [x, k]})
        return {"ok": not failures, "failures": failures,
                "cornerDim": self.corner_dim, "smallDim": self.small_big.dim}

    # -- alpha: corner onto the wreath algebra ----------------------------------

    def _coordinate(self, d):
        """Coordinate in S of a basis diagram: slot(f) * W.dim + key for the
        layer-l diagram (e_top, f, key), -1 above layer l, None otherwise."""
        h = self.dalg.layer(d)
        if h != self.layer:
            return -1 if h > self.layer else None
        top, bottom, key = self.dalg.layer_factorize(d)
        if top != self.e_top:
            return None
        return self._slot[bottom] * self.W.dim + self.W.key_index[key]

    def _to_S(self, big_vec):
        """Class in S of an element of e*D: its exactly-l part, read through
        the layer factorization."""
        out = {}
        for i, c in big_vec.items():
            s = self._coords[i]
            if s is None:
                raise SplitPairError("element of e*D with a term below its layer "
                                     "or with a foreign top configuration")
            if s >= 0:
                out[s] = c
        return out

    def _alpha(self, y):
        """alpha of a corner element y: its exactly-l part, read in the block
        of the bottom e_bottom and normalised by the idempotent's prefactor."""
        F, W = self.field, self.W
        if not self._corner_support.issuperset(y):
            raise SplitPairError("vector outside the corner")
        read = self._to_S(y)
        base = self._slot[self.e_bottom] * W.dim
        if not all(base <= s < base + W.dim for s in read):
            raise SplitPairError("corner element with a foreign bottom configuration")
        norm = F.inv(self._e_pref)
        return {s - base: F.mul(norm, c) for s, c in read.items()}

    def _build_alpha(self):
        """alpha on the small basis through mu; the section sends a wreath
        key to mu of the layer-0 small diagram that carries it."""
        self.alpha_rows = [self._alpha(row) for row in self.mu_rows]
        empty = self.small_dalg.enumerate_partials(0)[0]
        self._section_index = [
            self.small_big.key_index[self.small_dalg.layer_assemble_key(empty, empty, key)]
            for key in self.W.basis_keys]
        self.section_big = [self.mu_rows[i] for i in self._section_index]

    def verify_alpha(self) -> dict:
        """alpha is a split surjective algebra map, and its kernel is mu of the
        first layer ideal J_1 of the small algebra, which the transfer
        bimodule assumes.  Each is checked on the small algebra, which
        verify_corner_iso certifies mu to carry isomorphically onto e*D*e.
        alpha_splits makes alpha onto: dim ker(alpha) = dim e*D*e - dim W."""
        small, W = self.small_big, self.W
        failures = []
        witness = check_algebra_map(small, W, self.alpha_rows)
        if witness is not None:
            failures.append({"check": "alpha_algebra_map", "witness": list(witness)})
        for w, i in enumerate(self._section_index):
            if self.alpha_rows[i] != W.basis_vec(w):
                failures.append({"check": "alpha_splits", "basis": w})
                break
        section = [small.basis_vec(i) for i in self._section_index]
        if check_algebra_map(W, small, section) is not None:
            failures.append({"check": "section_algebra_map"})
        ideal = self._first_layer
        killed = all(not self.alpha_rows[i] for i in ideal)
        if not (killed and self.corner_dim - W.dim == len(ideal)):
            failures.append({"check": "kernel_is_first_layer", "kernel": len(ideal)})
        return {"ok": not failures, "failures": failures,
                "kernelDim": self.corner_dim - W.dim}

    # -- the transfer bimodule S -------------------------------------------------

    def _build_transfer_bimodule(self):
        """dim S = dim e*D - dim ker(alpha)*e*D as ranks over big coordinates,
        and whether the reading ``_to_S`` of e*D, every row of which is read
        (raising on a term below layer l or a foreign top configuration),
        kills the products spanning ker(alpha)*e*D.  Its rank is a count:
        ``left_free`` reads sigma(w)*(e_top, f, identity) in e*D as the
        coordinate (f, w) for every f and w, so the reading is onto rank V *
        dim W coordinates.  Killing the relations, it factors through S;
        with dim S = rank V * dim W (``S_dim``), the (e_top, f, key)
        diagrams then read a basis of S.
        """
        F, big = self.field, self.big
        eD = Echelon(F).insert_all(big.mul(self.idem_vec, big.basis_vec(j))
                                   for j in range(big.dim))
        rows = eD.basis_rows()
        for r in rows:
            self._to_S(r)
        # verify_alpha certifies that these span ker(alpha); at l = 0 mu is
        # the identity on diagrams and ker(alpha) = J_1 is a right ideal
        ker = [self.mu_rows[i] for i in self._first_layer]
        relations = ker if self.layer == 0 else [big.mul(k, r) for k in ker for r in rows]
        self.S_dim = eD.dim - Echelon(F).insert_all(relations).dim
        self.read_kills_relations = not any(map(self._to_S, relations))

    # -- left basis ---------------------------------------------------------------

    def _build_left_basis(self):
        """The diagrams (e_top, f, identity), one per bottom configuration f.

        left_free: mu(w) * (e_top, f, identity) reads as (e_top, f, key w)
        for every wreath basis element w, so the coordinate slot * W.dim + w
        of S is w * (left basis slot), and S is left-free on this basis.
        """
        F, big, W = self.field, self.big, self.W
        m = len(self.dalg.configuration(self.e_top)[0])
        id_key = (tuple([self.unit_label] * m), tuple(range(m)))
        self.left_basis = [self.dalg.layer_assemble_key(self.e_top, f, id_key)
                           for f in self.bottom_configs]
        self.left_free = all(
            self._to_S(big.mul(self.section_big[w], {big.key_index[d]: F.one}))
            == {slot * W.dim + w: F.one}
            for slot, d in enumerate(self.left_basis) for w in range(W.dim))

    def _left_coords(self, s_vec):
        """Coefficients (config slot -> wreath vector) over the left basis."""
        out = {}
        for idx, c in s_vec.items():
            slot, w = divmod(idx, self.W.dim)
            out.setdefault(slot, {})[w] = c
        return out

    def verify_transfer_bimodule(self) -> dict:
        """Left-freeness of rank rank(V) and S read from the layer
        factorization.  With ``verify_corner_iso`` and ``verify_alpha`` these
        give S*e = W through the class of e (module docstring); the unit maps
        of the report's samples read that class."""
        failures = []
        expected = self.n_l * self.W.dim
        if self.S_dim != expected:
            failures.append({"check": "S_dim", "got": self.S_dim, "expected": expected})
        if not self.read_kills_relations:
            failures.append({"check": "S_is_layer_part"})
        if not self.left_free:
            failures.append({"check": "left_free"})
        return {"ok": not failures, "failures": failures,
                "SDim": self.S_dim, "rankV": self.n_l, "wreathDim": self.W.dim}

    def certificates(self) -> dict:
        """The corner, alpha and transfer certificates, keyed as the split-pair
        report keys them; the Hom and Ext^1 comparisons rest on them too."""
        return {"cornerIso": self.verify_corner_iso(), "alpha": self.verify_alpha(),
                "transfer": self.verify_transfer_bimodule()}

    def _ind_row(self, M, i, slots):
        """m_i (x) sum over slots of (left basis slot) * w_vec, in ind M
        coordinates (ii, slot) -> ii * rank V + slot."""
        F = self.field
        row = {}
        for slot, w_vec in slots.items():
            for ii, c in M.act({i: F.one}, w_vec).items():
                entry_iadd(F, row, ii * self.n_l + slot, c)
        return row

    # -- the functors ---------------------------------------------------------------

    def induce(self, M: RightModule) -> RightModule:
        """M over the wreath algebra, tensored against the transfer bimodule."""
        if M.algebra.dim != self.W.dim:
            raise SplitPairError("module is not over the layer wreath algebra")

        def rows_for(b):
            decomp = self._induce_decomp(b)
            return [self._ind_row(M, i, slots)
                    for i in range(M.dim) for slots in decomp]

        return RightModule(self.big, M.dim * self.n_l, LazyAction(self.big.dim, rows_for),
                           name=f"ind_{self.layer}({M.name})")

    def _induce_decomp(self, b):
        """Left coordinates of (left basis k) * b for every k, one diagram
        product each: the part of the action of b on ind M that does not
        depend on M."""
        decomp = self._induce_decomp_cache.get(b)
        if decomp is None:
            d_b, index = self.big.basis_keys[b], self.big.key_index
            mul = self.dalg.mul_diagrams
            decomp = self._induce_decomp_cache[b] = [
                self._left_coords(self._to_S({index[x]: c for x, c in mul(d, d_b).items()}))
                for d in self.left_basis]
        return decomp

    def induce_map(self, f: ModuleMap, src_ind, dst_ind) -> ModuleMap:
        """f tensored with S, between the inductions of its source and target."""
        n_l = self.n_l
        rows = []
        for i in range(f.source.dim):
            for k in range(n_l):
                rows.append({j * n_l + k: c for j, c in f.rows[i].items()})
        return ModuleMap(src_ind, dst_ind, rows)

    def restrict(self, N: RightModule) -> RightModule:
        """N*e with the wreath algebra acting through the corner embedding."""
        if N.algebra is not self.big and N.algebra.dim != self.big.dim:
            raise SplitPairError("module is not over the diagram algebra")
        img = Echelon(self.field).insert_all(N.action_rows(self.idem_vec))
        rows = img.basis_rows()

        def coords(v):
            got = img.coords(v)
            if got is None:
                raise SplitPairError("restriction escaped N*e")
            return got

        def rows_for(w):
            return [coords(N.act(r, self.section_big[w])) for r in rows]

        # built now for W's generators and unit, so a section leaving N*e raises
        action = stable_action(self.W, LazyAction(self.W.dim, rows_for))
        for w in self.W.unit:
            action[w]
        res = RightModule(self.W, len(rows), action, name=f"res_{self.layer}({N.name})")
        res.subspace_rows = rows
        res.subspace_coords = coords
        return res

    def restrict_map(self, f: ModuleMap, src_res, dst_res) -> ModuleMap:
        rows = [dst_res.subspace_coords(f.apply(r)) for r in src_res.subspace_rows]
        return ModuleMap(src_res, dst_res, rows)

    def natural_unit_iso(self, M: RightModule):
        """The map M -> res(ind M), m -> m (x) [e], through the class of e.
        It is an isomorphism when the datum's certificates pass, as S*e = W
        through w -> w*[e] (module docstring); the report checks it on each
        sample, where a wrong class fails the module-map or bijection check."""
        ind = self.induce(M)
        res = self.restrict(ind)
        slots = self._left_coords(self._e_class)
        rows = [res.subspace_coords(ind.act(self._ind_row(M, i, slots), self.idem_vec))
                for i in range(M.dim)]
        return ModuleMap(M, res, rows), ind, res


def corner_split_datum(dalg: DiagramAlgebra, big: FinAlgebra, l: int):
    return CornerSplitDatum(dalg, big, l)


# ---------------------------------------------------------------------------
# short exact sequences and the exactness verdicts
# ---------------------------------------------------------------------------

class ShortExactSequence(NamedTuple):
    incl: ModuleMap
    proj: ModuleMap
    name: str = "ses"

    @property
    def sub(self):
        return self.incl.source

    @property
    def mid(self):
        return self.incl.target

    @property
    def quot(self):
        return self.proj.target

    def is_exact(self):
        F = self.mid.algebra.field
        if self.mid.dim != self.sub.dim + self.quot.dim:
            return False
        if self.incl.image_rank() != self.sub.dim:
            return False
        if self.proj.image_rank() != self.quot.dim:
            return False
        comp = mat_mul(F, self.incl.rows, self.proj.rows)
        return all(not r for r in comp)

    def is_split(self):
        """Does the projection admit a module section?"""
        F = self.mid.algebra.field
        if self.quot.dim == 0:
            return True
        q = self.quot.dim
        ech = Echelon(F).insert_all(_flatten_rows(mat_mul(F, h.rows, self.proj.rows), q)
                                    for h in hom_space(self.quot, self.mid))
        return ech.contains(_flatten_rows(identity_rows(F, q), q))


def presentation_sequence(M) -> ShortExactSequence:
    pres = free_presentation(M)
    return ShortExactSequence(pres.incl, pres.proj, name=f"presentation({M.name})")


def split_control_sequence(M, M2) -> ShortExactSequence:
    both = direct_sum(M, M2)
    F = M.algebra.field
    incl = ModuleMap(M, both, [{i: F.one} for i in range(M.dim)])
    proj = ModuleMap(both, M2, [{} for _ in range(M.dim)]
                     + [{j: F.one} for j in range(M2.dim)])
    return ShortExactSequence(incl, proj, name="split-control")


def coordinate_submodule(big, indices, name):
    """Right module on a subset of basis coordinates closed under the action."""
    pos = {i: t for t, i in enumerate(indices)}

    def rows_for(b):
        try:
            return [{pos[j]: c for j, c in big.mul_basis(i, b).items()} for i in indices]
        except KeyError as exc:
            raise SplitPairError(f"coordinate span not action-stable: {exc}")

    action = stable_action(big, LazyAction(big.dim, rows_for))
    return RightModule(big, len(indices), action, name=name)


def chain_ideal_sequence(dalg, big, l) -> ShortExactSequence:
    """0 -> J_{l+1} -> J_l -> J_l / J_{l+1} -> 0 as right modules.  The
    quotient and its projection come from ``quotient_module``, which
    certifies that J_{l+1} is action-stable inside J_l."""
    upper = layer_ideal_indices(dalg, big, l)
    lower = set(layer_ideal_indices(dalg, big, l + 1))
    J_l = coordinate_submodule(big, upper, name=f"J{l}")
    J_next = coordinate_submodule(big, [i for i in upper if i in lower], name=f"J{l + 1}")
    incl = ModuleMap(J_next, J_l, [{t: big.field.one} for t, i in enumerate(upper) if i in lower])
    _, proj = quotient_module(J_l, incl.rows, name=f"J{l}/J{l + 1}")
    return ShortExactSequence(incl, proj, name=f"layer-chain({l})")


def cell_head_sequence(datum, char_module) -> ShortExactSequence:
    """Presentation sequence of the head of an induced character module.

    The pairing of two bottom configurations through the layer contraction
    form, evaluated in the one-dimensional character, gives the Gram matrix
    of the induced module; its kernel is a submodule, and quotienting it
    away produces the simple-headed quotient whose free cover is the
    standard source of non-split sequences over the diagram algebra.
    """
    if char_module.dim != 1:
        raise SplitPairError("cell head construction needs a character module")
    F = datum.field
    ind = datum.induce(char_module)

    def char(w_vec):
        """The character on w_vec, as a vector with no term or one nonzero."""
        return char_module.act({0: F.one}, w_vec)

    gram = [{j: c for j, phi in enumerate(row) for c in char(phi).values()}
            for row in contraction_forms(datum.dalg, datum.W, datum.layer)]
    rad = kernel_basis(F, transpose_rows(gram, len(gram)), len(gram))
    head, _ = quotient_module(ind, rad, name=f"head({ind.name})")
    return presentation_sequence(head)


def apply_functor_to_sequence(seq, on_module, on_map) -> ShortExactSequence:
    sub = on_module(seq.sub)
    mid = on_module(seq.mid)
    quot = on_module(seq.quot)
    incl = on_map(seq.incl, sub, mid)
    proj = on_map(seq.proj, mid, quot)
    return ShortExactSequence(incl, proj, name=f"F({seq.name})")


def induce_sequence(datum, seq) -> ShortExactSequence:
    return apply_functor_to_sequence(seq, datum.induce, datum.induce_map)


def restrict_sequence(datum, seq) -> ShortExactSequence:
    return apply_functor_to_sequence(seq, datum.restrict, datum.restrict_map)


# ---------------------------------------------------------------------------
# sample modules over wreath algebras
# ---------------------------------------------------------------------------

def character_module(W, scalar_of_key, name):
    F = W.field
    action = []
    for key in W.basis_keys:
        c = scalar_of_key(key)
        action.append([{0: c}] if not F.is_zero(c) else [{}])
    return RightModule(W, 1, action, name=name)


def wreath_trivial_module(W):
    return character_module(W, lambda key: W.field.one, name="trivial")


def wreath_sign_module(W):
    return character_module(W, lambda key: W.field.from_int(perm_sign(key[1])),
                            name="sign")


def default_sample_modules(W):
    """Regular, trivial and sign modules, trivial+sign and trivial+sign+trivial."""
    triv, sign = wreath_trivial_module(W), wreath_sign_module(W)
    both = direct_sum(triv, sign)
    return [regular_module(W), triv, sign, both, direct_sum(both, triv)]


# ---------------------------------------------------------------------------
# full verification reports
# ---------------------------------------------------------------------------

# largest dim(quotient) * dim(middle) whose splitting a report certifies
SPLIT_LIMIT = 4000


def verify_exact_split_pair(datum, samples=None) -> dict:
    """Everything the split pair promises, on explicit witnesses.

    Checks the corner isomorphism, the split surjection alpha, freeness of
    the transfer bimodule, res(ind M) = M through the natural unit map for
    every sample (also confirming the map lies in the solved hom space),
    naturality on a basis of one Hom space between samples, and exactness
    of ind on the small-side and of res on the big-side sequences (split
    status recorded per sequence).  With the datum alone it is the standard
    report: the five ``default_sample_modules``, presentation(trivial) and
    split-control(trivial, sign) over W, layer-chain(l) and the cell head
    of ind(trivial) over D.  Given samples, no sequences run.
    """
    small_sequences, big_sequences = [], []
    if samples is None:
        triv, sign = wreath_trivial_module(datum.W), wreath_sign_module(datum.W)
        samples = default_sample_modules(datum.W)
        small_sequences = [presentation_sequence(triv), split_control_sequence(triv, sign)]
        big_sequences = [chain_ideal_sequence(datum.dalg, datum.big, datum.layer),
                         cell_head_sequence(datum, triv)]
    F = datum.field
    certificates = datum.certificates()
    report = {
        "kind": datum.dalg.kind.family,
        "layer": datum.layer,
        **certificates,
        "samples": [],
        "sequences": [],
    }

    etas = []
    for M in samples:
        eta, ind, res = datum.natural_unit_iso(M)
        entry = {
            "module": M.name or f"dim{M.dim}",
            "dimM": M.dim,
            "dimInd": ind.dim,
            "dimIndExpected": datum.n_l * M.dim,
            "dimIndOK": ind.dim == datum.n_l * M.dim,
            "unitMapIsModuleMap": eta.is_module_map(),
            "unitMapIsIso": eta.is_iso(),
        }
        ech = Echelon(F).insert_all(_flatten_rows(h.rows, res.dim) for h in hom_space(M, res))
        entry["unitMapInHomSpace"] = ech.contains(_flatten_rows(eta.rows, res.dim))
        etas.append((M, eta, ind, res))
        report["samples"].append(entry)

    report["naturality"] = _check_naturality(datum, etas)

    sides = [("small", induce_sequence, "inducedExact", small_sequences),
             ("big", restrict_sequence, "restrictedExact", big_sequences)]
    for side, functor, key, seqs in sides:
        for seq in seqs:
            report["sequences"].append({
                "name": seq.name, "side": side, "exact": seq.is_exact(),
                # None when too large to certify; exactness is still checked
                "split": seq.is_split() if seq.quot.dim * seq.mid.dim <= SPLIT_LIMIT else None,
                key: functor(datum, seq).is_exact()})

    report["ok"] = (all(c["ok"] for c in certificates.values())
                    and all(s["dimIndOK"] and s["unitMapIsModuleMap"]
                            and s["unitMapIsIso"] and s["unitMapInHomSpace"]
                            for s in report["samples"])
                    and report["naturality"]["ok"]
                    and all(s["exact"] and s.get("inducedExact", True)
                            and s.get("restrictedExact", True)
                            for s in report["sequences"]))
    return report


def _flatten_rows(rows, width):
    flat = {}
    for i, r in enumerate(rows):
        for j, c in r.items():
            flat[i * width + j] = c
    return flat


def _check_naturality(datum, etas):
    """Unit-map naturality square on every map of a basis of Hom(M1, M2),
    for the first pair of distinct samples with a nonzero Hom space.

    The square is linear in the map, so the basis decides it on all of
    Hom(M1, M2).
    """
    F = datum.field
    for a in range(len(etas)):
        for b in range(len(etas)):
            if a == b:
                continue
            M1, eta1, ind1, res1 = etas[a]
            M2, eta2, ind2, res2 = etas[b]
            homs = hom_space(M1, M2)
            if not homs:
                continue
            pair = [M1.name, M2.name]
            for f in homs:
                ind_f = datum.induce_map(f, ind1, ind2)
                res_f = datum.restrict_map(ind_f, res1, res2)
                if mat_mul(F, f.rows, eta2.rows) != mat_mul(F, eta1.rows, res_f.rows):
                    return {"ok": False, "pair": pair}
            return {"ok": True, "pair": pair}
    return {"ok": True, "pair": None}


def hom_ext_transfer(datum, samples, with_ext=True) -> list:
    """Hom and first-extension dimensions on both sides of the pair, one
    report dict for every ordered pair (M, N) of samples, M the outer loop.

    Each sample is induced once.  One spin of M and one of its induction
    serve every target N, and so does one spin of each presentation kernel;
    Ext^1 reuses the Hom dimensions found here.
    """
    inds = [datum.induce(M) for M in samples]
    rows = []
    for M, ind in zip(samples, inds):
        hom_small = [len(h) for h in hom_spaces(M, samples)]
        hom_big = [len(h) for h in hom_spaces(ind, inds)]
        exts = ([ext1_dims(M, samples, hom_small), ext1_dims(ind, inds, hom_big)]
                if with_ext else [])
        for N, hs, hb, *ext in zip(samples, hom_small, hom_big, *exts):
            rep = {"M": M.name, "N": N.name, "homSmall": hs, "homBig": hb, "homEqual": hs == hb}
            if ext:
                rep.update(extSmall=ext[0], extBig=ext[1], extEqual=ext[0] == ext[1])
            rows.append({**rep, "ok": hs == hb and rep.get("extEqual", True)})
    return rows
