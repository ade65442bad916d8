"""Corner split quotients and the induction / restriction functor pair.

For a diagram algebra D with layer idempotent e at depth l:

* the corner e*D*e is isomorphic to the diagram algebra on the free columns
  (the isomorphism sends a small diagram d to e*d'*e where d' adds identity
  strands through the cup block);
* reading the exactly-l part of a corner element as a decorated permutation
  of the free strands gives a surjection ``alpha`` onto the wreath algebra W
  of the layer, split by the embedding of W through the corner isomorphism;
* the transfer bimodule is S = W (x)_{corner} e*D, realized here as the
  quotient of e*D by ker(alpha)*e*D; it is left-free over W with one basis
  class for every bottom configuration, and S*e is isomorphic to W as a
  right W-module via ``theta: s -> alpha(lift(s)*e)``.

Induction tensors against S (computed through the certified left basis, so
dim ind M = rank V * dim M), restriction multiplies by e and restricts along
the W-embedding; ``natural_unit_iso`` realizes M = res(ind M) through
``theta^{-1}(1)``, which is the unit of the split-pair adjunction.  An
induced module builds each action matrix on first use, from the left
coordinates of (left basis) * b, which do not depend on M and are cached on
the datum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra_kernel import (
    FinAlgebra,
    LazyAction,
    ModuleMap,
    RightModule,
    check_algebra_map,
    corner_algebra,
    direct_sum,
    ext1_dims,
    free_presentation,
    hom_space,
    hom_spaces,
    index_cases,
    quotient_module,
    regular_module,
    stable_action,
)
from .diagrams import Diagram, DiagramAlgebra
from .inflation import layer_ideal_indices, rank_v, small_algebra
from .linalg import (
    CoordSolver,
    Echelon,
    entry_iadd,
    invert_rows,
    kernel_basis,
    mat_mul,
    transpose_rows,
    vec_iadd,
    vec_times_rows,
)


class SplitPairError(ValueError):
    pass


# ---------------------------------------------------------------------------
# split quotient onto the wreath algebra (kill every diagram with a cup)
# ---------------------------------------------------------------------------

@dataclass
class SplitQuotientDatum:
    dalg: DiagramAlgebra
    big: FinAlgebra
    small: FinAlgebra
    proj_rows: list
    embed_rows: list
    kernel_indices: list

    def verify(self, seed=0) -> dict:
        big, W = self.big, self.small
        F = big.field
        failures = []

        for w in range(W.dim):
            if vec_times_rows(F, self.embed_rows[w], self.proj_rows) != W.basis_vec(w):
                failures.append({"check": "proj_after_embed", "basis": w})
                break

        if check_algebra_map(W, big, self.embed_rows) is not None:
            failures.append({"check": "embed_is_algebra_map"})

        pairs, pairs_checked, _ = index_cases((big.dim, big.dim), 200, 1000, seed)
        for i, j in pairs:
            lhs = vec_times_rows(F, big.mul_basis(i, j), self.proj_rows)
            rhs = W.mul(vec_times_rows(F, big.basis_vec(i), self.proj_rows),
                        vec_times_rows(F, big.basis_vec(j), self.proj_rows))
            if lhs != rhs:
                failures.append({"check": "proj_multiplicative", "pair": [i, j]})
                break
        if vec_times_rows(F, big.unit, self.proj_rows) != W.unit:
            failures.append({"check": "proj_unital"})

        ker_ok = all(not vec_times_rows(F, big.basis_vec(i), self.proj_rows)
                     for i in self.kernel_indices)
        rank = Echelon(F).insert_all(self.proj_rows).dim
        if not (ker_ok and rank == W.dim
                and big.dim - W.dim == len(self.kernel_indices)):
            failures.append({"check": "kernel_is_first_layer",
                             "rank": rank, "kernel": len(self.kernel_indices)})

        return {"smallDim": W.dim, "bigDim": big.dim,
                "kernelDim": len(self.kernel_indices),
                "pairsChecked": pairs_checked, "failures": failures,
                "ok": not failures}


def split_quotient(dalg: DiagramAlgebra, big: FinAlgebra, W=None) -> SplitQuotientDatum:
    if W is None:
        W = small_algebra(dalg, 0)
    n = dalg.kind.n
    F = big.field
    proj_rows = []
    for d in big.basis_keys:
        if d.horizontal_count(n) > 0:
            proj_rows.append({})
        else:
            _, _, key = dalg.layer_factorize(d)
            proj_rows.append({W.key_index[key]: F.one})
    embed_rows = []
    empty = dalg.enumerate_partials(0)[0]
    for key in W.basis_keys:
        d = dalg.layer_assemble_key(empty, empty, key)
        embed_rows.append({big.key_index[d]: F.one})
    kernel = layer_ideal_indices(dalg, big, 1)
    return SplitQuotientDatum(dalg, big, W, proj_rows, embed_rows, kernel)


# ---------------------------------------------------------------------------
# corner split quotient at depth l
# ---------------------------------------------------------------------------

class CornerSplitDatum:
    def __init__(self, dalg: DiagramAlgebra, big: FinAlgebra, l: int, cap=2000):
        from .diagrams import diagram_fin_algebra  # local: avoids import cycle at module load

        self.dalg = dalg
        self.big = big
        self.layer = l
        F = big.field
        self.field = F
        A = dalg.A
        self.unit_label = A.unit_basis_index()
        if self.unit_label is None:
            raise SplitPairError("corner machinery needs the input-algebra unit "
                                 "to be a basis element")

        self.idem = dalg.layer_idempotent(l)
        self.idem_vec = {big.key_index[d]: c for d, c in self.idem.items()}
        (self._e_diag, self._e_pref), = self.idem.items()
        self.e_top, self.e_bottom, e_key = dalg.layer_factorize(self._e_diag)

        # corner and the smaller diagram algebra
        self.corner = corner_algebra(big, self.idem_vec, name=f"corner(l={l})")
        self.small_dalg = self._small_diagram_algebra()
        self.small_big = diagram_fin_algebra(self.small_dalg, cap=cap)
        self.W = small_algebra(dalg, l)
        self.n_l = rank_v(dalg, l)

        self.mu_rows = [self._mu(d) for d in self.small_big.basis_keys]

        self._build_alpha()
        self._build_transfer_bimodule()
        self._build_left_basis()
        self._build_corner_restriction()
        self._right_action_cache = {}
        self._induce_decomp_cache = {}

    # -- corner isomorphism ---------------------------------------------------

    def _small_diagram_algebra(self):
        kind = self.dalg.kind
        if kind.family == "abrauer":
            from .diagrams import DiagramKind
            return DiagramAlgebra(DiagramKind.abrauer(kind.n - 2 * self.layer), self.dalg.A)
        from .diagrams import DiagramKind
        r = kind.wall
        t = kind.n - r
        return DiagramAlgebra(DiagramKind.walled(r - self.layer, t - self.layer), self.dalg.A)

    def embed_small_diagram(self, d: Diagram) -> Diagram:
        """Add identity strands through the cup block of the idempotent."""
        kind = self.dalg.kind
        n = kind.n
        l = self.layer
        m = self.small_dalg.kind.n
        if kind.family == "abrauer":
            def col(c):
                return c
            extra = range(m, n)
        else:
            r = kind.wall
            rl = r - l

            def col(c):
                return c if c < rl else c + 2 * l
            extra = range(rl, r + l)
        edges = []
        for (u, v, k) in d.edges:
            uu = col(u) if u < m else n + col(u - m)
            vv = col(v) if v < m else n + col(v - m)
            edges.append((uu, vv, k) if uu < vv else (vv, uu, k))
        for c in extra:
            edges.append((c, n + c, self.unit_label))
        out = Diagram(tuple(sorted(edges)))
        self.dalg.check_diagram(out)
        return out

    def _mu(self, d: Diagram):
        big = self.big
        emb = {big.key_index[self.embed_small_diagram(d)]: self.field.one}
        return big.mul(big.mul(self.idem_vec, emb), self.idem_vec)

    def verify_corner_iso(self) -> dict:
        """Full structure-constant comparison of the small diagram algebra
        with the corner through d -> e d' e."""
        F = self.field
        failures = []
        ech = Echelon(F).insert_all(self.mu_rows)
        if not (ech.dim == len(self.mu_rows) == self.corner.algebra.dim):
            failures.append({"check": "bijective", "rank": ech.dim,
                             "cornerDim": self.corner.algebra.dim})
        unit_idx = self.small_big.key_index[next(iter(self.small_dalg.identity()))]
        if self.mu_rows[unit_idx] != self.idem_vec:
            failures.append({"check": "unital"})
        small = self.small_big
        for i in range(small.dim):
            for j in range(small.dim):
                lhs = self.big.mul(self.mu_rows[i], self.mu_rows[j])
                rhs = vec_times_rows(F, small.mul_basis(i, j), self.mu_rows)
                if lhs != rhs:
                    failures.append({"check": "multiplicative", "pair": [i, j]})
                    return {"ok": False, "failures": failures,
                            "cornerDim": self.corner.algebra.dim, "smallDim": small.dim}
        return {"ok": not failures, "failures": failures,
                "cornerDim": self.corner.algebra.dim, "smallDim": small.dim}

    # -- alpha: corner onto the wreath algebra ----------------------------------

    def _wreath_read(self, big_vec):
        """Exactly-l part of a corner element as a wreath vector (unnormalized)."""
        n = self.dalg.kind.n
        F = self.field
        out = {}
        for i, c in big_vec.items():
            d = self.big.basis_keys[i]
            h = d.horizontal_count(n)
            assert h >= self.layer, "corner element below its layer"
            if h > self.layer:
                continue
            top, bottom, key = self.dalg.layer_factorize(d)
            assert top == self.e_top and bottom == self.e_bottom, \
                "corner element with foreign configurations"
            entry_iadd(F, out, self.W.key_index[key], c)
        return out

    def _build_alpha(self):
        F = self.field
        norm = F.inv(self._e_pref)
        self.alpha_rows = []
        for row in self.corner.rows:
            raw = self._wreath_read(row)
            self.alpha_rows.append({k: F.mul(norm, c) for k, c in raw.items()})
        # section: wreath basis -> corner coordinates, through the corner iso
        empty = self.small_dalg.enumerate_partials(0)[0]
        small_index = self.small_big.key_index
        self.section_rows = []
        for key in self.W.basis_keys:
            d = self.small_dalg.layer_assemble_key(empty, empty, key)
            mu = self.mu_rows[small_index[d]]
            coords = self.corner.ech.coords(mu)
            assert coords is not None
            self.section_rows.append(coords)
        self.section_big = [vec_times_rows(F, row, self.corner.rows)
                            for row in self.section_rows]

    def verify_alpha(self) -> dict:
        F = self.field
        failures = []
        witness = check_algebra_map(self.corner.algebra, self.W, self.alpha_rows)
        if witness is not None:
            failures.append({"check": "alpha_algebra_map", "witness": list(witness)})
        rank = Echelon(F).insert_all(self.alpha_rows).dim
        if rank != self.W.dim:
            failures.append({"check": "alpha_surjective", "rank": rank})
        for w in range(self.W.dim):
            if vec_times_rows(F, self.section_rows[w], self.alpha_rows) != self.W.basis_vec(w):
                failures.append({"check": "alpha_splits", "basis": w})
                break
        if check_algebra_map(self.W, self.corner.algebra, self.section_rows) is not None:
            failures.append({"check": "section_algebra_map"})
        return {"ok": not failures, "failures": failures,
                "kernelDim": self.corner.algebra.dim - self.W.dim}

    # -- the transfer bimodule S -------------------------------------------------

    def _build_transfer_bimodule(self):
        F = self.field
        big = self.big
        ed = Echelon(F)
        order = []
        for j in range(big.dim):
            p = ed.insert(big.mul(self.idem_vec, big.basis_vec(j)))
            if p is not None:
                order.append(p)
        self.eD_ech = ed
        self.eD_rows = ed.basis_rows()

        rel = Echelon(F)
        if self.layer == 0:
            # ker(alpha) = the first layer ideal; its right translates span it,
            # so the relation space is the ideal itself, coordinate by coordinate
            for i in layer_ideal_indices(self.dalg, big, 1):
                rel.insert(self._eD_coords(big.basis_vec(i)))
        else:
            ker = kernel_basis(F, transpose_rows(self.alpha_rows, self.W.dim),
                               self.corner.algebra.dim)
            ker_big = [vec_times_rows(F, k, self.corner.rows) for k in ker]
            for kv in ker_big:
                for r in self.eD_rows:
                    rel.insert(self._eD_coords(big.mul(kv, r)))
        self.rel_ech = rel
        keep = [t for t in range(len(self.eD_rows)) if t not in rel.rows]
        self.S_keep = keep
        self.S_pos = {t: s for s, t in enumerate(keep)}
        self.S_dim = len(keep)

    def _eD_coords(self, big_vec):
        coords = self.eD_ech.coords(big_vec)
        assert coords is not None, "vector outside e*D"
        return coords

    def _to_S(self, big_vec):
        """Class in S of an element of e*D given in big coordinates."""
        red = self.rel_ech.reduce(self._eD_coords(big_vec))
        return {self.S_pos[t]: c for t, c in red.items()}

    def _lift_S(self, s_vec):
        """Coordinate section S -> e*D (big coordinates)."""
        F = self.field
        out = {}
        for s, c in s_vec.items():
            vec_iadd(F, out, c, self.eD_rows[self.S_keep[s]])
        return out

    def _S_right_rows(self, b):
        rows = self._right_action_cache.get(b)
        if rows is None:
            big = self.big
            rows = [self._to_S(big.mul(self.eD_rows[self.S_keep[s]], big.basis_vec(b)))
                    for s in range(self.S_dim)]
            self._right_action_cache[b] = rows
        return rows

    def _S_left_act(self, w_vec, s_vec):
        """Left action of a wreath element through the corner embedding."""
        F = self.field
        out = {}
        lift = self._lift_S(s_vec)
        for w, c in w_vec.items():
            vec_iadd(F, out, c, self._to_S(self.big.mul(self.section_big[w], lift)))
        return out

    # -- left basis and the right-module isomorphism S*e = W ----------------------

    def _build_left_basis(self):
        F = self.field
        dalg = self.dalg
        W = self.W
        id_key = (tuple([self.unit_label] * len(self.e_top.free())),
                  tuple(range(len(self.e_top.free()))))
        self.bottom_configs = dalg.enumerate_partials(self.layer)
        self.left_basis = []
        for f in self.bottom_configs:
            d = dalg.layer_assemble_key(self.e_top, f, id_key)
            self.left_basis.append(self._to_S({self.big.key_index[d]: F.one}))
        spanning = []
        for s_vec in self.left_basis:
            for w in range(W.dim):
                spanning.append(self._S_left_act(W.basis_vec(w), s_vec))
        self._left_solver = None
        self._left_spanning = spanning
        self.left_free = (len(spanning) == self.S_dim
                          and Echelon(F).insert_all(spanning).dim == self.S_dim)

    def _left_coords(self, s_vec):
        """Coefficients (config slot -> wreath vector) over the left basis."""
        if self._left_solver is None:
            self._left_solver = CoordSolver(self.field, self._left_spanning,
                                            width=self.S_dim)
        flat = self._left_solver.coords(s_vec)
        assert flat is not None, "left basis does not span"
        W = self.W
        out = {}
        for idx, c in flat.items():
            slot, w = divmod(idx, W.dim)
            out.setdefault(slot, {})[w] = c
        return out

    def _build_corner_restriction(self):
        """S*e with theta onto the wreath algebra."""
        F = self.field
        img = Echelon(F)
        for s in range(self.S_dim):
            img.insert(self._to_S(self.big.mul(self.eD_rows[self.S_keep[s]], self.idem_vec)))
        self.Se_ech = img
        self.Se_rows = img.basis_rows()

    def theta(self, s_vec):
        """alpha(lift(s) * e): the right-module map S -> W, bijective on S*e."""
        lifted = self.big.mul(self._lift_S(s_vec), self.idem_vec)
        coords = self.corner.ech.coords(lifted)
        assert coords is not None
        return vec_times_rows(self.field, coords, self.alpha_rows)

    def verify_transfer_bimodule(self) -> dict:
        """Left-freeness of rank rank(V) and S*e = W (explicit isomorphisms)."""
        F = self.field
        failures = []
        expected = self.n_l * self.W.dim
        if self.S_dim != expected:
            failures.append({"check": "S_dim", "got": self.S_dim, "expected": expected})
        if not self.left_free:
            failures.append({"check": "left_free"})
        theta_rows = [self.theta(r) for r in self.Se_rows]
        if len(self.Se_rows) != self.W.dim or invert_rows(F, theta_rows) is None:
            failures.append({"check": "Se_iso_rank", "dim": len(self.Se_rows)})
        else:
            for t, row in enumerate(self.Se_rows):
                for w in range(self.W.dim):
                    lhs = self.theta(self._S_right_act_elt(row, self.section_big[w]))
                    rhs = self.W.mul(theta_rows[t], self.W.basis_vec(w))
                    if lhs != rhs:
                        failures.append({"check": "Se_iso_module_map", "at": [t, w]})
                        break
                else:
                    continue
                break
        return {"ok": not failures, "failures": failures,
                "SDim": self.S_dim, "rankV": self.n_l, "wreathDim": self.W.dim}

    def _S_right_act_elt(self, s_vec, big_elt):
        F = self.field
        out = {}
        for b, c in big_elt.items():
            vec_iadd(F, out, c, vec_times_rows(F, s_vec, self._S_right_rows(b)))
        return out

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
        """Left coordinates of (left basis k) * b for every k; the part of
        the action of b on ind M that does not depend on M."""
        decomp = self._induce_decomp_cache.get(b)
        if decomp is None:
            F = self.field
            right = self._S_right_rows(b)
            decomp = [self._left_coords(vec_times_rows(F, s_vec, right))
                      for s_vec in self.left_basis]
            self._induce_decomp_cache[b] = decomp
        return decomp

    def induce_map(self, f: ModuleMap, src_ind=None, dst_ind=None) -> ModuleMap:
        n_l = self.n_l
        src = src_ind or self.induce(f.source)
        dst = dst_ind or self.induce(f.target)
        rows = []
        for i in range(f.source.dim):
            for k in range(n_l):
                rows.append({j * n_l + k: c for j, c in f.rows[i].items()})
        return ModuleMap(src, dst, rows)

    def restrict(self, N: RightModule) -> RightModule:
        """N*e with the wreath algebra acting through the corner embedding."""
        if N.algebra is not self.big and N.algebra.dim != self.big.dim:
            raise SplitPairError("module is not over the diagram algebra")
        F = self.field
        img = Echelon(F).insert_all(N.action_rows(self.idem_vec))
        rows = img.basis_rows()

        def coords(v):
            got = img.coords(v)
            assert got is not None, "restriction escaped N*e"
            return got

        action = []
        for w in range(self.W.dim):
            wrows = N.action_rows(self.section_big[w])
            action.append([coords(vec_times_rows(F, r, wrows)) for r in rows])
        res = RightModule(self.W, len(rows), action, name=f"res_{self.layer}({N.name})")
        res.subspace_rows = rows
        res.subspace_coords = coords
        return res

    def restrict_map(self, f: ModuleMap, src_res, dst_res) -> ModuleMap:
        rows = [dst_res.subspace_coords(f.apply(r)) for r in src_res.subspace_rows]
        return ModuleMap(src_res, dst_res, rows)

    def natural_unit_iso(self, M: RightModule, ind=None, res=None):
        """The explicit map M -> res(ind M) through theta^{-1}(1)."""
        F = self.field
        ind = ind or self.induce(M)
        res = res or self.restrict(ind)
        theta_rows = [self.theta(r) for r in self.Se_rows]
        inv = invert_rows(F, theta_rows)
        if inv is None:
            raise SplitPairError("S*e is not isomorphic to the wreath algebra")
        unit_coords = vec_times_rows(F, self.W.unit, inv)
        s0 = vec_times_rows(F, unit_coords, self.Se_rows)
        slots = self._left_coords(s0)
        rows = [res.subspace_coords(ind.act(self._ind_row(M, i, slots), self.idem_vec))
                for i in range(M.dim)]
        return ModuleMap(M, res, rows), ind, res


def corner_split_datum(dalg: DiagramAlgebra, big: FinAlgebra, l: int, cap=2000):
    return CornerSplitDatum(dalg, big, l, cap=cap)


# ---------------------------------------------------------------------------
# short exact sequences and the exactness verdicts
# ---------------------------------------------------------------------------

@dataclass
class ShortExactSequence:
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
        homs = hom_space(self.quot, self.mid)
        ech = Echelon(F)
        target = {}
        for i in range(self.quot.dim):
            for j in range(self.quot.dim):
                if i == j:
                    target[i * self.quot.dim + j] = F.one
        for h in homs:
            comp = mat_mul(F, h.rows, self.proj.rows)
            flat = {}
            for i, r in enumerate(comp):
                for j, c in r.items():
                    flat[i * self.quot.dim + j] = c
            ech.insert(flat)
        return ech.contains(target)


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


def coordinate_submodule(big, indices, name=""):
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
    """0 -> J_{l+1} -> J_l -> J_l / J_{l+1} -> 0 as right modules."""
    F = big.field
    upper = layer_ideal_indices(dalg, big, l)
    lower = set(layer_ideal_indices(dalg, big, l + 1))
    posL = {i: t for t, i in enumerate(upper)}
    exact = [i for i in upper if i not in lower]
    posQ = {i: t for t, i in enumerate(exact)}

    J_l = coordinate_submodule(big, upper, name=f"J{l}")
    J_next = coordinate_submodule(big, [i for i in upper if i in lower],
                                  name=f"J{l + 1}")
    incl = ModuleMap(J_next, J_l,
                     [{posL[i]: F.one} for i in upper if i in lower])

    def quot_rows(b):
        return [{posQ[j]: c for j, c in big.mul_basis(i, b).items() if j in posQ}
                for i in exact]

    quot = RightModule(big, len(exact), LazyAction(big.dim, quot_rows),
                       name=f"J{l}/J{l + 1}")
    proj = ModuleMap(J_l, quot,
                     [{posQ[i]: F.one} if i in posQ else {} for i in upper])
    return ShortExactSequence(incl, proj, name=f"layer-chain({l})")


def cell_head_sequence(datum, char_module) -> ShortExactSequence:
    """Presentation sequence of the head of an induced character module.

    The pairing of two bottom configurations through the layer contraction
    form, evaluated in the one-dimensional character, gives the Gram matrix
    of the induced module; its kernel is a submodule, and quotienting it
    away produces the simple-headed quotient whose free cover is the
    standard source of non-split sequences over the diagram algebra.
    """
    from .inflation import contraction_form
    if char_module.dim != 1:
        raise SplitPairError("cell head construction needs a character module")
    F = datum.field
    ind = datum.induce(char_module)

    def char(w_vec):
        total = F.zero
        for w, c in w_vec.items():
            rows = char_module.action[w]
            val = rows[0].get(0, F.zero) if rows else F.zero
            total = F.add(total, F.mul(c, val))
        return total

    configs = datum.bottom_configs
    gram = []
    for f in configs:
        gram.append({j: char(contraction_form(datum.dalg, datum.W, f, e))
                     for j, e in enumerate(configs)})
    gram = [{j: c for j, c in row.items() if not F.is_zero(c)} for row in gram]
    rad = kernel_basis(F, transpose_rows(gram, len(configs)), len(configs))
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
    return apply_functor_to_sequence(
        seq, datum.induce,
        lambda f, src, dst: datum.induce_map(f, src_ind=src, dst_ind=dst))


def restrict_sequence(datum, seq) -> ShortExactSequence:
    return apply_functor_to_sequence(
        seq, datum.restrict,
        lambda f, src, dst: datum.restrict_map(f, src, dst))


# ---------------------------------------------------------------------------
# sample modules over wreath algebras
# ---------------------------------------------------------------------------

def character_module(W, scalar_of_key, name=""):
    F = W.field
    action = []
    for key in W.basis_keys:
        c = scalar_of_key(key)
        action.append([{0: c}] if not F.is_zero(c) else [{}])
    return RightModule(W, 1, action, name=name)


def wreath_trivial_module(W):
    return character_module(W, lambda key: W.field.one, name="trivial")


def wreath_sign_module(W):
    from .input_algebra import perm_sign
    return character_module(W, lambda key: W.field.from_int(perm_sign(key[1])),
                            name="sign")


def default_sample_modules(W, minimum=4):
    """Regular module plus small distinguished modules, padded with sums."""
    mods = [regular_module(W), wreath_trivial_module(W), wreath_sign_module(W)]
    mods.append(direct_sum(mods[1], mods[2]))
    while len(mods) < minimum + 1:
        mods.append(direct_sum(mods[-1], mods[1]))
    return mods


# ---------------------------------------------------------------------------
# full verification reports
# ---------------------------------------------------------------------------

def verify_exact_split_pair(datum, samples=None, small_sequences=None,
                            big_sequences=None, seed=0, split_limit=4000) -> dict:
    """Everything the split pair promises, on explicit witnesses.

    Checks the corner isomorphism, the split surjection alpha, freeness of
    the transfer bimodule, res(ind M) = M through the natural unit map for
    every sample (also confirming the map lies in the solved hom space),
    naturality on a basis of one Hom space between samples, and exactness
    of ind / res on the provided short exact sequences (split status
    recorded per sequence).
    """
    F = datum.field
    report = {
        "kind": datum.dalg.kind.family,
        "layer": datum.layer,
        "cornerIso": datum.verify_corner_iso(),
        "alpha": datum.verify_alpha(),
        "transfer": datum.verify_transfer_bimodule(),
        "samples": [],
        "sequences": [],
    }
    if samples is None:
        samples = default_sample_modules(datum.W)

    etas = []
    for M in samples:
        ind = datum.induce(M)
        eta, ind, res = datum.natural_unit_iso(M, ind=ind)
        entry = {
            "module": M.name or f"dim{M.dim}",
            "dimM": M.dim,
            "dimInd": ind.dim,
            "dimIndExpected": datum.n_l * M.dim,
            "dimIndOK": ind.dim == datum.n_l * M.dim,
            "unitMapIsModuleMap": eta.is_module_map(),
            "unitMapIsIso": eta.is_iso(),
        }
        homs = hom_space(M, res)
        ech = Echelon(F)
        for h in homs:
            ech.insert(_flatten_rows(h.rows, res.dim))
        entry["unitMapInHomSpace"] = ech.contains(_flatten_rows(eta.rows, res.dim))
        etas.append((M, eta, ind, res))
        report["samples"].append(entry)

    report["naturality"] = _check_naturality(datum, etas)

    def split_status(seq):
        if seq.quot.dim * seq.mid.dim > split_limit:
            return None   # too large to certify; exactness is still checked
        return seq.is_split()

    for seq in small_sequences or []:
        entry = {"name": seq.name, "side": "small",
                 "exact": seq.is_exact(), "split": split_status(seq)}
        ind_seq = induce_sequence(datum, seq)
        entry["inducedExact"] = ind_seq.is_exact()
        report["sequences"].append(entry)
    for seq in big_sequences or []:
        entry = {"name": seq.name, "side": "big",
                 "exact": seq.is_exact(), "split": split_status(seq)}
        res_seq = restrict_sequence(datum, seq)
        entry["restrictedExact"] = res_seq.is_exact()
        report["sequences"].append(entry)

    report["ok"] = (report["cornerIso"]["ok"] and report["alpha"]["ok"]
                    and report["transfer"]["ok"]
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
                ind_f = datum.induce_map(f, src_ind=ind1, dst_ind=ind2)
                res_f = datum.restrict_map(ind_f, res1, res2)
                if mat_mul(F, f.rows, eta2.rows) != mat_mul(F, eta1.rows, res_f.rows):
                    return {"ok": False, "pair": pair}
            return {"ok": True, "pair": pair}
    return {"ok": True, "pair": None}


def hom_ext_transfer(datum, M, targets, ind_m=None, ind_targets=None,
                     with_ext=True) -> list:
    """Hom and first-extension dimensions on both sides of the pair, from M
    to each target N: one report dict per target.

    One spin of M and one of its induction serve every target, and so does
    one spin of each presentation kernel; Ext^1 reuses the Hom dimensions
    found here.  Precomputed inductions may be passed in when the same
    module appears in many pairs (the dominance tables do this).
    """
    ind_m = ind_m if ind_m is not None else datum.induce(M)
    if ind_targets is None:
        ind_targets = [datum.induce(N) for N in targets]
    hom_small = [len(h) for h in hom_spaces(M, targets)]
    hom_big = [len(h) for h in hom_spaces(ind_m, ind_targets)]
    reps = [{"homSmall": hs, "homBig": hb, "homEqual": hs == hb}
            for hs, hb in zip(hom_small, hom_big)]
    if with_ext:
        ext_small = ext1_dims(M, targets, hom_small)
        ext_big = ext1_dims(ind_m, ind_targets, hom_big)
        for rep, es, eb in zip(reps, ext_small, ext_big):
            rep.update({"extSmall": es, "extBig": eb, "extEqual": es == eb})
    for rep in reps:
        rep["ok"] = rep["homEqual"] and rep.get("extEqual", True)
    return reps
