"""Generic finite-dimensional algebra and module engine.

Conventions, fixed globally:

* Modules are RIGHT modules.  Module elements are row vectors (sparse dicts)
  and a matrix acts from the right, so ``rho(x*y) = rho(x) * rho(y)``.
* A map of modules f: M -> N is a matrix F with v |-> v*F; composition of
  M -> N -> P is the matrix product F*G.

Algebras are given by structure constants over an exact field.  Products of
basis pairs are computed on demand and cached, so large diagram algebras can
be used without materializing the full multiplication table.  The checks of
the algebra axioms (unit, associativity, involution) return a witness tuple
of basis indices or None; input-algebra validation reports them.

Module actions are built on first use in the same spirit: free modules,
direct sums, submodules, quotients and inductions hold a ``LazyAction``
whose matrix for basis element b is computed when ``action[b]`` is first
read.  Hom spaces, Ext^1, module generators and module-map checks read only
the action of the algebra generators, so a presentation kernel builds a
handful of its ``dim A`` matrices.  Action stability of a submodule or
quotient is checked at construction on every basis element in the support
of the generators, which suffices because the generators and the unit
generate the algebra.

Hom spaces are found by spinning module generators (``Spin``): the
standard-basis method of the MeatAxe (Parker 1984), in the form Lux and
Szőke use for Hom spaces (Experimental Math. 2003).  The unknowns of a map
M -> N are the images of the k generators of M, k*dim N of them rather
than dim M * dim N.  The spin of M does not depend on N, so one spin serves
a list of targets (``hom_spaces``, ``ext1_dims``).  The method rests on the
same premise as the stability checks: the algebra generators and the unit
generate the algebra.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass

from .linalg import (
    Echelon,
    entry_iadd,
    identity_rows,
    invert_rows,
    kernel_basis,
    transpose_rows,
    vec_iadd,
    vec_times_diag_kron,
    vec_times_rows,
)


class AlgebraError(ValueError):
    pass


def index_cases(sizes, limit, samples, seed):
    """Index tuples (i_0, i_1, ...) with i_k in range(sizes[k]) for a check.

    Every tuple, in itertools.product order, when no size exceeds limit;
    otherwise ``samples`` tuples drawn coordinate by coordinate with
    randrange from random.Random(seed).  An empty size gives no tuples.
    Returns (iterator of tuples, their number, whether they are sampled).
    """
    if max(sizes, default=0) <= limit:
        return itertools.product(*map(range, sizes)), math.prod(sizes), False
    if not all(sizes):
        return iter(()), 0, True
    rng = random.Random(seed)
    draws = (tuple(rng.randrange(size) for size in sizes) for _ in range(samples))
    return draws, samples, True


class FinAlgebra:
    """Associative unital algebra with a distinguished basis.

    ``pair_mul(i, j)`` returns the structure-constant vector of b_i * b_j;
    results are cached.  ``involution_rows``, if present, is the matrix of an
    anti-automorphism squaring to the identity.  ``generators`` is an optional
    list of element vectors that together with the unit generate the algebra;
    intertwining solvers use it to shrink equation systems.
    """

    def __init__(self, field, labels, unit, pair_mul, involution_rows=None,
                 generators=None, name=""):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.unit = dict(unit)
        self._pair_mul = pair_mul
        self._cache = {}
        self.involution_rows = involution_rows
        self.generators = generators
        self.name = name

    def __repr__(self):
        return f"FinAlgebra({self.name or 'dim %d' % self.dim})"

    def mul_basis(self, i, j):
        key = (i, j)
        got = self._cache.get(key)
        if got is None:
            got = self._pair_mul(i, j)
            self._cache[key] = got
        return got

    def mul(self, u, v):
        F = self.field
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                vec_iadd(F, out, F.mul(a, b), self.mul_basis(i, j))
        return out

    def involve(self, v):
        if self.involution_rows is None:
            raise AlgebraError("algebra carries no involution")
        return vec_times_rows(self.field, v, self.involution_rows)

    def basis_vec(self, i):
        return {i: self.field.one}

    def check_unital(self):
        """Witness (i,) with 1*b_i or b_i*1 other than b_i, or None."""
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                return (i,)
        return None

    def check_associative(self, exhaustive_limit=120, seed=0):
        """Witness triple (i, j, k) violating associativity, or None.

        Exhaustive up to the dimension limit, 1000 seeded triples above.
        """
        n = self.dim
        triples, _, _ = index_cases((n, n, n), exhaustive_limit, 1000, seed)
        for i, j, k in triples:
            lhs = self.mul(self.mul_basis(i, j), self.basis_vec(k))
            rhs = self.mul(self.basis_vec(i), self.mul_basis(j, k))
            if lhs != rhs:
                return (i, j, k)
        return None

    def check_involution_square(self):
        """Witness (i,) with (b_i*)* != b_i, or None."""
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.involve(self.involve(b)) != b:
                return (i,)
        return None

    def check_involution_antihom(self):
        """Witness (i, j) with (b_i b_j)* != b_j* b_i*, or None."""
        rows = self.involution_rows
        for i, j in itertools.product(range(self.dim), repeat=2):
            if self.involve(self.mul_basis(i, j)) != self.mul(rows[j], rows[i]):
                return (i, j)
        return None


def algebra_from_mult_context(ctx, cap=2000, name=""):
    """FinAlgebra over the basis of a multiplication context.

    ``ctx`` provides ``field``, ``basis()`` (canonical list of hashable keys),
    ``mul_diagrams(x, y) -> {key: scalar}``, ``identity() -> {key: scalar}``
    and optionally ``involution_key(x)``, ``generator_elements()``.
    """
    basis = ctx.basis()
    if len(basis) > cap:
        raise AlgebraError(f"dimension {len(basis)} exceeds cap {cap}")
    index = {k: i for i, k in enumerate(basis)}

    def to_vec(d):
        return {index[k]: c for k, c in d.items()}

    def pair_mul(i, j):
        return to_vec(ctx.mul_diagrams(basis[i], basis[j]))

    invo = None
    if hasattr(ctx, "involution_key"):
        invo = [to_vec(ctx.involution_key(k)) for k in basis]
    gens = None
    if hasattr(ctx, "generator_elements"):
        gens = [to_vec(g) for g in ctx.generator_elements()]
    labels = [ctx.label(k) for k in basis] if hasattr(ctx, "label") else [str(k) for k in basis]
    alg = FinAlgebra(ctx.field, labels, to_vec(ctx.identity()), pair_mul, invo, gens, name)
    alg.basis_keys = basis
    alg.key_index = index
    return alg


class LazyAction:
    """Action matrices of a module, each built when it is first read.

    A sequence of length ``dim`` whose item b is ``rows_for(b)``, computed
    once and kept.
    """

    def __init__(self, dim, rows_for):
        self._rows_for = rows_for
        self._built = [None] * dim

    def __len__(self):
        return len(self._built)

    def __getitem__(self, b):
        rows = self._built[b]
        if rows is None:
            rows = self._built[b] = self._rows_for(b)
        return rows

    def built_indices(self):
        """Basis elements whose matrix has been built so far."""
        return [b for b, rows in enumerate(self._built) if rows is not None]


class RightModule:
    """Right module given by one action matrix per algebra basis element.

    ``action[b]`` is the matrix of basis element b, a list of ``dim`` row
    dicts.  ``action`` is a list or a ``LazyAction`` of length
    ``algebra.dim``; the module constructions here build each matrix on
    first use, and check action stability on the generators only.
    """

    def __init__(self, algebra, dim, action, name=""):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.name = name

    def __repr__(self):
        return f"RightModule({self.name or ''} dim {self.dim} over {self.algebra.name or self.algebra.dim})"

    def act_basis(self, v, b):
        return vec_times_rows(self.algebra.field, v, self.action[b])

    def act(self, v, a_vec):
        F = self.algebra.field
        out = {}
        for b, c in a_vec.items():
            vec_iadd(F, out, c, self.act_basis(v, b))
        return out

    def action_rows(self, a_vec):
        F = self.algebra.field
        rows = [{} for _ in range(self.dim)]
        for b, c in a_vec.items():
            for acc, row in zip(rows, self.action[b]):
                vec_iadd(F, acc, c, row)
        return rows

    def check(self, pairs=None):
        """Witness that the action is not a unital right action, or None."""
        alg = self.algebra
        F = alg.field
        id_rows = identity_rows(F, self.dim)
        if self.action_rows(alg.unit) != id_rows:
            return ("unit",)
        if pairs is None:
            pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
        for i, j in pairs:
            prod = alg.mul_basis(i, j)
            lhs = self.action_rows(prod)
            rhs = [self.act(self.action[i][k], {j: F.one}) for k in range(self.dim)]
            if lhs != rhs:
                return ("compose", i, j)
        return None


def regular_module(alg):
    action = []
    for b in range(alg.dim):
        action.append([alg.mul_basis(i, b) for i in range(alg.dim)])
    return RightModule(alg, alg.dim, action, name="regular")


def free_module(alg, rank):
    """Free right module of the given rank, coordinates (g, i) -> g*dim + i."""
    d = alg.dim

    def rows_for(b):
        column = [alg.mul_basis(i, b) for i in range(d)]
        return [{g * d + j: c for j, c in prod.items()}
                for g in range(rank) for prod in column]

    return RightModule(alg, rank * d, LazyAction(d, rows_for), name=f"free^{rank}")


class ModuleMap:
    def __init__(self, source, target, rows):
        self.source = source
        self.target = target
        self.rows = rows  # source.dim row dicts over target coordinates

    def apply(self, v):
        return vec_times_rows(self.source.algebra.field, v, self.rows)

    def compose(self, other):
        """self then other (source -> self.target == other.source -> other.target)."""
        F = self.source.algebra.field
        return ModuleMap(self.source, other.target,
                         [vec_times_rows(F, r, other.rows) for r in self.rows])

    def is_module_map(self):
        F = self.source.algebra.field
        alg = self.source.algebra
        gens = _generating_vectors(alg)
        for g in gens:
            for i in range(self.source.dim):
                lhs = self.apply(self.source.act({i: F.one}, g))
                rhs = self.target.act(self.rows[i], g)
                if lhs != rhs:
                    return False
        return True

    def image_rank(self):
        ech = Echelon(self.source.algebra.field)
        for r in self.rows:
            ech.insert(r)
        return ech.dim

    def is_iso(self):
        return (self.source.dim == self.target.dim
                and invert_rows(self.source.algebra.field, self.rows) is not None)

    def inverse(self):
        inv = invert_rows(self.source.algebra.field, self.rows)
        if inv is None:
            raise AlgebraError("map is not invertible")
        return ModuleMap(self.target, self.source, inv)


def _generating_vectors(alg):
    """Vectors whose unital span is the whole algebra (falls back to the basis)."""
    if alg.generators is not None:
        return alg.generators
    return [alg.basis_vec(i) for i in range(alg.dim)]


def _generator_support(alg):
    """Basis elements in the support of the generating vectors.

    A span stable under these is stable under every word in the generators,
    hence under the whole algebra.
    """
    return sorted({b for g in _generating_vectors(alg) for b in g})


def stable_action(alg, action):
    """The action, with the matrices of the generators' basis elements built,
    so that a lazy action whose ``rows_for`` raises on a span that is not
    action-stable raises here, at construction."""
    for b in _generator_support(alg):
        action[b]
    return action


def generated_subalgebra_dim(alg, gens=None):
    """Dimension of the unital subalgebra generated by the given elements."""
    F = alg.field
    gens = list(gens) if gens is not None else _generating_vectors(alg)
    ech = Echelon(F)
    ech.insert(dict(alg.unit))
    frontier = [dict(alg.unit)]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                for prod in (alg.mul(v, g), alg.mul(g, v)):
                    red = ech.reduce(prod)
                    if red:
                        ech.insert(prod)
                        new.append(prod)
        frontier = new
    return ech.dim


class Spin:
    """Standard-basis spin of a module M, carrying images in target modules.

    Greedy generators x_1..x_k of M are spun under the algebra generators G:
    basis vector i becomes a generator when it lies outside the submodule
    spun so far, and every vector v kept by the spin is followed by v*g for
    each g in G.  Each vector carries its image under an unknown module map
    from M to every target N, written in the unknowns u_s, the image of
    x_s: the image of x_s*w is u_s*w, so the image of v*g is the image of v
    times the action of g on N.  The augmented vectors [v | image] share one
    Echelon whose M columns come first, so the M part pivots first.  A spun
    vector whose M part reduces to zero leaves a pure image part, which a
    module map must send to zero: dim N linear equations in the k*dim N
    unknowns of N.  Their null space is Hom(M, N), because G and the unit
    generate the algebra, so the spin spans M and its relations are all
    the conditions on a module map.

    The targets' coordinates are concatenated into 0..n-1; unknown row
    r = s*n + j is coordinate j of u_s, and image column j2 of row r sits at
    column m + r*n + j2 (j and j2 in the same target).  The M part does not
    depend on the targets, so one spin serves all of them, and their
    equations separate by target.
    """

    def __init__(self, M, targets=()):
        alg = M.algebra
        F = alg.field
        targets = list(targets)
        if any(N.algebra is not alg and N.algebra.dim != alg.dim for N in targets):
            raise AlgebraError("modules live over different algebras")
        m = M.dim
        offsets = list(itertools.accumulate((N.dim for N in targets), initial=0))
        n = offsets[-1]
        self.M, self.targets, self._offsets = M, targets, offsets
        self._block = [t for t, N in enumerate(targets) for _ in range(N.dim)]

        # [v | image] times g: the M part by M's matrix of g, and each image
        # row, a vector in the concatenated targets, by their matrices of g
        actions = [(M.action_rows(g),
                    [{o + j: c for j, c in row.items()}
                     for N, o in zip(targets, offsets) for row in N.action_rows(g)])
                   for g in _generating_vectors(alg)]

        equations = [Echelon(F) for _ in targets]
        seen = [set() for _ in targets]

        def add_equations(residue):
            # one equation per target coordinate of the residue
            eqs = {}
            for col, c in residue.items():
                t, unknown, j2 = self._locate(col)
                eqs.setdefault((t, j2), {})[unknown] = c
            for (t, _), eq in eqs.items():
                # most relations repeat an equation already seen verbatim
                key = frozenset(eq.items())
                if key not in seen[t]:
                    seen[t].add(key)
                    equations[t].insert(eq)

        ech = Echelon(F)
        gens = []
        for i in range(m):
            if ech.dim == m:
                break
            start = {i: F.one}
            r0 = len(gens) * n
            for j in range(n):
                start[m + (r0 + j) * n + j] = F.one
            red = ech.reduce(start)
            if min(red, default=m) >= m:    # basis vector i is spun already
                continue
            gens.append(i)
            ech.insert(red)
            queue = collections.deque([red])
            while queue:
                v = queue.popleft()
                for m_rows, image_rows in actions:
                    w = ech.reduce(vec_times_diag_kron(F, v, m_rows, image_rows))
                    if min(w, default=m) < m:
                        ech.insert(w)
                        queue.append(w)
                    elif w:
                        add_equations(w)
        assert ech.dim == m, "the spin must span the module"
        self.generators = gens
        self._ech = ech
        self.solutions = [eqs.null_space(len(gens) * N.dim)
                          for eqs, N in zip(equations, targets)]

    def _locate(self, col):
        """(target t, unknown of t, coordinate of t) of an image column."""
        m, n = self.M.dim, self._offsets[-1]
        r, j2 = divmod(col - m, n)
        s, j = divmod(r, n)
        t = self._block[j2]
        o = self._offsets[t]
        return t, s * self.targets[t].dim + j - o, j2 - o

    def maps(self):
        """A basis of Hom(M, N) for each target N, as module maps.

        Row p of a map is u times the image part of the spin's row with
        pivot p, whose M part is the basis vector p alone.
        """
        M = self.M
        F = M.algebra.field
        m = M.dim
        maps, uses = [], []
        for sols in self.solutions:
            rows = [[{} for _ in range(m)] for _ in sols]
            use = {}
            for map_rows, u in zip(rows, sols):
                for idx, c in u.items():
                    use.setdefault(idx, []).append((map_rows, c))
            maps.append(rows)
            uses.append(use)
        for p in range(m):
            for col, c in self._ech.rows[p].items():
                if col < m:
                    continue
                t, unknown, j2 = self._locate(col)
                for map_rows, x in uses[t].get(unknown, ()):
                    entry_iadd(F, map_rows[p], j2, F.mul(x, c))
        return [[ModuleMap(M, N, rows) for rows in rows_t]
                for N, rows_t in zip(self.targets, maps)]


def module_generators(M):
    """Indices of basis vectors that generate M: the M part of a spin.

    Scans the basis in order and keeps a vector only when it lies outside the
    submodule generated so far, so a cyclic module gets a single generator.
    """
    return Spin(M).generators


def hom_spaces(M, targets):
    """A basis of Hom(M, N) for each target N, from one spin of M.

    Greedy generators of M are spun under the algebra generators, carrying
    their images in every target (see ``Spin``).  The unknowns are the
    images of the k generators of M, k*dim N of them per target rather than
    dim M * dim N, and each relation the spin meets gives dim N equations.
    This rests on the premise that the algebra generators and the unit
    generate the algebra; without generators, the basis is used.
    """
    return Spin(M, targets).maps()


def hom_space(M, N):
    """A basis of Hom(M, N) over the common algebra: ``hom_spaces(M, [N])``.

    Solved in the images of the generators of M, by a spin under the algebra
    generators, which must generate the algebra together with the unit.
    """
    return hom_spaces(M, [N])[0]


def direct_sum(M, N):
    alg = M.algebra

    def rows_for(b):
        rows = [dict(r) for r in M.action[b]]
        rows += [{j + M.dim: c for j, c in r.items()} for r in N.action[b]]
        return rows

    return RightModule(alg, M.dim + N.dim, LazyAction(alg.dim, rows_for),
                       name=f"{M.name}+{N.name}")


def submodule(M, vectors, name="sub"):
    """Submodule spanned by the given vectors (must be action-stable).

    Returns (module, inclusion map); AlgebraError if the span is not stable.
    """
    alg = M.algebra
    F = alg.field
    ech = Echelon(F)
    for v in vectors:
        ech.insert(v)
    rows = ech.basis_rows()

    def rows_for(b):
        mats = []
        for r in rows:
            coords = ech.coords(M.act_basis(r, b))
            if coords is None:
                raise AlgebraError("span is not action-stable")
            mats.append(coords)
        return mats

    action = stable_action(alg, LazyAction(alg.dim, rows_for))
    sub = RightModule(alg, len(rows), action, name=name)
    incl = ModuleMap(sub, M, rows)
    return sub, incl


def quotient_module(M, vectors, name="quot"):
    """Quotient of M by the action-stable span of the vectors.

    Returns (module, projection map); AlgebraError if the span is not stable.
    """
    alg = M.algebra
    F = alg.field
    ech = Echelon(F)
    for v in vectors:
        ech.insert(v)
    rows = ech.basis_rows()
    for b in _generator_support(alg):
        if not all(ech.contains(M.act_basis(r, b)) for r in rows):
            raise AlgebraError("span is not action-stable")
    keep = [j for j in range(M.dim) if j not in ech.rows]
    pos = {j: t for t, j in enumerate(keep)}

    def project(v):
        # reduction clears every pivot column, so only kept columns remain
        return {pos[j]: c for j, c in ech.reduce(v).items()}

    def rows_for(b):
        return [project(M.act_basis({j: F.one}, b)) for j in keep]

    quot = RightModule(alg, len(keep), LazyAction(alg.dim, rows_for), name=name)
    proj = ModuleMap(M, quot, [project({i: F.one}) for i in range(M.dim)])
    return quot, proj


def ideal_span(alg, gen_vectors):
    """Echelon basis of the two-sided ideal generated by the given elements."""
    F = alg.field
    ech = Echelon(F)
    frontier = []
    for g in gen_vectors:
        if ech.insert(dict(g)) is not None:
            frontier.append(dict(g))
    while frontier:
        new = []
        for v in frontier:
            for i in range(alg.dim):
                b = alg.basis_vec(i)
                for prod in (alg.mul(b, v), alg.mul(v, b)):
                    if ech.reduce(prod):
                        ech.insert(prod)
                        new.append(prod)
        frontier = new
    return ech


def is_two_sided_ideal(alg, ech, seed=0):
    """Check closure of the echelon span under basis multiplication.

    Exhaustive up to dimension 200, 1000 seeded (basis, row) pairs above.
    Returns a witness (side, i, pivot) or None.
    """
    rows = ech.basis_rows()
    pivs = ech.pivots()
    pairs, _, _ = index_cases((alg.dim, len(rows)), 200, 1000, seed)
    for i, t in pairs:
        b = alg.basis_vec(i)
        if not ech.contains(alg.mul(b, rows[t])):
            return ("left", i, pivs[t])
        if not ech.contains(alg.mul(rows[t], b)):
            return ("right", i, pivs[t])
    return None


def quotient_algebra(alg, ideal_ech, name=""):
    """Quotient by a two-sided ideal; returns (algebra, projection rows).

    The quotient basis is indexed by the non-pivot coordinates of the ideal.
    """
    F = alg.field
    keep = [j for j in range(alg.dim) if j not in ideal_ech.rows]
    pos = {j: t for t, j in enumerate(keep)}

    def project(v):
        red = ideal_ech.reduce(v)
        return {pos[j]: c for j, c in red.items()}

    witness = is_two_sided_ideal(alg, ideal_ech)
    if witness is not None:
        raise AlgebraError(f"not a two-sided ideal: witness {witness}")

    def pair_mul(i, j):
        return project(alg.mul_basis(keep[i], keep[j]))

    labels = [alg.labels[j] for j in keep]
    quot = FinAlgebra(F, labels, project(alg.unit), pair_mul, name=name or f"{alg.name}/I")
    if alg.generators is not None:
        quot.generators = [project(g) for g in alg.generators]
    proj_rows = [project({i: F.one}) for i in range(alg.dim)]
    return quot, proj_rows


@dataclass
class Corner:
    """Corner algebra e*A*e of an idempotent, with its basis inside A."""
    parent: FinAlgebra
    idempotent: dict
    algebra: FinAlgebra
    rows: list          # corner basis as vectors in the parent
    ech: Echelon        # its span; ech.coords reads corner coordinates


def corner_algebra(alg, e_vec, name=""):
    F = alg.field
    if alg.mul(e_vec, e_vec) != e_vec:
        raise AlgebraError("element is not idempotent")
    ech = Echelon(F)
    for i in range(alg.dim):
        ech.insert(alg.mul(alg.mul(e_vec, alg.basis_vec(i)), e_vec))
    rows = ech.basis_rows()

    def from_parent(w):
        coords = ech.coords(w)
        assert coords is not None, "product escaped the corner"
        return coords

    def pair_mul(i, j):
        return from_parent(alg.mul(rows[i], rows[j]))

    unit = from_parent(e_vec)
    labels = [f"c{p}" for p in ech.pivots()]
    corner_alg = FinAlgebra(F, labels, unit, pair_mul, name=name or f"e({alg.name})e")
    return Corner(alg, dict(e_vec), corner_alg, rows, ech)


@dataclass
class Presentation:
    """Start of a free resolution: 0 -> kernel -> cover -> M -> 0."""
    module: RightModule
    cover: RightModule
    proj: ModuleMap
    kernel: RightModule
    incl: ModuleMap
    cover_rank: int


def free_presentation(M):
    """Free cover on a pruned generating set, with its kernel as a submodule."""
    alg = M.algebra
    F = alg.field
    gens = module_generators(M)
    b = len(gens)
    cover = free_module(alg, b)
    proj_rows = []
    for g in gens:
        for i in range(alg.dim):
            proj_rows.append(M.act_basis({g: F.one}, i))
    proj = ModuleMap(cover, M, proj_rows)
    ker_vectors = kernel_basis(F, transpose_rows(proj_rows, M.dim), cover.dim)
    kernel, incl = submodule(cover, ker_vectors, name=f"Omega({M.name})")
    assert proj.image_rank() == M.dim, "free cover must surject"
    assert kernel.dim == cover.dim - M.dim
    return Presentation(M, cover, proj, kernel, incl, b)


def ext1_dims(M, targets, hom_dims, presentation=None):
    """dim Ext^1(M, N) for each target N, given each dim Hom(M, N).

    From a free presentation 0 -> Omega M -> P0 -> M -> 0 with P0 free of
    rank b: the image of Hom(P0, N) inside Hom(Omega M, N) has dimension
    b*dim N - dim Hom(M, N), since maps vanishing on Omega M are exactly the
    maps factoring through M.  One spin of Omega M serves every target.
    """
    pres = presentation or free_presentation(M)
    omega = Spin(pres.kernel, targets).solutions
    return [len(sols) - pres.cover_rank * N.dim + hom
            for sols, N, hom in zip(omega, targets, hom_dims)]


def ext1(M, N, presentation=None):
    """dim Ext^1(M, N) computed from a free presentation."""
    return ext1_dims(M, [N], [len(hom_space(M, N))], presentation)[0]


def check_algebra_map(source, target, rows, seed=0):
    """Witness that rows: source -> target is not a unital algebra map, or None.

    Exhaustive over basis pairs up to dimension 200, 1000 seeded pairs above.
    """
    F = source.field
    if vec_times_rows(F, source.unit, rows) != target.unit:
        return ("unit",)
    n = source.dim
    pairs, _, _ = index_cases((n, n), 200, 1000, seed)
    for i, j in pairs:
        lhs = vec_times_rows(F, source.mul_basis(i, j), rows)
        rhs = target.mul(rows[i], rows[j])
        if lhs != rhs:
            return ("mult", i, j)
    return None


def pullback_module(M, q_rows, C, check=True):
    """View a right module over B as a module over C along a surjection q: C -> B."""
    if check:
        witness = check_algebra_map(C, M.algebra, q_rows)
        if witness is not None:
            raise AlgebraError(f"q is not an algebra map: witness {witness}")
    action = [M.action_rows(q_rows[i]) for i in range(C.dim)]
    return RightModule(C, M.dim, action, name=f"{M.name}|q")
