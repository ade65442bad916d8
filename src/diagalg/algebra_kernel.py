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

Module actions are built on first use in the same spirit: free modules
(the regular module is the one of rank one), direct sums, submodules,
quotients and inductions hold a ``LazyAction`` whose matrix for basis
element b is computed when ``action[b]`` is first read.  Hom spaces, Ext^1,
module generators and module-map checks read only the action of the algebra
generators, so an induced module builds a handful of its ``dim A``
matrices.  Every module on a subspace (submodules, presentation kernels, Specht
modules, restrictions) is a ``SpanModule``, and it and every quotient are
checked action-stable at construction on every basis element in the support
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

Ext^1 and presentations come from the spin's own relations.  Spun with the
preimage of each vector in the free cover P = A^b on its b generators, the
spin of M meets elements of the kernel Omega M of P -> M, and they generate
Omega M as a module (the Schreier argument behind the standard basis).  So
Omega M is spun inside P from them, carrying images in the targets, with no
kernel solved and no matrix of M read beyond the generators'; reaching
dimension b*dim A - dim M certifies that the spin is all of Omega M.  These
certificates raise AlgebraError, so ``python -O`` keeps them.

``ShortExactSequence`` is the one type of 0 -> A -> B -> C -> 0, given by
its inclusion and projection: ``free_presentation(M)`` returns
0 -> Omega M -> A^b -> M -> 0 as one, and the split-pair report carries
every sequence it checks through the functors as one.  It decides exactness
by ranks and splitting by whether the identity of C lies in the span of
the maps h*proj, h in Hom(C, B) (``in_span``).
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from typing import NamedTuple

from .linalg import (
    Echelon,
    entry_iadd,
    identity_rows,
    mat_mul,
    vec_iadd,
    vec_times_diag_kron,
    vec_times_rows,
)


class AlgebraError(ValueError):
    pass


def index_cases(sizes, limit, samples, seed):
    """Index tuples (i_0, i_1, ...) with i_k in range(sizes[k]) for a check.

    Every tuple, in itertools.product order, when no size exceeds limit;
    otherwise min(samples, number of tuples) distinct tuples, drawn by
    random.Random(seed).sample over their positions in that order.  Returns
    (iterator of tuples, their number, whether they are sampled).
    """
    population = math.prod(sizes)
    if max(sizes, default=0) <= limit:
        return itertools.product(*map(range, sizes)), population, False
    picks = random.Random(seed).sample(range(population), min(samples, population))
    axes = [(math.prod(sizes[k + 1:]), size) for k, size in enumerate(sizes)]
    return (tuple([p // stride % size for stride, size in axes]) for p in picks), len(picks), True


class FinAlgebra:
    """Associative unital algebra with a distinguished basis.

    ``pair_mul(i, j)`` returns the structure-constant vector of b_i * b_j;
    ``mul_basis`` caches its results, and a caller that reads a product only
    once can call ``pair_mul`` directly.  ``involution_rows``, if present, is
    the matrix of an anti-automorphism squaring to the identity.
    ``generators`` is an optional list of element vectors that together with
    the unit generate the algebra; intertwining solvers use it to shrink
    equation systems.
    """

    def __init__(self, field, dim, unit, pair_mul, involution_rows=None,
                 generators=None, name=""):
        self.field = field
        self.dim = dim
        self.unit = dict(unit)
        self.pair_mul = pair_mul
        self._cache = {}
        self.involution_rows = involution_rows
        self.generators = generators
        self.name = name
        self._generator_rows = None
        self._generated_dim = None

    def __repr__(self):
        return f"FinAlgebra({self.name or 'dim %d' % self.dim})"

    def mul_basis(self, i, j):
        key = (i, j)
        got = self._cache.get(key)
        if got is None:
            got = self.pair_mul(i, j)
            self._cache[key] = got
        return got

    def mul(self, u, v):
        F = self.field
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                vec_iadd(F, out, F.mul(a, b), self.mul_basis(i, j))
        return out

    def generator_rows(self):
        """Matrix of right multiplication by each generating vector g (see
        ``_generating_vectors``) on the algebra: row i is b_i * g, the cached
        product itself when g is a basis element.  Built once."""
        one = self.field.one

        def rows(g):
            if len(g) == 1:
                (b, c), = g.items()
                if c == one:
                    return [self.mul_basis(i, b) for i in range(self.dim)]
            return [self.mul({i: one}, g) for i in range(self.dim)]

        if self._generator_rows is None:
            self._generator_rows = [rows(g) for g in _generating_vectors(self)]
        return self._generator_rows

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

    def generated_dim(self):
        """Dimension the unit and the generators generate, found once."""
        if self._generated_dim is None:
            self._generated_dim = generated_subalgebra_dim(self)
        return self._generated_dim

    def check_associative(self):
        """Witness (i, j, k) with (b_i*b_j)*h_k != b_i*(b_j*h_k), or None.

        Light's test (Clifford-Preston, The Algebraic Theory of Semigroups I,
        1961), exhaustive over every basis pair and h = (1, g_0, g_1, ...).
        That suffices when the unit and the generators generate, by induction
        on a word w in them: (x*y)*(w*g) = ((x*y)*w)*g = (x*(y*w))*g =
        x*((y*w)*g) = x*(y*(w*g)).  The premise is certified once, witness
        ("generators", the dimension they generate).  An algebra with no
        generators takes its basis as h.
        """
        gs, columns = _generating_vectors(self), self.generator_rows()
        if self.generators is not None:
            if self.generated_dim() != self.dim:
                return ("generators", self.generated_dim())
            gs = [self.unit] + gs
            columns = [[self.basis_vec(j) for j in range(self.dim)]] + columns
        for i, j in itertools.product(range(self.dim), repeat=2):
            ij = self.mul_basis(i, j)
            for k, (g, column) in enumerate(zip(gs, columns)):
                if self.mul(ij, g) != self.mul(self.basis_vec(i), column[j]):
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


def algebra_from_mult_context(ctx, cap, name):
    """FinAlgebra over the basis of a multiplication context.

    ``ctx`` provides ``field``, ``basis()`` (canonical list of hashable keys),
    ``identity()``, ``involution_key(x)`` (each element a dict {key:
    scalar}), ``generator_elements()`` and ``index_product(basis, index)``,
    the algebra's ``pair_mul``: b_i * b_j as {index: scalar}.
    """
    basis = ctx.basis()
    if len(basis) > cap:
        raise AlgebraError(f"dimension {len(basis)} exceeds cap {cap}")
    index = {k: i for i, k in enumerate(basis)}

    def to_vec(d):
        return {index[k]: c for k, c in d.items()}

    invo = [to_vec(ctx.involution_key(k)) for k in basis]
    gens = [to_vec(g) for g in ctx.generator_elements()]
    alg = FinAlgebra(ctx.field, len(basis), to_vec(ctx.identity()),
                     ctx.index_product(basis, index), invo, gens, name)
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

    def __init__(self, algebra, dim, action, name):
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

    def generator_matrices(self):
        """The matrix of each generating vector of the algebra, acting on
        every run of len(rows) coordinates (one run here)."""
        return [self.action_rows(g) for g in _generating_vectors(self.algebra)]

    def check(self):
        """Witness that the action is not a unital right action, or None."""
        alg = self.algebra
        F = alg.field
        id_rows = identity_rows(F, self.dim)
        if self.action_rows(alg.unit) != id_rows:
            return ("unit",)
        for i, j in itertools.product(range(alg.dim), repeat=2):
            prod = alg.mul_basis(i, j)
            lhs = self.action_rows(prod)
            rhs = [self.act(self.action[i][k], {j: F.one}) for k in range(self.dim)]
            if lhs != rhs:
                return ("compose", i, j)
        return None


class FreeModule(RightModule):
    """Free right module of the given rank, coordinates (g, i) -> g*dim + i."""

    def __init__(self, alg, rank):
        d = alg.dim

        def rows_for(b):
            column = [alg.mul_basis(i, b) for i in range(d)]
            return [{g * d + j: c for j, c in prod.items()}
                    for g in range(rank) for prod in column]

        super().__init__(alg, rank * d, LazyAction(d, rows_for), name=f"free^{rank}")

    def generator_matrices(self):
        # a generating vector acts on every copy of A by one matrix
        return self.algebra.generator_rows()


free_module = FreeModule


def regular_module(alg):
    """The regular right module: the free module of rank one, named "regular"."""
    regular = FreeModule(alg, 1)
    regular.name = "regular"
    return regular


class ModuleMap:
    def __init__(self, source, target, rows):
        self.source = source
        self.target = target
        self.rows = rows  # source.dim row dicts over target coordinates

    def apply(self, v):
        return vec_times_rows(self.source.algebra.field, v, self.rows)

    def is_module_map(self):
        F = self.source.algebra.field
        return all(self.apply(self.source.act({i: F.one}, g)) == self.target.act(self.rows[i], g)
                   for g in _generating_vectors(self.source.algebra)
                   for i in range(self.source.dim))

    def image_rank(self):
        return Echelon(self.source.algebra.field).insert_all(self.rows).dim

    def is_iso(self):
        return self.source.dim == self.target.dim == self.image_rank()


def _generating_vectors(alg):
    """Vectors whose unital span is the whole algebra (falls back to the basis)."""
    if alg.generators is not None:
        return alg.generators
    return [alg.basis_vec(i) for i in range(alg.dim)]


def stable_action(alg, action):
    """The action, with the matrices of the basis elements in the support of
    the generating vectors built, so that a lazy action whose ``rows_for``
    raises on a span that is not action-stable raises here, at construction.
    A span stable under these is stable under every word in the generators,
    hence under the whole algebra."""
    for b in sorted({b for g in _generating_vectors(alg) for b in g}):
        action[b]
    return action


def generated_subalgebra_dim(alg):
    """Dimension of the unital subalgebra generated by the generating
    vectors: the span of their words, spun from the unit on the right."""
    gens = _generating_vectors(alg)
    ech = Echelon(alg.field)
    ech.insert(dict(alg.unit))
    frontier = [dict(alg.unit)]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                prod = alg.mul(v, g)
                if ech.insert(prod) is not None:
                    new.append(prod)
        frontier = new
    return ech.dim


class Spin:
    """Standard-basis spin of a module M, carrying images in target modules
    or preimages in a free cover.

    Start vectors of M (by default its basis vectors) are taken in order: a
    start vector becomes a generator x_s when it lies outside the submodule
    spun so far, and every vector v kept by the spin is followed by v*g for
    each algebra generator g in G.  Each vector carries its image under an
    unknown module map from M to every target N, written in the unknowns
    u_s, the image of x_s: the image of x_s*w is u_s*w, so the image of v*g
    is the image of v times the action of g on N.  The augmented vectors
    [v | image] share one Echelon whose M columns come first, so the M part
    pivots first.  A spun vector whose M part reduces to zero leaves a pure
    image part, which a module map must send to zero: dim N linear equations
    in the k*dim N unknowns of N.  Their null space is Hom(S, N) for the
    spun submodule S, because G and the unit generate the algebra, so the
    relations the spin meets are all the conditions on a module map.

    The targets' coordinates are concatenated into 0..n-1; unknown row
    r = s*n + j is coordinate j of u_s, and image column j2 of row r sits at
    column m + r*n + j2 (j and j2 in the same target).  The M part does not
    depend on the targets, so one spin serves all of them, and their
    equations separate by target.

    With ``cover``, and no targets, each vector carries instead its preimage
    in the free cover P = A^b on the generators, x_s lifting to the unit of
    copy s (copy s of A at columns m + s*dim A onward): the preimage of v*g
    is the preimage of v times g.  A pure preimage part left by a relation is then
    an element of the kernel Omega M of P -> M, and ``relations`` lists
    them.  They generate Omega M (Schreier): the preimages of the spun
    vectors and the relations span a subspace of P that holds the unit of
    every copy and is stable under G, so it is P, and the preimages of the
    spun vectors, dim M of them, meet Omega M in zero.

    ``span_dim`` (by default dim M) is the dimension the spin must reach;
    it stops there, and raises AlgebraError if the start vectors span less.
    """

    def __init__(self, M, targets=(), starts=None, span_dim=None, cover=False):
        alg = M.algebra
        F = alg.field
        targets = list(targets)
        if any(N.algebra is not alg and N.algebra.dim != alg.dim for N in targets):
            raise AlgebraError("modules live over different algebras")
        m = M.dim
        span_dim = m if span_dim is None else span_dim
        offsets = list(itertools.accumulate((N.dim for N in targets), initial=0))
        n = offsets[-1]
        self.M, self.targets, self._n = M, targets, n
        # concatenated coordinate j2 -> (its target t, offset of t, dim of t)
        where = self._where = [(t, o, N.dim) for t, (N, o) in enumerate(zip(targets, offsets))
                               for _ in range(N.dim)]

        # [v | carry] times g: the M part by M's matrix of g, and each carry
        # block (an image row in the concatenated targets, or a copy of A)
        # by the matrix of g on that block
        if cover:
            blocks = alg.generator_rows()
            unit = alg.unit

            def carry(s):
                return {m + s * alg.dim + j: c for j, c in unit.items()}
        else:
            blocks = [[{o + j: c for j, c in row.items()}
                       for N, o in zip(targets, offsets) for row in N.action_rows(g)]
                      for g in _generating_vectors(alg)]

            def carry(s):
                return {m + (s * n + j) * n + j: F.one for j in range(n)}
        actions = list(zip(M.generator_matrices(), blocks))

        equations = [Echelon(F) for _ in targets]
        seen = [set() for _ in targets]
        self.relations = []

        def add_relation(residue):
            if cover:
                self.relations.append({col - m: c for col, c in residue.items()})
                return
            # one equation per target coordinate of the residue
            eqs = {}
            for col, c in residue.items():
                s, cell = divmod(col - m, n * n)
                j, j2 = divmod(cell, n)
                t, o, dim = where[j2]
                eqs.setdefault((t, j2 - o), {})[s * dim + j - o] = c
            for (t, _), eq in eqs.items():
                # most relations repeat an equation already seen verbatim
                key = frozenset(eq.items())
                if key not in seen[t]:
                    seen[t].add(key)
                    equations[t].insert(eq)

        if starts is None:
            starts = ({i: F.one} for i in range(m))
        ech = Echelon(F)
        gens = []
        for i, vec in enumerate(starts):
            if ech.dim == span_dim:
                break
            red = ech.reduce({**vec, **carry(len(gens))})
            if min(red, default=m) >= m:    # vec is spun already
                continue
            gens.append(i)
            ech.insert_reduced(red)
            queue = collections.deque([red])
            while queue:
                v = queue.popleft()
                for m_rows, carry_rows in actions:
                    w = ech.reduce(vec_times_diag_kron(F, v, m_rows, carry_rows, m))
                    if min(w, default=m) < m:
                        ech.insert_reduced(w)
                        queue.append(w)
                    elif w:
                        add_relation(w)
        if ech.dim != span_dim:
            raise AlgebraError(f"the spin spans dimension {ech.dim}, not {span_dim}")
        self.generators = gens
        self._ech = ech
        self.solutions = [eqs.null_space(len(gens) * N.dim)
                          for eqs, N in zip(equations, targets)]

    def _locate(self, col):
        """(target t, unknown of t, coordinate of t) of an image column."""
        s, cell = divmod(col - self.M.dim, self._n * self._n)
        j, j2 = divmod(cell, self._n)
        t, o, dim = self._where[j2]
        return t, s * dim + j - o, j2 - o

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


def hom_spaces(M, targets):
    """A basis of Hom(M, N) for each target N, from one spin of M carrying
    images in every target (``Spin``)."""
    return Spin(M, targets).maps()


def hom_space(M, N):
    """A basis of Hom(M, N) over the common algebra: ``hom_spaces(M, [N])``."""
    return hom_spaces(M, [N])[0]


def direct_sum(M, N):
    alg = M.algebra

    def rows_for(b):
        rows = [dict(r) for r in M.action[b]]
        rows += [{j + M.dim: c for j, c in r.items()} for r in N.action[b]]
        return rows

    return RightModule(alg, M.dim + N.dim, LazyAction(alg.dim, rows_for),
                       name=f"{M.name}+{N.name}")


class SpanModule(RightModule):
    """Module on the span of an Echelon ``ech``, acted on by ``algebra``
    through ``act(v, b)``, a vector of the ambient coordinates times basis
    element b.  Its basis is the reduced rows ``rows``, in the ambient
    coordinates, and ``coords(v)`` reads a vector of the span over them.
    Action stability is certified at construction on the basis elements in
    the support of the generators (``stable_action``): AlgebraError if the
    span is not stable."""

    def __init__(self, algebra, ech, act, name):
        self.rows = ech.basis_rows()
        self._ech = ech

        def rows_for(b):
            return [self.coords(act(r, b)) for r in self.rows]

        action = stable_action(algebra, LazyAction(algebra.dim, rows_for))
        super().__init__(algebra, len(self.rows), action, name)

    def coords(self, v):
        got = self._ech.coords(v)
        if got is None:
            raise AlgebraError("span is not action-stable")
        return got


def submodule(M, vectors, name):
    """Submodule spanned by the given vectors (must be action-stable).

    Returns (module, inclusion map); AlgebraError if the span is not stable.
    """
    sub = SpanModule(M.algebra, Echelon(M.algebra.field).insert_all(vectors), M.act_basis, name)
    return sub, ModuleMap(sub, M, sub.rows)


def quotient_module(M, vectors, name):
    """Quotient of M by the action-stable span of the vectors.

    Returns (module, projection map); AlgebraError if the span is not stable.
    """
    alg = M.algebra
    F = alg.field
    ech = Echelon(F).insert_all(vectors)
    SpanModule(alg, ech, M.act_basis, name)   # raises if the span is not action-stable
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


class ShortExactSequence(NamedTuple):
    """0 -> sub -> mid -> quot -> 0, given by the inclusion and the projection."""
    incl: ModuleMap
    proj: ModuleMap
    name: str

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
        return (self.mid.dim == self.sub.dim + self.quot.dim
                and self.incl.image_rank() == self.sub.dim
                and self.proj.image_rank() == self.quot.dim
                and not any(mat_mul(F, self.incl.rows, self.proj.rows)))

    def is_split(self):
        """Does the projection admit a module section?"""
        F = self.mid.algebra.field
        q = self.quot.dim
        if q == 0:
            return True
        composites = [mat_mul(F, h.rows, self.proj.rows) for h in hom_space(self.quot, self.mid)]
        return in_span(F, identity_rows(F, q), composites, q)


def in_span(F, matrix, matrices, width):
    """Whether the matrix lies in the span of the matrices, all given as rows
    over ``width`` columns: each is flattened to one vector."""
    def flat(rows):
        return {i * width + j: c for i, r in enumerate(rows) for j, c in r.items()}
    return Echelon(F).insert_all(map(flat, matrices)).contains(flat(matrix))


def _omega_spin(M, cover, relations, targets):
    """Spin of the kernel of cover -> M from its relations, carrying images
    in the targets.  The spin's span lies in the kernel, so reaching
    dim cover - dim M certifies that it is the kernel; AlgebraError if not."""
    return Spin(cover, targets, starts=relations, span_dim=cover.dim - M.dim)


def free_presentation(M):
    """0 -> Omega M -> A^b -> M -> 0, free on the spin generators of M, as
    the sequence ``presentation(<name of M>)``.

    The spin of M carrying preimages gives the generators and the relations;
    the kernel's basis is the echelon of the spin of Omega M from them.  The
    spin reaching dim M certifies that the projection is onto.
    """
    alg = M.algebra
    F = alg.field
    spin = Spin(M, cover=True)
    cover = free_module(alg, len(spin.generators))
    omega = SpanModule(alg, _omega_spin(M, cover, spin.relations, [])._ech, cover.act_basis,
                       name=f"Omega({M.name})")
    proj_rows = [M.act_basis({g: F.one}, i) for g in spin.generators for i in range(alg.dim)]
    return ShortExactSequence(ModuleMap(omega, cover, omega.rows), ModuleMap(cover, M, proj_rows),
                              f"presentation({M.name})")


def ext1_dims(M, targets, hom_dims):
    """dim Ext^1(M, N) for each target N, given each dim Hom(M, N).

    From a free presentation 0 -> Omega M -> P0 -> M -> 0 with P0 free of
    rank b: the image of Hom(P0, N) inside Hom(Omega M, N) has dimension
    b*dim N - dim Hom(M, N), since maps vanishing on Omega M are exactly the
    maps factoring through M.  Omega M is spun inside P0 from the relations
    that the spin of M meets, once for every target; of M, only the action
    matrices of the algebra generators are read.
    """
    spin = Spin(M, cover=True)
    b = len(spin.generators)
    omega = _omega_spin(M, free_module(M.algebra, b), spin.relations, targets).solutions
    return [len(sols) - b * N.dim + hom
            for sols, N, hom in zip(omega, targets, hom_dims)]


def ext1(M, N):
    """dim Ext^1(M, N) computed from a free presentation."""
    return ext1_dims(M, [N], [len(hom_space(M, N))])[0]


def check_algebra_map(source, target, rows, unit=None):
    """Witness that rows: source -> target is not an algebra map sending 1 to
    ``unit`` (the target's unit by default), or None.

    Exhaustive on generators: f(x*g) = f(x)*f(g) for every basis x and every
    g in (1, g_0, g_1, ...), dim*(|G| + 1) cases.  This suffices when the unit
    and the generators generate the source: by induction on the length of a
    word w in them, f(x*w*g) = f(x*w)*f(g) = f(x)*f(w*g).  The premise is
    certified once per algebra.  Witnesses: ("unit",), ("generators", the
    dimension they generate) and ("mult", x, k) for the k-th g.
    """
    F = source.field
    unit = target.unit if unit is None else unit
    if vec_times_rows(F, source.unit, rows) != unit:
        return ("unit",)
    if source.generated_dim() != source.dim:
        return ("generators", source.generated_dim())
    images = [unit] + [vec_times_rows(F, g, rows) for g in _generating_vectors(source)]
    columns = [[source.basis_vec(x) for x in range(source.dim)]] + source.generator_rows()
    for k, (image, column) in enumerate(zip(images, columns)):
        for x, prod in enumerate(column):
            if vec_times_rows(F, prod, rows) != target.mul(rows[x], image):
                return ("mult", x, k)
    return None
