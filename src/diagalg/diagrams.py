"""Labeled Brauer and walled Brauer diagram combinatorics.

Vertex and orientation conventions
----------------------------------
A diagram on n columns has top vertices 0..n-1 and bottom vertices n..2n-1
(bottom column j is vertex n+j).  Every edge is a triple (u, v, label) with
u < v, where label indexes the input-algebra basis and the edge is read as
oriented from u to v.  Traversing an edge against its orientation replaces
the label a by a*.  This normal form makes element equality syntactic; every
structural check downstream compares structure constants, not pictures, so
nothing depends on the choice.

Multiplication stacks X over Y, identifying the bottom row of X with the
top row of Y.  Each basis diagram is compiled once, on first use, into one
step table per factor: for every vertex, the letter read when leaving it
(b_k, or b_k* against the orientation) and where the walk goes on, a middle
column or a vertex of the product's own rows.  One walk over the two tables
follows every through-path and every closed middle loop, one lookup in the
input algebra's ``walk_table`` per letter, and stops once every result
vertex is matched and every middle column crossed.  When the input
algebra is monomial (every b_i b_j and every b_i* is one basis element
times a nonzero scalar, as for the base field and cyclic group algebras), a
product of basis diagrams is one diagram times a scalar, and field
operations remain only for loop traces and coefficients other than 1.
Otherwise the walk collects words, and ``InputAlgebra.expand_words``
reduces them into a linear combination over the label choices.

The walk (``DiagramAlgebra.product``) returns the product's edge tuple, its
coefficient and the number of horizontal edges in its top row, which is the
layer of every diagram of the product.  Checks that only compare a product
with a prediction, or ask for its layer, read these three values and build
no ``Diagram``; ``mul_diagrams`` wraps them as an element dict.

Walled diagrams (``family="walled"``, n = r + t columns, wall after column
r): horizontal edges must cross the wall, vertical edges must not, and the
input algebra is the base field.

Elements of the diagram algebra are dicts {Diagram: scalar}.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .algebra_kernel import AlgebraError, algebra_from_mult_context
from .input_algebra import InputAlgebra, identity_perm, label_choices
from .linalg import vec_iadd, vec_scale


class DiagramError(ValueError):
    pass


def diagram_fin_algebra(dalg, cap=2000):
    """FinAlgebra over the diagram basis; products cached on demand.

    The closed-form dimension is compared with the cap before any basis
    diagram is enumerated.
    """
    dim = dalg.dimension()
    if dim > cap:
        raise AlgebraError(f"dimension {dim} exceeds cap {cap}")
    kind = dalg.kind
    if kind.family == "abrauer":
        name = f"D_{kind.n}(dimA={dalg.A.dim})"
    else:
        name = f"B_{kind.wall},{kind.n - kind.wall}"
    return algebra_from_mult_context(dalg, cap=cap, name=name)


class DiagramKind(NamedTuple):
    family: str            # "abrauer" | "walled"
    n: int                 # columns per row (r + t for walled)
    wall: int | None = None  # r, for walled

    @staticmethod
    def abrauer(n):
        return DiagramKind("abrauer", n)

    @staticmethod
    def walled(r, t):
        return DiagramKind("walled", r + t, r)

    def free_columns(self, l):
        """The kind of the free columns of a layer-l diagram: l on each side
        of the wall fewer (2l fewer for abrauer)."""
        if self.family == "abrauer":
            return DiagramKind.abrauer(self.n - 2 * l)
        return DiagramKind.walled(self.wall - l, self.n - self.wall - l)


class Diagram(NamedTuple):
    edges: tuple  # sorted triples (u, v, label), u < v


class PartialDiagram(NamedTuple):
    n: int
    edges: tuple  # sorted triples (u, v, label) within one row, u < v


def _inv_power(F, delta, l):
    scale = F.one
    inv = F.inv(delta)
    for _ in range(l):
        scale = F.mul(scale, inv)
    return scale


def _expand(pairs, choices):
    """Element of label choices (labels, c): edge pairs[i] takes labels[i]."""
    return {Diagram(tuple(sorted((u, v, k) for (u, v), k in zip(pairs, ks)))): c
            for ks, c in choices}


class DiagramAlgebra:
    """Multiplication context for one diagram family over one input algebra."""

    def __init__(self, kind: DiagramKind, A: InputAlgebra):
        self.kind = kind
        self.A = A
        self.field = A.field
        if kind.family == "walled":
            if kind.wall is None:
                raise DiagramError("walled kind needs a wall position")
            r, t = kind.wall, kind.n - kind.wall
            if r < 0 or t < 0:
                raise DiagramError(f"walled sides must be non-negative, got r = {r}, t = {t}")
            if A.dim != 1:
                raise DiagramError("walled diagrams carry no labels: input algebra must be the base field")
        elif kind.family != "abrauer":
            raise DiagramError(f"unknown diagram family {kind.family!r}")
        if kind.n < 0:
            raise DiagramError(f"number of columns must be non-negative, got {kind.n}")
        self._basis = None
        self._compiled = {}
        self._layers = {}
        self._basis_layers = None
        self._configs = {}
        self._units = {}
        self._unit_labels = {}
        # (walk position, seen marks) of each start: result vertices r, then
        # middle columns c, whose loops are read from the upper factor
        n = kind.n
        self._ends = [(r if r < n else 2 * n + r, 4 * n + r) for r in range(2 * n)]
        self._columns = [(n + c, n + c, 2 * n + c) for c in range(n)]
        self._crossings = range(n + 1)
        # the step of a vertex joined to p, by letter code: as upper, as lower factor
        codes, ends = range(2 * A.dim), range(2 * n)
        self._step_pairs = (
            [[(code, 4 * n + p if p < n else n + p) for p in ends] for code in codes],
            [[(code, 4 * n + p if p >= n else n + p) for p in ends] for code in codes])

    # -- structural helpers ------------------------------------------------

    def _column(self, w):
        n = self.kind.n
        return w if w < n else w - n

    def _left_of_wall(self, w):
        return self._column(w) < self.kind.wall

    def check_edge_legal(self, u, v):
        """Wall discipline: horizontal edges cross, vertical edges do not."""
        if self.kind.family != "walled":
            return True
        n = self.kind.n
        horizontal = (v < n) or (u >= n)
        crosses = self._left_of_wall(u) != self._left_of_wall(v)
        return crosses if horizontal else not crosses

    def check_diagram(self, d: Diagram):
        n = self.kind.n
        seen = set()
        for (u, v, lab) in d.edges:
            if not (0 <= u < v < 2 * n):
                raise DiagramError(f"bad edge ({u},{v})")
            if not (0 <= lab < self.A.dim):
                raise DiagramError(f"bad label {lab}")
            if u in seen or v in seen:
                raise DiagramError("not a matching")
            if not self.check_edge_legal(u, v):
                raise DiagramError(f"edge ({u},{v}) violates the wall")
            seen.update((u, v))
        if len(seen) != 2 * n:
            raise DiagramError("matching is not perfect")

    # -- basis -------------------------------------------------------------

    def dimension(self):
        """Closed-form basis size: (dim A)^n (2n-1)!! or, walled, (r+t)!."""
        n = self.kind.n
        if self.kind.family == "walled":
            return math.factorial(n)
        return self.A.dim ** n * math.prod(range(1, 2 * n, 2))

    def basis(self):
        if self._basis is None:
            self._basis = self._enumerate_basis()
        return self._basis

    def _enumerate_basis(self):
        n = self.kind.n
        verts = tuple(range(2 * n))
        diagrams = []
        legal = self.check_edge_legal if self.kind.family == "walled" else None
        for matching in _matchings(verts, n, legal):
            for labels in itertools.product(range(self.A.dim), repeat=len(matching)):
                diagrams.append(Diagram(tuple([(u, v, k) for (u, v), k in zip(matching, labels)])))
        return sorted(diagrams)

    def enumerate_partials(self, l):
        """Basis of the one-row configurations with l horizontal edges."""
        n = self.kind.n
        out = []
        # on one row every edge is horizontal, so a walled one must cross the wall
        legal = self.check_edge_legal if self.kind.family == "walled" else None
        for matching in _matchings(tuple(range(n)), l, legal):
            for labels in itertools.product(range(self.A.dim), repeat=l):
                edges = tuple(sorted((u, v, k) for (u, v), k in zip(matching, labels)))
                out.append(PartialDiagram(n, edges))
        return sorted(out)

    # -- distinguished elements ---------------------------------------------

    def identity(self):
        return self.decorated_perm_diagram(identity_perm(self.kind.n),
                                           [self.A.unit] * self.kind.n)

    def decorated_perm_diagram(self, perm, label_vecs):
        """Element with strand i -> perm(i), slot i labeled by label_vecs[i]."""
        n = self.kind.n
        return _expand([(i, n + perm[i]) for i in range(n)],
                       label_choices(self.field, label_vecs))

    def swap(self, i):
        """Generator crossing columns i, i+1 (1-based i, 1 <= i <= n-1)."""
        n = self.kind.n
        if not 1 <= i <= n - 1:
            raise DiagramError(f"swap index {i} out of range")
        if self.kind.family == "walled" and i == self.kind.wall:
            raise DiagramError("swap generators may not cross the wall")
        p = list(range(n))
        p[i - 1], p[i] = p[i], p[i - 1]
        return self.decorated_perm_diagram(tuple(p), [self.A.unit] * n)

    def label_generator(self, j, k):
        """Identity matching with basis label k on strand j (1-based j)."""
        n = self.kind.n
        if not 1 <= j <= n:
            raise DiagramError(f"strand index {j} out of range")
        if self.kind.family == "walled":
            raise DiagramError("walled diagrams carry no labels")
        vecs = [self.A.unit] * n
        vecs[j - 1] = {k: self.field.one}
        return self.decorated_perm_diagram(identity_perm(n), vecs)

    def cup_generator(self, i, j=None):
        """Horizontal-edge generator.

        For the abrauer family: cups on columns i, i+1 (1-based).  For the
        walled family pass both columns (1-based, one on each side of the
        wall).
        """
        n = self.kind.n
        if self.kind.family == "abrauer":
            if not 1 <= i <= n - 1:
                raise DiagramError(f"cup index {i} out of range")
            a, b = i - 1, i
        else:
            if j is None:
                raise DiagramError("walled cup generator needs two columns")
            a, b = i - 1, j - 1
            w = self.kind.wall
            if not (0 <= a < w <= b < n):
                raise DiagramError("walled cup must have one endpoint on each side of the wall")
        return self._cup_diagram_element(((a, b),), ((a, b),))

    def _cup_diagram_element(self, top_pairs, bottom_pairs):
        """Element with given unit-labeled cups and order-preserving strands."""
        n = self.kind.n
        top_used = {w for p in top_pairs for w in p}
        bot_used = {w for p in bottom_pairs for w in p}
        top_free = [i for i in range(n) if i not in top_used]
        bot_free = [i for i in range(n) if i not in bot_used]
        if len(top_free) != len(bot_free):
            raise DiagramError("cups leave unequal numbers of free columns in the two rows")
        parts = []
        for (u, v) in top_pairs:
            parts.append((u, v))
        for (u, v) in bottom_pairs:
            parts.append((n + u, n + v))
        for u, v in zip(top_free, bot_free):
            parts.append((u, n + v))
        out = _expand(parts, label_choices(self.field, [self.A.unit] * len(parts)))
        for d in out:
            self.check_diagram(d)
        return out

    def layer_idempotent(self, l):
        """The idempotent with l unit-labeled cups in each row.

        The top cups are adjacent (abrauer) or nested across the wall
        (walled).  For invertible delta the bottom cups are the top cups and
        the prefactor is delta^{-l}.  For delta = 0 the bottom cups are the
        top cups shifted by one column, so that squaring produces a single
        zig-zag chain instead of closed loops, and no prefactor is needed:
        pairing the free columns in order then leaves one slanted strand,
        and every other strand vertical.
        """
        n = self.kind.n
        F = self.field
        if l == 0:
            return self.identity()
        if not 0 <= l <= self.layer_bound():
            raise DiagramError(f"layer {l} out of range")
        if self.kind.family == "abrauer":
            top = tuple((n - 2 * l + 2 * i, n - 2 * l + 2 * i + 1) for i in range(l))
        else:
            r, t = self.kind.wall, n - self.kind.wall
            top = tuple((r - l + i, r + l - 1 - i) for i in range(l))
        delta = self.A.delta()
        if not F.is_zero(delta):
            return vec_scale(F, _inv_power(F, delta, l), self._cup_diagram_element(top, top))
        if self.kind.family == "abrauer":
            if n % 2 == 0:
                raise DiagramError("delta = 0 with an even number of strands is excluded")
            shift = (-1, -1)
        elif l < t:
            shift = (0, 1)
        elif l < r:
            shift = (-1, 0)
        else:
            raise DiagramError("delta = 0 idempotent needs a free column "
                               "(one of r, t must exceed the layer)")
        return self._cup_diagram_element(top, tuple((u + shift[0], v + shift[1])
                                                    for u, v in top))

    # -- multiplication ------------------------------------------------------

    def _compile(self, d: Diagram):
        """Step tables of d for the walk: (as upper factor, as lower factor).

        Vertex w of the upper factor is walk position w, of the lower 2n + w.
        Entry w is (letter code, partner): code k when the edge is left from
        its canonical end u, dim A + k (b_k*) when left from v; the partner
        is the position the walk goes on from, n + p for an edge ending at
        vertex p in the middle row, 4n + p for vertex p of the result.
        """
        n, dim = self.kind.n, self.A.dim
        up, low = self._step_pairs
        upper, lower = [None] * (2 * n), [None] * (2 * n)
        for (u, v, k) in d.edges:
            upper[u], lower[u] = up[k][v], low[k][v]
            upper[v], lower[v] = up[dim + k][u], low[dim + k][u]
        got = self._compiled[d] = (tuple(upper), tuple(lower))
        return got

    def _from_words(self, edges, loops=()):
        """Element of edges (u, v, word) and loop words of the walk table."""
        return _expand([(u, v) for u, v, _ in edges],
                       self.A.expand_words([w for _, _, w in edges], loops))

    def product(self, d1: Diagram, d2: Diagram):
        """(edges, coefficient, top) of the product of two basis diagrams.

        One walk over the compiled pair: every through-path from its smaller
        result vertex, then every closed middle loop from its leftmost column
        into d1.  Each step reads its position once, its letter and where
        the walk goes on, and reduces the path's label by one table lookup,
        b_k times that letter; coefficients other than 1 are multiplied as
        they appear, and loop traces at the end.  The walk stops once all 2n
        result vertices are matched and all n middle columns crossed: on a
        permutation diagram after the n paths from the top row.  A loop
        leaves a column uncrossed, so loops are still walked.

        ``top`` counts the horizontal edges of the product's top row: every
        diagram of the product has this matching, so it is their layer.
        Over a monomial input algebra the product is ``Diagram(edges)``
        times ``coefficient``, which is zero when a loop trace or a label
        coefficient kills it.  Otherwise ``edges`` is None and
        ``coefficient`` is the whole product as an element dict.
        """
        n = self.kind.n
        compiled = self._compiled
        step = ((compiled.get(d1) or self._compile(d1))[0]
                + (compiled.get(d2) or self._compile(d2))[1])
        letters, products = self.A.walk_table
        F = self.field
        out = 4 * n                   # partners from here on are result vertices
        top_end = 5 * n               # and below this, top-row vertices
        seen = [False] * (6 * n)      # middle positions crossed, result vertices reached
        edges, loops = [], []
        top = 0
        c = None
        left = 3 * n                  # result vertices to match and columns to cross
        crossings = self._crossings
        for w0, mark in self._ends:
            if seen[mark]:
                continue
            code, x = step[w0]
            k, y = letters[code]
            for s in crossings:       # s columns crossed so far
                if y is not None:
                    c = y if c is None else F.mul(c, y)
                if x >= out:
                    break
                seen[x] = True
                code, x = step[x]
                k, y = products[k][code]
            seen[x] = True
            if x < top_end:
                top += 1
            edges.append((mark - out, x - out, k))
            left -= s + 2
            if not left:
                break
        for w0, mark, mark2 in self._columns if left else ():
            if seen[mark] or seen[mark2]:
                continue
            code, x = step[w0]
            k, y = letters[code]
            while True:
                if y is not None:
                    c = y if c is None else F.mul(c, y)
                if x == w0:
                    break
                seen[x] = True
                code, x = step[x]
                k, y = products[k][code]
            loops.append(k)
        if self.A.label_table is None:
            return None, self._from_words(edges, loops), top
        trace = self.A.trace
        for k in loops:
            c = trace[k] if c is None else F.mul(c, trace[k])
        return tuple(edges), F.one if c is None else c, top

    def element(self, result):
        """The element dict of a ``product`` result."""
        edges, c, _ = result
        if edges is None:
            return c
        return {} if self.field.is_zero(c) else {Diagram(edges): c}

    def mul_diagrams(self, d1: Diagram, d2: Diagram):
        """Product of two basis diagrams as an element dict (see ``product``)."""
        return self.element(self.product(d1, d2))

    def index_product(self, basis, index):
        """b_i * b_j as {index: c}: the ``pair_mul`` of ``diagram_fin_algebra``."""
        return lambda i, j: {index[d]: c for d, c in self.mul_diagrams(basis[i], basis[j]).items()}

    def mul(self, x, y):
        F = self.field
        out = {}
        for d1, c1 in x.items():
            for d2, c2 in y.items():
                vec_iadd(F, out, F.mul(c1, c2), self.mul_diagrams(d1, d2))
        return out

    # -- involution ----------------------------------------------------------

    def involution_key(self, d: Diagram):
        """Flip across the horizontal axis and star the labels: a vertical
        edge is read from its other end, a horizontal one keeps its ends."""
        n, dim = self.kind.n, self.A.dim
        letters = self.A.walk_table[0]
        F = self.field
        edges, c = [], None
        for u, v, code in sorted((u + n, v + n, k) if v < n else (u - n, v - n, k) if u >= n
                                 else (v - n, u + n, dim + k) for (u, v, k) in d.edges):
            k, y = letters[code]
            if y is not None:
                c = y if c is None else F.mul(c, y)
            edges.append((u, v, k))
        if self.A.label_table is None:
            return self._from_words(edges)
        return {Diagram(tuple(edges)): F.one if c is None else c}

    # -- layer structure -------------------------------------------------------

    def layer_bound(self):
        if self.kind.family == "abrauer":
            return self.kind.n // 2
        return min(self.kind.wall, self.kind.n - self.kind.wall)

    def layer(self, d: Diagram):
        """Horizontal edges per row of d (equal for top and bottom), counted
        once per diagram."""
        got = self._layers.get(d)
        if got is None:
            n = self.kind.n
            got = self._layers[d] = sum(1 for e in d.edges if e[1] < n)
        return got

    def basis_layers(self):
        """The layer of each basis diagram, in basis order, listed once."""
        if self._basis_layers is None:
            self._basis_layers = [self.layer(d) for d in self.basis()]
        return self._basis_layers

    def truncate_above_layer(self, x, l):
        """Kill every diagram with more than l horizontal edges (mod J_{l+1})."""
        return {d: c for d, c in x.items() if self.layer(d) <= l}

    def configuration(self, pd: PartialDiagram):
        """(free vertices, their slots {vertex: i}) of a one-row
        configuration, built once per algebra."""
        got = self._configs.get(pd)
        if got is None:
            used = {w for (u, v, _) in pd.edges for w in (u, v)}
            free = tuple(i for i in range(self.kind.n) if i not in used)
            got = self._configs[pd] = (free, {w: i for i, w in enumerate(free)})
        return got

    def unit_assembly(self, pd: PartialDiagram):
        """The element (pd, pd, 1): pd in both rows and a strand labeled 1
        of A on each free column, built once per algebra.  The label
        choices of 1 on m strands are multiplied out once per m."""
        got = self._units.get(pd)
        if got is None:
            n, free = self.kind.n, self.configuration(pd)[0]
            choices = self._unit_labels.get(len(free))
            if choices is None:
                choices = self._unit_labels[len(free)] = label_choices(
                    self.field, [self.A.unit] * len(free))
            rows = list(pd.edges) + [(n + u, n + v, k) for u, v, k in pd.edges]
            got = self._units[pd] = {
                Diagram(tuple(sorted(rows + [(w, n + w, k) for w, k in zip(free, ks)]))): c
                for ks, c in choices}
        return got

    def layer_factorize(self, d: Diagram):
        """Split an exactly-l-edge diagram into (top, bottom, wreath key).

        Free vertices are renumbered left to right on each row; the wreath
        key is (label tuple, perm tuple) with the label attached at the top
        slot of its strand.  The edges of d are sorted, so each row's are.
        """
        n = self.kind.n
        tops, bottoms, strands = [], [], []
        for (u, v, k) in d.edges:
            if v < n:
                tops.append((u, v, k))
            elif u >= n:
                bottoms.append((u - n, v - n, k))
            else:
                strands.append((u, v - n, k))
        top, bottom = PartialDiagram(n, tuple(tops)), PartialDiagram(n, tuple(bottoms))
        top_pos, bot_pos = self.configuration(top)[1], self.configuration(bottom)[1]
        m = len(top_pos)
        perm = [0] * m
        labels = [0] * m
        for (u, w, k) in strands:
            perm[top_pos[u]] = bot_pos[w]
            labels[top_pos[u]] = k
        return top, bottom, (tuple(labels), tuple(perm))

    def layer_assemble_key(self, top: PartialDiagram, bottom: PartialDiagram, key):
        labels, perm = key
        n = self.kind.n
        tf, bf = self.configuration(top)[0], self.configuration(bottom)[0]
        edges = list(top.edges)
        edges += [(n + u, n + v, k) for (u, v, k) in bottom.edges]
        edges += [(tf[i], n + bf[perm[i]], labels[i]) for i in range(len(perm))]
        return Diagram(tuple(sorted(edges)))

    def label(self, d: Diagram):
        """Text form of a basis diagram, as witnesses print it."""
        return format_diagram(self, d)

    # -- FinAlgebra glue --------------------------------------------------------

    def generator_elements(self):
        """Swaps, cups and the labels of strand 1; a label generator equal to
        the unit (label 1 of a group algebra) is left out."""
        gens = []
        n = self.kind.n
        if self.kind.family == "abrauer":
            for i in range(1, n):
                gens.append(self.swap(i))
                gens.append(self.cup_generator(i))
            if self.A.dim > 1 and n >= 1:
                unit = self.identity()
                labels = (self.label_generator(1, k) for k in range(self.A.dim))
                gens += [g for g in labels if g != unit]
        else:
            r = self.kind.wall
            for i in range(1, n):
                if i != r:
                    gens.append(self.swap(i))
            if min(r, n - r) >= 1:
                gens.append(self.cup_generator(r, r + 1))
        return gens


def _kind_suffix(kind: DiagramKind) -> str:
    if kind.family == "abrauer":
        return f"abrauer({kind.n})"
    return f"walled({kind.wall},{kind.n - kind.wall})"


def format_diagram(dalg: DiagramAlgebra, d: Diagram) -> str:
    """Text form ``[(t1,b1,label,+),...] @ kind(params)``; edges are listed in
    canonical orientation, so the direction flag is always ``+`` on output."""
    n = dalg.kind.n

    def vname(w):
        return f"t{w + 1}" if w < n else f"b{w - n + 1}"

    body = ",".join(f"({vname(u)},{vname(v)},{dalg.A.labels[k]},+)"
                    for (u, v, k) in d.edges)
    return f"[{body}] @ {_kind_suffix(dalg.kind)}"


def _matchings(verts, l, legal):
    """Matchings with exactly l edges on the vertex tuple, each a tuple of
    edges (a, b) sorted by a, using only edges with legal(a, b) when a
    predicate is given: an illegal edge prunes every matching through it."""
    if l == 0:
        return [()]
    if len(verts) < 2 * l:
        return []
    a, rest = verts[0], verts[1:]
    out = _matchings(rest, l, legal)   # a stays free
    for i, b in enumerate(rest):
        if legal is None or legal(a, b):
            out += [((a, b),) + m for m in _matchings(rest[:i] + rest[i + 1:], l - 1, legal)]
    return out
