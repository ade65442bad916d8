"""Input algebras for the labeled-diagram construction, and wreath products.

An InputAlgebra is a FinAlgebra with involution and trace: a finite-
dimensional unital algebra over an exact field, given by structure
constants, together with an involutory anti-automorphism ``*`` and a
``*``-invariant trace.  The trace of the unit is the loop parameter delta.
The cyclic-group instance has basis h^0..h^{r-1}, involution h^m -> h^{r-m}
and trace values delta_0..delta_{r-1}.  Validation runs the kernel's
unit, associativity and involution checks, exhaustively, and adds the two
trace conditions.

``wreath_product(A, m)`` builds the algebra with basis (label tuple, perm),
product ``(a, s)(b, t) = (a * s(b), s t)`` where s permutes tuple slots and
perms compose left to right.  With ``wall=w`` the basis is restricted to
permutations preserving {0..w-1}: the group algebra of a product of two
symmetric groups, as needed for the walled family.
"""

from __future__ import annotations

import itertools

from .algebra_kernel import FinAlgebra, algebra_from_mult_context

# dimension cap of a wreath product algebra
WREATH_CAP = 5000


class InputAlgebraError(ValueError):
    pass


class _WordRows(dict):
    """Rows of the word table: a word times a letter is the longer word, with
    coefficient 1.  A basis index i, as a wreath slot label, is the word (i,)."""

    def __init__(self, codes):
        super().__init__()
        self.codes = codes

    def __missing__(self, key):
        word = key if isinstance(key, tuple) else (key,)
        row = self[key] = [(word + (code,), None) for code in self.codes]
        return row


class InputAlgebra(FinAlgebra):
    """FinAlgebra with a trace, given by structure constants.

    ``mul_basis`` reads ``structconsts`` on every call, bypassing the
    kernel's product cache.

    Diagram and wreath products reduce their labels by walking
    ``walk_table``, laid out as ``label_table`` is.  For a monomial basis it
    is ``label_table``.  Otherwise ``label_table`` is None and the walk table
    keeps every word as its own label, with coefficient 1, and
    ``expand_words`` reduces the words through the structure constants.
    """

    def __init__(self, field, basis_labels, unit, structconsts, involution_rows, trace):
        super().__init__(field, len(basis_labels), unit, None,
                         [dict(r) for r in involution_rows])
        self.labels = list(basis_labels)  # basis names, printed in diagram witnesses
        self.structconsts = structconsts  # (i, j) -> sparse coefficient dict
        self.trace = list(trace)
        self.label_table = self._monomial_label_table()
        codes = range(2 * self.dim)
        self.walk_table = self.label_table or ([((code,), None) for code in codes],
                                               _WordRows(codes))

    def _monomial_label_table(self):
        """Integer tables for a monomial basis, or None.

        A letter code is i for b_i and dim + i for b_i*.  When every b_i b_j
        and every b_i* is one basis element times a nonzero scalar, returns
        (letters, products): letters[code] = (k, c) is the letter as c b_k,
        and products[i][code] = (k, c) is b_i times the letter.  A
        coefficient equal to 1 is stored as None.
        """
        F = self.field

        def monomial(vec):
            if len(vec) != 1:
                return None
            (k, c), = vec.items()
            return None if F.is_zero(c) else (k, None if c == F.one else c)

        codes = range(2 * self.dim)
        letters = [monomial(self.word_vec((code,))) for code in codes]
        products = [[monomial(self.word_vec((i, code))) for code in codes]
                    for i in range(self.dim)]
        if None in letters or any(None in row for row in products):
            return None
        return letters, products

    def word_vec(self, word):
        """The product of a word of letter codes as a vector."""
        acc = None
        for code in word:
            lab = (self.basis_vec(code) if code < self.dim
                   else self.involution_rows[code - self.dim])
            acc = lab if acc is None else self.mul(acc, lab)
        return acc

    def expand_words(self, words, loops=()):
        """(labels, c) for each choice of one basis label from the product of
        every word, c the product of the chosen coefficients and of the
        traces of the loop words; zero terms are dropped."""
        F = self.field
        scalar = F.one
        for word in loops:
            scalar = F.mul(scalar, self.trace_vec(self.word_vec(word)))
            if F.is_zero(scalar):
                return []
        return label_choices(F, [self.word_vec(w) for w in words], scalar)

    def mul_basis(self, i, j):
        return self.structconsts.get((i, j), {})

    def trace_vec(self, v):
        F = self.field
        return F.sum(F.mul(c, self.trace[i]) for i, c in v.items())

    def delta(self):
        return self.trace_vec(self.unit)

    def unit_basis_index(self):
        """Index i with 1 = b_i, or None if the unit is a proper combination."""
        if len(self.unit) == 1:
            (i, c), = self.unit.items()
            if c == self.field.one:
                return i
        return None


def cyclic_group_algebra(field, r, deltas):
    """Group algebra of Z/r with trace h^m -> deltas[m]."""
    if r < 1:
        raise InputAlgebraError(f"cyclic order must be >= 1, got {r}")
    if len(deltas) != r:
        raise InputAlgebraError(f"need {r} trace values, got {len(deltas)}")
    for m in range(r):
        if deltas[m] != deltas[(r - m) % r]:
            raise InputAlgebraError(
                f"trace not *-invariant: delta_{m} != delta_{r - m}")
    F = field
    struct = {(i, j): {(i + j) % r: F.one} for i in range(r) for j in range(r)}
    invo = [{(r - m) % r: F.one} for m in range(r)]
    labels = [f"h^{m}" for m in range(r)]
    return InputAlgebra(F, labels, {0: F.one}, struct, invo, list(deltas))


def trivial_input_algebra(field, delta):
    """The base field as input algebra with tr(1) = delta."""
    return cyclic_group_algebra(field, 1, [delta])


def _check_json_shape(obj):
    """InputAlgebraError unless the keys, lengths and indices fit ``dim``."""
    missing = [key for key in ("dim", "unit", "structconsts", "involution", "trace")
               if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise InputAlgebraError(f"input algebra lacks the keys {', '.join(missing)}")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise InputAlgebraError(f"dim must be a positive integer, got {dim!r}")

    def need_list(what, value, length):
        if not isinstance(value, list) or len(value) != length:
            raise InputAlgebraError(f"{what} must be a list of {length} entries")

    for key in ("basis", "unit", "trace", "involution"):
        if key in obj:
            need_list(key, obj[key], dim)
    for i, row in enumerate(obj["involution"]):
        need_list(f"involution row {i}", row, dim)
    if not isinstance(obj["structconsts"], list):
        raise InputAlgebraError("structconsts must be a list")
    seen = set()
    for entry in obj["structconsts"]:
        need_list(f"structure constant {entry!r}", entry, 4)
        if not all(type(x) is int and 0 <= x < dim for x in entry[:3]):
            raise InputAlgebraError(
                f"structure constant {entry!r} has an index outside range({dim})")
        if tuple(entry[:3]) in seen:
            raise InputAlgebraError(f"structure constant {entry[:3]} is given twice")
        seen.add(tuple(entry[:3]))


def input_algebra_from_json(obj, field):
    """Parse the input-algebra JSON schema (see README) over the given field.

    A missing key, dim < 1, a length other than ``dim``, an index outside
    range(dim) or an index triple given twice raises InputAlgebraError.
    """
    _check_json_shape(obj)
    F = field
    dim = obj["dim"]
    labels = obj.get("basis", [f"b{i}" for i in range(dim)])

    def scalar(x):
        return F.parse(str(x))

    unit = {i: scalar(c) for i, c in enumerate(obj["unit"]) if not F.is_zero(scalar(c))}
    struct = {}
    for i, j, k, c in obj["structconsts"]:
        v = scalar(c)
        if not F.is_zero(v):
            struct.setdefault((i, j), {})[k] = v
    invo = [{j: scalar(c) for j, c in enumerate(row) if not F.is_zero(scalar(c))}
            for row in obj["involution"]]
    trace = [scalar(c) for c in obj["trace"]]
    return InputAlgebra(F, labels, unit, struct, invo, trace)


def validate_input_algebra(A) -> list:
    """Exhaustive basis validation: one {"name", "ok", "witness"} dict per
    check, the witness a list of basis indices for a failure, else None.

    Unit, associativity and involution go through the kernel's checks; the
    trace must be *-invariant and tracial on basis elements.
    """
    pairs = itertools.product(range(A.dim), repeat=2)
    checks = [
        ("unital", A.check_unital()),
        ("associative", A.check_associative()),
        ("involution squares to identity", A.check_involution_square()),
        ("involution is an anti-automorphism", A.check_involution_antihom()),
        ("trace is *-invariant",
         next(((i,) for i in range(A.dim)
               if A.trace_vec(A.involution_rows[i]) != A.trace[i]), None)),
        ("trace is tracial",
         next(((i, j) for i, j in pairs
               if A.trace_vec(A.mul_basis(i, j)) != A.trace_vec(A.mul_basis(j, i))), None)),
    ]
    return [{"name": name, "ok": w is None, "witness": None if w is None else list(w)}
            for name, w in checks]


def label_choices(F, vecs, scalar=None):
    """(labels, c) for each choice of one basis label from every vector.

    c is scalar (default 1) times the chosen coefficients; zero terms are
    dropped.  Distinct choices give distinct label tuples.
    """
    terms = [((), F.one if scalar is None else scalar)]
    for vec in vecs:
        terms = [(ks + (k,), F.mul(c, ck)) for ks, c in terms for k, ck in vec.items()]
    return [(ks, c) for ks, c in terms if not F.is_zero(c)]


# -- permutations, composed left to right: (s t)(i) = t(s(i)) --

def invert_perm(s):
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def identity_perm(m):
    return tuple(range(m))


def perm_sign(s):
    seen = [False] * len(s)
    sign = 1
    for i in range(len(s)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = s[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _side_preserving_perms(m, wall):
    if wall is None:
        return [tuple(p) for p in itertools.permutations(range(m))]
    left = list(itertools.permutations(range(wall)))
    right = list(itertools.permutations(range(wall, m)))
    return [tuple(l) + tuple(r) for l in left for r in right]


class _WreathContext:
    """Multiplication context whose basis keys (labels, perm) are decorated
    permutation diagrams.

    A product, by basis index, is one pass over the slots: slot i of
    (a, s)(b, t) is one lookup in the input algebra's walk table, b_{a[i]}
    times b_{b[s[i]]}, and the permutation is composed in the same pass.
    The involution reads the starred letter of each slot from the same table.
    """

    def __init__(self, A, m, wall):
        self.A = A
        self.field = A.field
        self.m = m
        self.wall = wall

    def basis(self):
        perms = _side_preserving_perms(self.m, self.wall)
        labels = itertools.product(range(self.A.dim), repeat=self.m)
        return sorted((lab, p) for lab in labels for p in perms)

    def _expand(self, slot_vectors, perm):
        return {(lab, perm): c for lab, c in label_choices(self.field, slot_vectors)}

    def index_product(self, basis, index):
        """b_i * b_j as {index: c}, read from the two keys by index.  Over a
        word table (a non-monomial A) ``expand_words`` reduces the slots."""
        A, mul, one = self.A, self.field.mul, self.field.one
        products, words = A.walk_table[1], A.label_table is None

        def pair_mul(i, j):
            (a, s), (b, t) = basis[i], basis[j]
            labels, perm, c = [], [], None
            for x, y in zip(a, s):
                k, z = products[x][b[y]]
                labels.append(k)
                perm.append(t[y])
                if z is not None:
                    c = z if c is None else mul(c, z)
            if words:
                perm = tuple(perm)
                return {index[lab, perm]: x for lab, x in A.expand_words(labels)}
            return {index[tuple(labels), tuple(perm)]: one if c is None else c}
        return pair_mul

    def identity(self):
        return self._expand([self.A.unit] * self.m, identity_perm(self.m))

    def involution_key(self, key):
        a, s = key
        sinv = invert_perm(s)
        letters, mul, dim = self.A.walk_table[0], self.field.mul, self.A.dim
        labels, c = [], None
        for j in sinv:
            k, y = letters[dim + a[j]]
            labels.append(k)
            if y is not None:
                c = y if c is None else mul(c, y)
        if self.A.label_table is None:
            return {(lab, sinv): x for lab, x in self.A.expand_words(labels)}
        return {(tuple(labels), sinv): self.field.one if c is None else c}

    def generator_elements(self):
        m, units = self.m, [self.A.unit] * self.m
        gens = []
        for i in range(m - 1):
            if self.wall is not None and i == self.wall - 1:
                continue
            p = list(range(m))
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(self._expand(units, tuple(p)))
        if m > 0 and self.A.dim > 1:
            unit = self.identity()
            for k in range(self.A.dim):
                g = self._expand([{k: self.field.one}] + units[1:], identity_perm(m))
                if g != unit:
                    gens.append(g)
        return gens


def wreath_product(A, m, wall=None) -> FinAlgebra:
    """Wreath product algebra of A with the symmetric group on m points.

    With ``wall=w`` only wall-preserving permutations occur (requires A of
    dimension 1); at m = 0 the result is the base field.  Its ``pair_mul``
    reads the two keys by basis index and returns {index: c} from one pass
    over the slots, for monomial and word tables alike.
    """
    if m < 0:
        raise InputAlgebraError("strand count must be non-negative")
    if wall is not None and A.dim != 1:
        raise InputAlgebraError("walled variant requires the trivial input algebra")
    ctx = _WreathContext(A, m, wall)
    name = f"wreath({A.dim},{m})" if wall is None else f"perm2({wall},{m - wall})"
    return algebra_from_mult_context(ctx, cap=WREATH_CAP, name=name)
