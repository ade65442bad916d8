"""Sparse exact linear algebra over a Field.

Vectors are dicts {column index: nonzero scalar}; matrices are lists of such
rows.  Echelon keeps fully reduced rows (Gauss-Jordan, pivot = smallest
column), so span membership, rank and coordinate extraction are single
passes with no numerical pivoting.

Every layer follows the same sparse invariants:

* no stored zeros: a vector never holds a zero entry, so ``not v`` tests
  for the zero vector and ``==`` is equality of vectors;
* accumulators are owned by the caller: ``vec_iadd`` and ``entry_iadd``
  change their first dict in place, and that dict is always one the caller
  has just created, never a cached product, a stored action row or an
  Echelon row already handed out;
* coordinates are read from the support: the coordinates of a span member
  by pivot position are its own entries at pivot columns
  (``Echelon.coords``), so no call walks every stored pivot;
* over a prime field (``F.p`` set) ``vec_iadd`` and ``vec_times_diag_kron``
  do the int arithmetic mod p themselves; every other field goes through
  ``F.add`` and ``F.mul``.
"""

from __future__ import annotations


def vec_iadd(F, acc, c, v):
    """acc += c*v in place, dropping entries that cancel; returns acc."""
    p, get = F.p, acc.get
    if p:
        # prime field: a missing entry gets c*x, nonzero mod p, so only a
        # present entry can cancel
        if c:
            for j, x in v.items():
                s = (get(j, 0) + c * x) % p
                if s:
                    acc[j] = s
                else:
                    del acc[j]
        return acc
    add, mul, is_zero = F.add, F.mul, F.is_zero
    if is_zero(c):
        return acc
    scaled = c != F.one
    for j, x in v.items():
        if scaled:
            x = mul(c, x)
        s = get(j)
        if s is None:
            acc[j] = x
        else:
            s = add(s, x)
            if is_zero(s):
                del acc[j]
            else:
                acc[j] = s
    return acc


def entry_iadd(F, acc, j, c):
    """acc[j] += c in place, dropping the entry if it cancels."""
    s = F.add(acc[j], c) if j in acc else c
    if F.is_zero(s):
        acc.pop(j, None)
    else:
        acc[j] = s


def vec_scale(F, c, v):
    if F.is_zero(c):
        return {}
    return {j: F.mul(c, x) for j, x in v.items()}


def vec_times_rows(F, v, rows):
    """Row vector times a matrix given as a list of rows: sum_i v_i * rows[i]."""
    return vec_times_diag_kron(F, v, rows, ())


def vec_times_diag_kron(F, v, a_rows, b_rows, m=None):
    """Row vector times the block-diagonal matrix diag(A, ..., A, B, B, ...),
    with the square A and B given as lists of rows.

    The coordinates of v below m (by default len(a_rows)) meet A, and the
    later ones B, in runs of the matrix's length; each run lands in the same
    run of columns, so neither matrix is copied into its blocks.
    """
    p = F.p
    na, nb = len(a_rows), len(b_rows)
    m = na if m is None else m
    out = {}
    get = out.get
    if p:
        # prime field: sum the integer products, reduce mod p once at the end
        for i, c in v.items():
            if i < m:
                r = i % na
                row = a_rows[r]
            else:
                r = (i - m) % nb
                row = b_rows[r]
            shift = i - r
            for j, x in row.items():
                j += shift
                out[j] = get(j, 0) + c * x
        return {j: s for j, t in out.items() if (s := t % p)}
    add, mul, is_zero, one = F.add, F.mul, F.is_zero, F.one
    for i, c in v.items():
        if i < m:
            r = i % na
            row = a_rows[r]
        else:
            r = (i - m) % nb
            row = b_rows[r]
        shift = i - r
        scaled = c != one
        for j, x in row.items():
            if scaled:
                x = mul(c, x)
            j += shift
            s = get(j)
            if s is None:
                out[j] = x
            else:
                s = add(s, x)
                if is_zero(s):
                    del out[j]
                else:
                    out[j] = s
    return out


def mat_mul(F, a_rows, b_rows):
    return [vec_times_rows(F, r, b_rows) for r in a_rows]


def identity_rows(F, n):
    return [{i: F.one} for i in range(n)]


def transpose_rows(rows, width):
    """Transpose of a matrix given as rows with columns in range(width)."""
    out = [{} for _ in range(width)]
    for i, r in enumerate(rows):
        for j, c in r.items():
            out[j][i] = c
    return out


class Echelon:
    """Fully reduced (Gauss-Jordan) echelon span with deterministic pivots.

    Each stored row has pivot coefficient one and is supported on its pivot
    plus non-pivot columns only, so reduction is a single pass and a member
    vector v satisfies v = sum_p v[p] * row_p over its pivot entries.
    """

    def __init__(self, field):
        self.F = field
        self.rows = {}  # pivot column -> row dict
        self._pos = None  # pivot column -> position in pivots(), built on demand

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, v):
        F = self.F
        rows = self.rows
        out = dict(v)
        # a stored row meets no other pivot column, so each pivot entry of v
        # is cleared by its own row alone
        for p in sorted(out.keys() & rows.keys()):
            vec_iadd(F, out, F.neg(out[p]), rows[p])
        return out

    def contains(self, v) -> bool:
        return not self.reduce(v)

    def insert(self, v):
        """Add v to the span; returns the new pivot column or None."""
        return self.insert_reduced(self.reduce(v))

    def insert_reduced(self, red):
        """``insert`` of a vector that ``reduce`` returned, not reduced again."""
        F = self.F
        if not red:
            return None
        p = min(red)
        row = vec_scale(F, F.inv(red[p]), red)
        row[p] = F.one
        # keep Jordan form: clear the new pivot column from existing rows,
        # into new dicts because basis_rows() may have handed the old ones out
        for q, other in self.rows.items():
            c = other.get(p)
            if c is not None:
                self.rows[q] = vec_iadd(F, dict(other), F.neg(c), row)
        self.rows[p] = row
        self._pos = None
        return p

    def insert_all(self, vectors):
        for v in vectors:
            self.insert(v)
        return self

    def coords(self, v):
        """Coordinates of v over basis_rows(): {position: coefficient}, or
        None when v is outside the span.

        The coefficient of the row at position t is v's own entry at the
        t-th pivot, so only v's support is read.
        """
        if self.reduce(v):
            return None
        pos = self._pos
        if pos is None:
            pos = self._pos = {p: t for t, p in enumerate(self.pivots())}
        return {pos[p]: c for p, c in v.items() if p in pos}

    def basis_rows(self):
        return [self.rows[p] for p in self.pivots()]

    def null_space(self, ncols):
        """Basis of {x : x . row = 0 for every row}, read as equations over
        unknowns 0..ncols-1: one vector per non-pivot unknown."""
        F = self.F
        out = []
        for j in range(ncols):
            if j in self.rows:
                continue
            x = {j: F.one}
            for p, row in self.rows.items():
                c = row.get(j)
                if c is not None:
                    x[p] = F.neg(c)
            out.append(x)
        return out


def kernel_basis(F, rows, ncols):
    """Basis of the null space {x : sum_j x_j row[., j] = 0} of the matrix
    whose rows are equations over unknowns 0..ncols-1."""
    return Echelon(F).insert_all(rows).null_space(ncols)
