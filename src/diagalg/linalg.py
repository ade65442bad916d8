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
  (``Echelon.coords``), so no call walks every stored pivot.
"""

from __future__ import annotations


def vec_iadd(F, acc, c, v):
    """acc += c*v in place, dropping entries that cancel; returns acc."""
    add, mul, is_zero, get = F.add, F.mul, F.is_zero, acc.get
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
    add, mul, is_zero, one = F.add, F.mul, F.is_zero, F.one
    out = {}
    get = out.get
    for i, c in v.items():
        scaled = c != one
        for j, x in rows[i].items():
            if scaled:
                x = mul(c, x)
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


def vec_times_diag_kron(F, v, a_rows, b_rows):
    """Row vector times the block-diagonal matrix diag(A, B, B, ...), with A
    and the square B given as lists of rows.

    The coordinates of v below len(a_rows) meet the rows of A; each later
    run of len(b_rows) coordinates meets the rows of B and lands in the same
    run of columns, so B is never copied into its blocks.
    """
    add, mul, is_zero, one = F.add, F.mul, F.is_zero, F.one
    m, n = len(a_rows), len(b_rows)
    out = {}
    get = out.get
    for i, c in v.items():
        if i < m:
            row, shift = a_rows[i], 0
        else:
            r = (i - m) % n
            row, shift = b_rows[r], i - r
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
        F = self.F
        red = self.reduce(v)
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


class CoordSolver:
    """Express vectors in terms of a fixed independent spanning list.

    Rows are inserted with an augmented tracking block; coords(v) returns
    {row index: coefficient} with v = sum_k coeff_k * rows[k], or None.
    """

    def __init__(self, field, rows, width=None):
        self.F = field
        self.n = width if width is not None else (max((max(r, default=-1) for r in rows), default=-1) + 1)
        self.ech = Echelon(field)
        self.count = 0
        for r in rows:
            self.append(r)

    def append(self, row):
        aug = dict(row)
        aug[self.n + self.count] = self.F.one
        # pivots on real columns stay smallest because tracking columns sit past n
        p = self.ech.insert(aug)
        if p is None or p >= self.n:
            raise ValueError("rows are linearly dependent")
        self.count += 1

    def coords(self, v):
        red = self.ech.reduce(v)
        if any(j < self.n for j in red):
            return None
        return {j - self.n: self.F.neg(c) for j, c in red.items()}


def invert_rows(F, rows):
    """Inverse of a square matrix given as rows; None if singular."""
    n = len(rows)
    ech = Echelon(F)
    for i, r in enumerate(rows):
        ech.insert({**r, n + i: F.one})
    if set(ech.rows) != set(range(n)):
        return None
    inv = []
    for i in range(n):
        row = ech.rows[i]
        inv.append({j - n: c for j, c in row.items() if j >= n})
    return inv


def rank(F, rows):
    ech = Echelon(F)
    for r in rows:
        ech.insert(r)
    return ech.dim
