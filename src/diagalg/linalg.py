"""Sparse exact linear algebra over a Field.

Vectors are dicts {column index: nonzero scalar}; matrices are lists of such
rows.  Echelon keeps fully reduced rows (Gauss-Jordan, pivot = smallest
column), so span membership, rank and coordinate extraction are single
passes with no numerical pivoting.
"""

from __future__ import annotations


def vec_add(F, u, v):
    out = dict(u)
    for j, c in v.items():
        s = F.add(out.get(j, F.zero), c)
        if F.is_zero(s):
            out.pop(j, None)
        else:
            out[j] = s
    return out


def vec_scaled_add(F, u, c, v):
    """u + c*v as a new dict."""
    if F.is_zero(c):
        return dict(u)
    out = dict(u)
    for j, x in v.items():
        s = F.add(out.get(j, F.zero), F.mul(c, x))
        if F.is_zero(s):
            out.pop(j, None)
        else:
            out[j] = s
    return out


def vec_scale(F, c, v):
    if F.is_zero(c):
        return {}
    return {j: F.mul(c, x) for j, x in v.items()}


def vec_times_rows(F, v, rows):
    """Row vector times a matrix given as a list of rows: sum_i v_i * rows[i]."""
    out = {}
    for i, c in v.items():
        row = rows[i]
        for j, x in row.items():
            s = F.add(out.get(j, F.zero), F.mul(c, x))
            if F.is_zero(s):
                out.pop(j, None)
            else:
                out[j] = s
    return out


def mat_mul(F, a_rows, b_rows):
    return [vec_times_rows(F, r, b_rows) for r in a_rows]


def identity_rows(F, n):
    return [{i: F.one} for i in range(n)]


class Echelon:
    """Fully reduced (Gauss-Jordan) echelon span with deterministic pivots.

    Each stored row has pivot coefficient one and is supported on its pivot
    plus non-pivot columns only, so reduction is a single pass and a member
    vector v satisfies v = sum_p v[p] * row_p over its pivot entries.
    """

    def __init__(self, field):
        self.F = field
        self.rows = {}  # pivot column -> row dict

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, v):
        F = self.F
        out = dict(v)
        for p in sorted(set(out) & set(self.rows)):
            c = out.get(p)
            if c is None or F.is_zero(c):
                continue
            out = vec_scaled_add(F, out, F.neg(c), self.rows[p])
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
        inv = F.inv(red[p])
        row = vec_scale(F, inv, red)
        row[p] = F.one
        # keep Jordan form: clear the new pivot column from existing rows
        for q, other in self.rows.items():
            c = other.get(p)
            if c is not None and not F.is_zero(c):
                self.rows[q] = vec_scaled_add(F, other, F.neg(c), row)
        self.rows[p] = row
        return p

    def insert_all(self, vectors):
        for v in vectors:
            self.insert(v)
        return self

    def coordinates(self, v):
        """Coordinates of v w.r.t. the stored rows {pivot: row}; None if outside."""
        red = self.reduce(v)
        if red:
            return None
        return {p: v.get(p, self.F.zero) for p in self.rows if not self.F.is_zero(v.get(p, self.F.zero))}

    def basis_rows(self):
        return [self.rows[p] for p in self.pivots()]


def kernel_basis(F, rows, ncols):
    """Basis of the null space {x : sum_j x_j row[., j] = 0} of the matrix
    whose rows are equations over unknowns 0..ncols-1."""
    ech = Echelon(F)
    for r in rows:
        ech.insert(r)
    pivots = set(ech.rows)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = {j: F.one}
        for p, row in ech.rows.items():
            c = row.get(j)
            if c is not None and not F.is_zero(c):
                x[p] = F.neg(c)
        out.append(x)
    return out


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
        red = self.ech.reduce(dict(v))
        if any(j < self.n for j in red):
            return None
        return {j - self.n: self.F.neg(c) for j, c in red.items()}


def invert_rows(F, rows):
    """Inverse of a square matrix given as rows; None if singular."""
    n = len(rows)
    ech = Echelon(F)
    for i, r in enumerate(rows):
        ech.insert({**{j: c for j, c in r.items()}, n + i: F.one})
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
