"""Test oracle: the transfer bimodule S = W (x)_{corner} e*D by linear algebra.

``TransferOracle`` realizes S as the quotient of e*D by ker(alpha)*e*D: an
Echelon of the products e*b_j spans e*D, every element of e*D gets
coordinates over its basis, and a relation Echelon of the products
k*r (k in ker(alpha), r in e*D) cuts out the quotient.  At l = 0 the
relations are the first layer ideal J_1, which ``verify_alpha`` certifies to
be ker(alpha); at l >= 1 the kernel of alpha is solved in the coordinates of
the corner of ``corner_oracle.py``.  The left basis is the class of the
layer-l diagram (e_top, f, identity) for every bottom configuration f, and
``CoordSolver`` reads left coordinates over its W-translates.

From the datum it reads the idempotent, alpha and the section of alpha, and
none of the reading through the layer factorization by which
``CornerSplitDatum`` builds S, so the tests can compare the two.
``layer_lift`` lifts the coordinates of that reading back to diagrams, from
the layer factorization alone.
"""

from corner_oracle import corner_algebra
from diagalg.inflation import layer_ideal_indices
from diagalg.linalg import Echelon, kernel_basis, transpose_rows, vec_iadd, vec_times_rows


def layer_lift(datum):
    """The lift of the datum's reading of S: coordinates slot(f) * dim W +
    key go to the layer-l diagrams (e_top, f, key), in big coordinates."""
    dalg, W, index = datum.dalg, datum.W, datum.big.key_index
    e_top = dalg.layer_factorize(next(iter(datum.idem)))[0]
    configs = dalg.enumerate_partials(datum.layer)

    def lift(s_vec):
        out = {}
        for s, c in s_vec.items():
            slot, w = divmod(s, W.dim)
            out[index[dalg.layer_assemble_key(e_top, configs[slot], W.basis_keys[w])]] = c
        return out

    return lift


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


class TransferOracle:
    def __init__(self, datum):
        self.datum = datum
        F = self.field = datum.field
        big = self.big = datum.big
        self.W = datum.W

        ed = Echelon(F)
        for j in range(big.dim):
            ed.insert(big.mul(datum.idem_vec, big.basis_vec(j)))
        self.eD_ech = ed
        self.eD_rows = ed.basis_rows()

        rel = Echelon(F)
        if datum.layer == 0:
            for i in layer_ideal_indices(datum.dalg, big, 1):
                rel.insert(self._eD_coords(big.basis_vec(i)))
        else:
            corner = corner_algebra(big, datum.idem_vec)
            alpha_rows = [datum._alpha(row) for row in corner.rows]
            ker = kernel_basis(F, transpose_rows(alpha_rows, self.W.dim), corner.algebra.dim)
            for k in ker:
                kv = vec_times_rows(F, k, corner.rows)
                for r in self.eD_rows:
                    rel.insert(self._eD_coords(big.mul(kv, r)))
        self.rel_ech = rel
        self.S_keep = [t for t in range(len(self.eD_rows)) if t not in rel.rows]
        self.S_pos = {t: s for s, t in enumerate(self.S_keep)}
        self.S_dim = len(self.S_keep)
        self._right_rows = {}

        dalg = datum.dalg
        e_top = dalg.layer_factorize(next(iter(datum.idem)))[0]
        m = e_top.n - 2 * len(e_top.edges)   # free columns of the configuration
        id_key = (tuple([datum.unit_label] * m), tuple(range(m)))
        self.left_basis = [self.to_S({big.key_index[dalg.layer_assemble_key(e_top, f, id_key)]: F.one})
                           for f in dalg.enumerate_partials(datum.layer)]
        spanning = [self.left_act(self.W.basis_vec(w), s)
                    for s in self.left_basis for w in range(self.W.dim)]
        self.solver = CoordSolver(F, spanning, width=self.S_dim)

    def _eD_coords(self, big_vec):
        coords = self.eD_ech.coords(big_vec)
        assert coords is not None, "vector outside e*D"
        return coords

    def to_S(self, big_vec):
        """Class in S of an element of e*D given in big coordinates."""
        red = self.rel_ech.reduce(self._eD_coords(big_vec))
        return {self.S_pos[t]: c for t, c in red.items()}

    def lift_S(self, s_vec):
        """Coordinate section S -> e*D (big coordinates)."""
        out = {}
        for s, c in s_vec.items():
            vec_iadd(self.field, out, c, self.eD_rows[self.S_keep[s]])
        return out

    def right_rows(self, b):
        """Matrix of the right action of basis element b on S."""
        rows = self._right_rows.get(b)
        if rows is None:
            big = self.big
            rows = self._right_rows[b] = [
                self.to_S(big.mul(self.eD_rows[self.S_keep[s]], big.basis_vec(b)))
                for s in range(self.S_dim)]
        return rows

    def left_act(self, w_vec, s_vec):
        """Left action of a wreath element through the corner embedding."""
        F = self.field
        out = {}
        lift = self.lift_S(s_vec)
        for w, c in w_vec.items():
            vec_iadd(F, out, c, self.to_S(self.big.mul(self.datum.section_big[w], lift)))
        return out

    def left_coords(self, s_vec):
        """Coefficients (config slot -> wreath vector) over the left basis."""
        flat = self.solver.coords(s_vec)
        assert flat is not None, "left basis does not span"
        out = {}
        for idx, c in flat.items():
            slot, w = divmod(idx, self.W.dim)
            out.setdefault(slot, {})[w] = c
        return out
