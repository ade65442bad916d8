"""Test oracle: induction by an explicit tensor product.

``induce_via_tensor`` computes M (x)_W S for the transfer bimodule S of a
corner split datum by the textbook construction: the plain tensor space
modulo the balancing relations.  The actions of S come from
``TransferOracle``, the quotient of e*D by linear algebra, so the
construction shares no code with the layer-factorization route of
``CornerSplitDatum.induce``, and the tests compare the two up to
isomorphism.

In a bimodule the left action is stored as row matrices, like the right
action, which makes it anti-homomorphic: ``L(x*y) = L(y) * L(x)``; left and
right action matrices commute elementwise.
"""

from diagalg.algebra_kernel import RightModule
from diagalg.linalg import Echelon, identity_rows, vec_iadd, vec_scale, vec_times_rows
from transfer_oracle import TransferOracle


class Bimodule:
    """(B, A)-bimodule with commuting left/right actions (see module docstring)."""

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action, name=""):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = left_action
        self.right_action = right_action
        self.name = name

    def act_right(self, v, a_vec):
        F = self.right_algebra.field
        out = {}
        for b, c in a_vec.items():
            vec_iadd(F, out, c, vec_times_rows(F, v, self.right_action[b]))
        return out

    def act_left(self, b_vec, v):
        F = self.left_algebra.field
        out = {}
        for b, c in b_vec.items():
            vec_iadd(F, out, c, vec_times_rows(F, v, self.left_action[b]))
        return out

    def right_module(self):
        return RightModule(self.right_algebra, self.dim, self.right_action, name=self.name)

    def left_module_check(self):
        """Witness that the left action is not unital/anti-compositional, or None."""
        F = self.left_algebra.field
        if [self.act_left(self.left_algebra.unit, {i: F.one}) for i in range(self.dim)] \
                != identity_rows(F, self.dim):
            return ("unit",)
        alg = self.left_algebra
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.mul_basis(i, j)
                for k in range(self.dim):
                    lhs = self.act_left(prod, {k: F.one})
                    rhs = self.act_left({i: F.one}, self.act_left({j: F.one}, {k: F.one}))
                    if lhs != rhs:
                        return ("compose", i, j, k)
        return None

    def check_commuting(self):
        F = self.right_algebra.field
        for bl in range(self.left_algebra.dim):
            for br in range(self.right_algebra.dim):
                for i in range(self.dim):
                    v = {i: F.one}
                    lr = self.act_right(self.act_left({bl: F.one}, v), {br: F.one})
                    rl = self.act_left({bl: F.one}, self.act_right(v, {br: F.one}))
                    if lr != rl:
                        return (bl, br, i)
        return None


def regular_bimodule(alg, right_twist=None):
    """The algebra as a bimodule over itself; ``right_twist`` optionally
    scales the right action of basis element b by right_twist(b)."""
    F = alg.field
    left = []
    right = []
    for b in range(alg.dim):
        left.append([alg.mul(alg.basis_vec(b), alg.basis_vec(i)) for i in range(alg.dim)])
        rows = [alg.mul_basis(i, b) for i in range(alg.dim)]
        if right_twist is not None:
            rows = [vec_scale(F, right_twist(b), r) for r in rows]
        right.append(rows)
    return Bimodule(alg, alg, alg.dim, left, right, name=f"{alg.name}-bimod")


def tensor_over(M, S):
    """M (x)_B S for a right B-module M and a (B, A)-bimodule S.

    Returns (module over A, projection rows from the plain tensor square,
    relation echelon).  Coordinates of the plain tensor space are
    (i, s) -> i*dim S + s.
    """
    B = M.algebra
    A = S.right_algebra
    F = A.field
    dS = S.dim
    total = M.dim * dS

    def pure(mvec, svec):
        # distinct (i, s) give distinct coordinates, so nothing adds up
        return {i * dS + s: F.mul(a, b) for i, a in mvec.items() for s, b in svec.items()}

    rel = Echelon(F)
    for b in range(B.dim):
        bvec = {b: F.one}
        for i in range(M.dim):
            mb = M.act_basis({i: F.one}, b)
            for s in range(dS):
                bs = S.act_left(bvec, {s: F.one})
                row = vec_iadd(F, pure(mb, {s: F.one}), F.neg(F.one), pure({i: F.one}, bs))
                if row:
                    rel.insert(row)

    keep = [j for j in range(total) if j not in rel.rows]
    pos = {j: t for t, j in enumerate(keep)}

    def project(v):
        red = rel.reduce(v)
        return {pos[j]: c for j, c in red.items()}

    action = []
    for a in range(A.dim):
        rows = []
        for j in keep:
            i, s = divmod(j, dS)
            sa = S.act_right({s: F.one}, {a: F.one})
            rows.append(project(pure({i: F.one}, sa)))
        action.append(rows)
    mod = RightModule(A, len(keep), action, name=f"{M.name}(x){S.name}")
    proj_rows = [project({t: F.one}) for t in range(total)]
    return mod, proj_rows, rel


def transfer_bimodule(datum):
    """The (wreath, diagram-algebra) bimodule S as an explicit Bimodule."""
    oracle = TransferOracle(datum)
    left = []
    for w in range(datum.W.dim):
        left.append([oracle.left_act(datum.W.basis_vec(w), {s: datum.field.one})
                     for s in range(oracle.S_dim)])
    right = [oracle.right_rows(b) for b in range(datum.big.dim)]
    return Bimodule(datum.W, datum.big, oracle.S_dim, left, right,
                    name=f"S(l={datum.layer})")


def induce_via_tensor(datum, M):
    mod, _, _ = tensor_over(M, transfer_bimodule(datum))
    return mod
