"""The transfer bimodule read from the layer factorization, against the
linear-algebra oracle of ``transfer_oracle.py``.

On every configuration, P: x -> read(lift_oracle(x)) must be a bijection
from the oracle's S onto the coordinates of the (e_top, f, key) diagrams,
and intertwine the right action of every basis diagram of D and the left
action of every wreath basis element; ``_induce_decomp(b)`` must equal the
oracle's left coordinates of (left basis f) * b for every b and f.
"""

from fractions import Fraction

import pytest

from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import RationalField
from diagalg.input_algebra import input_algebra_from_json
from diagalg.linalg import Echelon, vec_iadd, vec_times_rows
from diagalg.split_pair import corner_split_datum
from test_input_algebra import DUAL_NUMBERS
from transfer_oracle import CoordSolver, TransferOracle, layer_lift

Q = RationalField()

# arguments of ConfigCache.datum: family, params, l, delta, field, deltas
CONFIGS = {
    "D3-l0": ("abrauer", 3, 0),
    "D3-l1": ("abrauer", 3, 1),
    "D4-l1": ("abrauer", 4, 1),
    "D4-l2": ("abrauer", 4, 2),
    "walled22-l1": ("walled", (2, 2), 1),
    "walled22-l2": ("walled", (2, 2), 2),
    "cyclotomic-n3-r2-l1": ("abrauer", 3, 1, "1", "q", ("1", "1")),
    "D3-delta0-l1": ("abrauer", 3, 1, "0"),
    "walled22-delta0-l1": ("walled", (2, 2), 1, "0"),
    "dual-D3-l1": 3,
    "dual-D4-l1": 4,
}


def _datum(cache, config):
    if isinstance(config, tuple):
        return cache.datum(*config)
    # k[x]/(x^2) at layer 1: the non-monomial label path
    dalg = DiagramAlgebra(DiagramKind.abrauer(config), input_algebra_from_json(DUAL_NUMBERS, Q))
    return corner_split_datum(dalg, diagram_fin_algebra(dalg), 1)


@pytest.mark.parametrize("name", CONFIGS)
def test_layer_reading_matches_the_oracle(cache, name):
    datum = _datum(cache, CONFIGS[name])
    oracle = TransferOracle(datum)
    F, big, W = datum.field, datum.big, datum.W
    assert datum.verify_transfer_bimodule()["ok"]

    read = datum._to_S
    P = [read(oracle.lift_S({s: F.one})) for s in range(oracle.S_dim)]
    assert oracle.S_dim == datum.n_l * W.dim
    assert Echelon(F).insert_all(P).dim == oracle.S_dim

    def p(s_vec):
        return vec_times_rows(F, s_vec, P)

    lift = layer_lift(datum)
    for b in range(big.dim):
        for s, row in enumerate(oracle.right_rows(b)):
            assert p(row) == read(big.mul(lift(P[s]), big.basis_vec(b))), (b, s)

    for w in range(W.dim):
        for s in range(oracle.S_dim):
            # W acts on the wreath key, block by block
            expected = {}
            for idx, c in P[s].items():
                slot, key = divmod(idx, W.dim)
                vec_iadd(F, expected, c, {slot * W.dim + k: x
                                          for k, x in W.mul_basis(w, key).items()})
            assert p(oracle.left_act(W.basis_vec(w), {s: F.one})) == expected, (w, s)

    for b in range(big.dim):
        right = oracle.right_rows(b)
        assert datum._induce_decomp(b) == [oracle.left_coords(vec_times_rows(F, x, right))
                                           for x in oracle.left_basis], b


def test_coord_solver():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    cs = CoordSolver(Q, rows, width=3)
    got = cs.coords({0: Fraction(2), 1: Fraction(5)})
    assert got == {0: Fraction(2), 1: Fraction(3)}
    assert cs.coords({2: Fraction(1)}) is None


def test_coord_solver_rejects_dependent_rows():
    rows = [{0: Fraction(1)}, {0: Fraction(2)}]
    with pytest.raises(ValueError):
        CoordSolver(Q, rows, width=2)
