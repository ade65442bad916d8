from fractions import Fraction

import pytest

from diagalg.algebra_kernel import pullback_module
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import PrimeField, RationalField
from diagalg.input_algebra import cyclic_group_algebra, trivial_input_algebra
from diagalg.split_pair import (
    SplitPairError,
    cell_head_sequence,
    chain_ideal_sequence,
    corner_split_datum,
    default_sample_modules,
    hom_ext_transfer,
    induce_sequence,
    presentation_sequence,
    restrict_sequence,
    split_control_sequence,
    split_quotient,
    verify_exact_split_pair,
    wreath_sign_module,
    wreath_trivial_module,
)
from isomorphism import find_isomorphism
from tensor_route import induce_via_tensor, transfer_bimodule

Q = RationalField()


def brauer(n, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    dalg = DiagramAlgebra(DiagramKind.abrauer(n), A)
    return dalg, diagram_fin_algebra(dalg)


def cyclo(n, r, deltas, field=Q):
    A = cyclic_group_algebra(field, r, [field.parse(d) for d in deltas])
    dalg = DiagramAlgebra(DiagramKind.abrauer(n), A)
    return dalg, diagram_fin_algebra(dalg)


def walled(r, t, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    dalg = DiagramAlgebra(DiagramKind.walled(r, t), A)
    return dalg, diagram_fin_algebra(dalg)


# -- split quotient -----------------------------------------------------------

def test_split_quotient_kills_cups_keeps_swaps():
    dalg, big = brauer(2, "3")
    datum = split_quotient(dalg, big)
    e = dalg.cup_generator(1)
    s = dalg.swap(1)
    F = Q
    from diagalg.linalg import vec_times_rows
    e_vec = {big.key_index[d]: c for d, c in e.items()}
    s_vec = {big.key_index[d]: c for d, c in s.items()}
    assert vec_times_rows(F, e_vec, datum.proj_rows) == {}
    img = vec_times_rows(F, s_vec, datum.proj_rows)
    assert len(img) == 1


def test_split_quotient_verifies():
    for dalg, big in (brauer(2, "3"), brauer(3, "1"), cyclo(2, 2, ["1", "1"]),
                      walled(2, 1, "2"), brauer(3, "0")):
        rep = split_quotient(dalg, big).verify()
        assert rep["ok"], rep["failures"]


def test_split_quotient_kernel_dim():
    dalg, big = brauer(3, "1")
    datum = split_quotient(dalg, big)
    assert len(datum.kernel_indices) == 15 - 6


# -- corner split datum ---------------------------------------------------------

def test_corner_datum_b2_example():
    dalg, big = brauer(2, "2")
    datum = corner_split_datum(dalg, big, 1)
    assert datum.corner.algebra.dim == 1
    assert datum.W.dim == 1
    assert datum.n_l == 1
    assert datum.S_dim == 1
    assert datum.verify_corner_iso()["ok"]
    assert datum.verify_alpha()["ok"]
    assert datum.verify_transfer_bimodule()["ok"]


def test_corner_datum_d4_l1():
    dalg, big = brauer(4, "1")
    datum = corner_split_datum(dalg, big, 1)
    assert datum.n_l == 6
    assert datum.W.dim == 2
    assert datum.S_dim == 12
    assert datum.verify_corner_iso()["ok"]
    assert datum.verify_transfer_bimodule()["ok"]


def test_corner_datum_walled_22_l1():
    dalg, big = walled(2, 2, "1")
    datum = corner_split_datum(dalg, big, 1)
    assert datum.corner.algebra.dim == 2     # B_{1,1}
    assert datum.W.dim == 1                  # RS_1 x RS_1
    assert datum.n_l == 4
    assert datum.S_dim == 4
    assert datum.verify_corner_iso()["ok"]
    assert datum.verify_alpha()["ok"]
    assert datum.verify_transfer_bimodule()["ok"]


def test_corner_datum_requires_basis_unit():
    # squeeze a non-basis unit through: 1 = b0 + b1 in a rescaled basis
    from diagalg.input_algebra import InputAlgebra
    struct = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one},
              (1, 0): {1: Q.one}, (1, 1): {0: Fraction(1, 1)}}
    A = InputAlgebra(Q, ["u", "v"], {0: Fraction(1, 2), 1: Fraction(1, 2)},
                     struct, [{0: Q.one}, {1: Q.one}], [Fraction(2), Fraction(0)])
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    big = diagram_fin_algebra(dalg)
    with pytest.raises(SplitPairError):
        corner_split_datum(dalg, big, 1)


# -- induction / restriction ------------------------------------------------------

def test_induce_dimension_formula():
    dalg, big = brauer(3, "1")
    datum = corner_split_datum(dalg, big, 1)
    for M in default_sample_modules(datum.W):
        assert datum.induce(M).dim == datum.n_l * M.dim


def test_induce_matches_tensor_oracle():
    dalg, big = brauer(2, "3")
    datum = corner_split_datum(dalg, big, 1)
    for M in (wreath_trivial_module(datum.W),):
        fast = datum.induce(M)
        slow = induce_via_tensor(datum, M)
        assert fast.dim == slow.dim
        assert fast.check() is None
        assert find_isomorphism(fast, slow) is not None


def test_induce_matches_tensor_oracle_walled():
    dalg, big = walled(2, 1, "2")
    datum = corner_split_datum(dalg, big, 1)
    M = wreath_trivial_module(datum.W)
    fast = datum.induce(M)
    slow = induce_via_tensor(datum, M)
    assert fast.dim == slow.dim == datum.n_l
    assert find_isomorphism(fast, slow) is not None


def test_induce_layer_zero_is_pullback():
    dalg, big = brauer(2, "3")
    datum = corner_split_datum(dalg, big, 0)
    sq = split_quotient(dalg, big, W=datum.W)
    M = wreath_trivial_module(datum.W)
    ind = datum.induce(M)
    pulled = pullback_module(M, sq.proj_rows, big)
    assert ind.dim == pulled.dim == M.dim
    assert find_isomorphism(ind, pulled) is not None


def test_idempotent_acts_with_trace_one_on_smallest_induction():
    dalg, big = brauer(2, "5")
    datum = corner_split_datum(dalg, big, 1)
    M = wreath_trivial_module(datum.W)    # the wreath algebra here is the field
    ind = datum.induce(M)
    assert ind.dim == 1
    rows = ind.action_rows(datum.idem_vec)
    trace = Q.sum(rows[i].get(i, Q.zero) for i in range(ind.dim))
    assert trace == Q.one


def test_restrict_regular_b2():
    dalg, big = brauer(2, "5")
    datum = corner_split_datum(dalg, big, 1)
    from diagalg.algebra_kernel import regular_module
    N = regular_module(big)
    res = datum.restrict(N)
    assert res.dim == 1
    assert res.check() is None


def test_restrict_of_induce_has_same_dim_and_unit_iso():
    dalg, big = cyclo(2, 2, ["1", "1"])
    datum = corner_split_datum(dalg, big, 1)
    for M in default_sample_modules(datum.W):
        eta, ind, res = datum.natural_unit_iso(M)
        assert res.dim == M.dim
        assert eta.is_module_map()
        assert eta.is_iso()


# -- sequences ----------------------------------------------------------------------

def test_cell_head_sequence_exact_and_nonsplit_over_f5():
    # at delta = 1 the layer-1 Gram matrix is the all-ones matrix: the induced
    # module has a two-dimensional radical and its simple head is not projective
    F5 = PrimeField(5)
    dalg, big = brauer(3, "1", field=F5)
    datum = corner_split_datum(dalg, big, 1)
    seq = cell_head_sequence(datum, wreath_trivial_module(datum.W))
    assert seq.quot.dim == 1
    assert seq.is_exact()
    assert not seq.is_split()


def test_split_control_sequence_is_split_exact():
    dalg, big = brauer(2, "3")
    datum = corner_split_datum(dalg, big, 1)
    seq = split_control_sequence(wreath_trivial_module(datum.W),
                                 wreath_sign_module(datum.W))
    assert seq.is_exact()
    assert seq.is_split()
    ind_seq = induce_sequence(datum, seq)
    assert ind_seq.is_exact()


def test_chain_ideal_sequence_exact_and_res_exact():
    dalg, big = brauer(3, "1")
    datum = corner_split_datum(dalg, big, 1)
    seq = chain_ideal_sequence(dalg, big, 1)
    assert seq.is_exact()
    res_seq = restrict_sequence(datum, seq)
    assert res_seq.is_exact()


# -- full verification ---------------------------------------------------------------

@pytest.mark.parametrize("make,l", [
    (lambda: brauer(3, "1"), 1),
    (lambda: brauer(3, "0"), 1),
    (lambda: cyclo(2, 2, ["1", "1"]), 1),
    (lambda: walled(2, 2, "1", field=PrimeField(5)), 1),
    (lambda: walled(2, 1, "0"), 1),
])
def test_verify_exact_split_pair(make, l):
    dalg, big = make()
    datum = corner_split_datum(dalg, big, l)
    samples = default_sample_modules(datum.W)
    small_seqs = [presentation_sequence(wreath_trivial_module(datum.W)),
                  split_control_sequence(wreath_trivial_module(datum.W),
                                         wreath_sign_module(datum.W))]
    big_seqs = [chain_ideal_sequence(dalg, big, l)]
    rep = verify_exact_split_pair(datum, samples=samples,
                                  small_sequences=small_seqs,
                                  big_sequences=big_seqs)
    assert rep["ok"], rep


# -- hom/ext transfer -------------------------------------------------------------------

def test_hom_ext_transfer_char0_simples():
    dalg, big = walled(2, 2, "1")
    datum = corner_split_datum(dalg, big, 1)
    M = wreath_trivial_module(datum.W)
    [rep] = hom_ext_transfer(datum, M, [M])
    assert rep["ok"]
    assert rep["homSmall"] == 1 and rep["extSmall"] == 0


def test_hom_ext_transfer_distinct_simples():
    dalg, big = brauer(4, "1")
    datum = corner_split_datum(dalg, big, 1)    # wreath algebra is RS_2
    T = wreath_trivial_module(datum.W)
    S = wreath_sign_module(datum.W)
    [rep] = hom_ext_transfer(datum, T, [S])
    assert rep["ok"]
    assert rep["homBig"] == 0 and rep["extBig"] == 0


def test_transfer_bimodule_is_a_bimodule():
    dalg, big = brauer(2, "3")
    datum = corner_split_datum(dalg, big, 1)
    S = transfer_bimodule(datum)
    assert S.check_commuting() is None
    assert S.left_module_check() is None
    assert S.right_module().check() is None


def test_naturality_checks_every_map_of_the_hom_basis():
    from diagalg.algebra_kernel import ModuleMap, direct_sum, hom_space, regular_module
    from diagalg.linalg import vec_scale
    dalg, big = brauer(3, "2")
    datum = corner_split_datum(dalg, big, 0)    # the wreath algebra is QS_3
    W = datum.W
    samples = [direct_sum(wreath_trivial_module(W), wreath_sign_module(W)),
               regular_module(W)]
    n_maps = len(hom_space(samples[0], samples[1]))
    assert n_maps == 2
    honest = datum.induce_map
    calls = []

    def spy(f, src_ind=None, dst_ind=None):
        calls.append(f)
        return honest(f, src_ind=src_ind, dst_ind=dst_ind)

    datum.induce_map = spy
    rep = verify_exact_split_pair(datum, samples=samples)
    assert rep["naturality"] == {"ok": True, "pair": [samples[0].name, samples[1].name]}
    assert len(calls) == n_maps

    # a square that breaks only on the last basis map must be caught
    def broken_last(f, src_ind=None, dst_ind=None):
        got = spy(f, src_ind=src_ind, dst_ind=dst_ind)
        if len(calls) < n_maps:
            return got
        return ModuleMap(got.source, got.target,
                         [vec_scale(Q, Q.from_int(2), r) for r in got.rows])

    calls.clear()
    datum.induce_map = broken_last
    assert verify_exact_split_pair(datum, samples=samples)["naturality"]["ok"] is False
