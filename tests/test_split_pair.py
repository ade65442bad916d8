from fractions import Fraction

import pytest

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
    restrict_sequence,
    split_control_sequence,
    verify_exact_split_pair,
    wreath_sign_module,
    wreath_trivial_module,
)
from ideal_oracle import pullback_module
from isomorphism import find_isomorphism
from test_algebra_kernel import off_generators
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
    datum = corner_split_datum(dalg, big, 0)
    e = dalg.cup_generator(1)
    s = dalg.swap(1)
    F = Q
    from diagalg.linalg import vec_times_rows
    e_vec = {big.key_index[d]: c for d, c in e.items()}
    s_vec = {big.key_index[d]: c for d, c in s.items()}
    assert vec_times_rows(F, e_vec, datum.alpha_rows) == {}
    img = vec_times_rows(F, s_vec, datum.alpha_rows)
    assert len(img) == 1


def test_split_quotient_verifies():
    for dalg, big in (brauer(2, "3"), brauer(3, "1"), cyclo(2, 2, ["1", "1"]),
                      walled(2, 1, "2"), brauer(3, "0")):
        rep = corner_split_datum(dalg, big, 0).verify_alpha()
        assert rep["ok"], rep["failures"]


def test_split_quotient_kernel_dim():
    dalg, big = brauer(3, "1")
    datum = corner_split_datum(dalg, big, 0)
    assert datum.verify_alpha()["kernelDim"] == 15 - 6


# -- corner split datum ---------------------------------------------------------

def test_corner_datum_b2_example():
    dalg, big = brauer(2, "2")
    datum = corner_split_datum(dalg, big, 1)
    assert datum.corner_dim == 1
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
    assert datum.corner_dim == 2             # B_{1,1}
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


def test_layer_zero_small_algebra_is_the_algebra():
    dalg, big = brauer(3, "2")
    datum = corner_split_datum(dalg, big, 0)
    assert datum.small_big is big and datum.small_dalg is dalg
    assert datum.mu_rows == [big.basis_vec(i) for i in range(big.dim)]
    assert datum.verify_corner_iso() == {"ok": True, "failures": [],
                                         "cornerDim": 15, "smallDim": 15}


def test_scaled_mu_row_off_the_generators_fails_the_corner_iso():
    """walled(3,2) at l = 1: mu of a basis element of B_{2,1} that is neither
    the unit nor a generator, scaled by 2, keeps mu bijective and unital."""
    dalg, big = walled(3, 2, "2")
    datum = corner_split_datum(dalg, big, 1)
    small = datum.small_big
    x = off_generators(small)[-1]
    datum.mu_rows[x] = {j: 2 * c for j, c in datum.mu_rows[x].items()}
    report = datum.verify_corner_iso()
    assert not report["ok"]
    (failure,) = report["failures"]
    assert failure["check"] == "multiplicative"
    y, k = failure["pair"]
    assert 0 <= y < small.dim and 0 <= k <= len(small.generators)


def test_scaled_alpha_row_off_the_generators_fails_alpha():
    """D_3 at l = 0: alpha of a permutation that is neither the unit nor a
    generator (a 3-cycle or the longest element), scaled by 2."""
    dalg, big = brauer(3, "2")
    datum = corner_split_datum(dalg, big, 0)
    x = max(set(off_generators(big)) & set(datum._section_index))
    datum.alpha_rows[x] = {j: 2 * c for j, c in datum.alpha_rows[x].items()}
    report = datum.verify_alpha()
    assert not report["ok"]
    failure = next(f for f in report["failures"] if f["check"] == "alpha_algebra_map")
    assert failure["witness"][0] == "mult"


def test_generators_that_do_not_generate_fail_the_report():
    """With the cup left out of the small algebra's generators, the swaps
    span only the group algebra of S_2 x S_1 inside B_{2,1}: a named premise
    failure in the corner and alpha checks, never a pass on the rest."""
    dalg, big = walled(3, 2, "2")
    datum = corner_split_datum(dalg, big, 1)
    small = datum.small_big
    cup = {small.key_index[d]: c for d, c in datum.small_dalg.cup_generator(2, 3).items()}
    small.generators = [g for g in small.generators if g != cup]
    assert len(small.generators) == 1
    report = verify_exact_split_pair(datum, samples=[wreath_trivial_module(datum.W)])
    assert not report["ok"]
    assert report["cornerIso"]["failures"] == [{"check": "generators_generate",
                                                "generatedDim": 2}]
    assert {"check": "alpha_algebra_map", "witness": ["generators", 2]} in report["alpha"]["failures"]


# -- the certificates read off the diagrams, each shown to catch a defect ------

def test_mu_row_with_a_second_term_fails_the_monomial_certificate():
    """walled(3,2) at l = 1: mu of one small diagram given a second term, on
    a diagram that is mu of another, so iota still has smallDim diagrams."""
    dalg, big = walled(3, 2, "2")
    datum = corner_split_datum(dalg, big, 1)
    (other,) = datum.mu_rows[0]
    x = datum.small_big.dim - 1
    datum.mu_rows[x] = {**datum.mu_rows[x], other: Q.one}
    report = datum.verify_corner_iso()
    assert report["failures"][0] == {"check": "mu_monomial", "diagrams": datum.small_big.dim}


def test_corner_product_outside_the_image_of_iota_fails():
    """D_4 at l = 1: mu of one small diagram moved onto the identity diagram,
    which is not in e*D*e.  mu stays monomial and injective, but the corner
    product e*d'*e that mu sent it to now lies off iota's diagrams."""
    dalg, big = brauer(4, "2")
    datum = corner_split_datum(dalg, big, 1)
    x = datum.small_big.dim - 1
    (corner_diagram,) = datum.mu_rows[x]
    (identity,) = big.unit
    datum.mu_rows[x] = {identity: Q.one}
    report = datum.verify_corner_iso()
    assert report["failures"][0] == {"check": "corner_is_mu_image",
                                     "diagram": min(identity, corner_diagram)}


def test_alpha_onto_a_line_fails_only_alpha_splits():
    """D_3 at l = 0: alpha followed by x -> eps(x)*1, eps the trivial
    character of QS_3, is an algebra map that kills J_1 and leaves every
    count alone, but it is not onto W: its section rows miss their basis
    vectors, the one surjectivity check left."""
    dalg, big = brauer(3, "2")
    datum = corner_split_datum(dalg, big, 0)
    W = datum.W
    datum.alpha_rows = [{w: sum(row.values()) for w in W.unit} if row else {}
                        for row in datum.alpha_rows]
    report = datum.verify_alpha()
    assert W.unit == W.basis_vec(0)      # so basis element 1 is the first miss
    assert report["failures"] == [{"check": "alpha_splits", "basis": 1}]


def _drop_a_relation(datum):
    """S built from ker(alpha) without its first basis element: it comes out
    too big.  The alpha certificate still sees the whole kernel."""
    first_layer = datum._first_layer
    datum._first_layer = first_layer[1:]
    datum._build_transfer_bimodule()
    datum._first_layer = first_layer


def _read_a_diagram_above_the_layer(datum):
    """The reading sends the first diagram above layer l to coordinate 0,
    so it no longer kills the relations."""
    above = datum._coords.index(-1)
    datum._coords[above] = 0
    datum._build_transfer_bimodule()


def _swap_two_section_rows(datum):
    """sigma of wreath basis elements 0 and 1 exchanged: mu(w)*(e_top, f,
    identity) no longer reads as (e_top, f, w)."""
    datum.section_big[0], datum.section_big[1] = datum.section_big[1], datum.section_big[0]
    datum._build_left_basis()


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("mutate, check", [
    (_drop_a_relation, "S_dim"),
    (_read_a_diagram_above_the_layer, "S_is_layer_part"),
    (_swap_two_section_rows, "left_free"),
], ids=["S_dim", "S_is_layer_part", "left_free"])
def test_each_transfer_certificate_catches_its_defect(mutate, check, l):
    """D_4 at l = 0 and 1: each mutation fails its own transfer certificate
    and no other, and leaves the corner and alpha certificates passing."""
    dalg, big = brauer(4, "2")
    datum = corner_split_datum(dalg, big, l)
    mutate(datum)
    (got,) = datum.verify_transfer_bimodule()["failures"]
    if check == "S_dim":
        expected = datum.n_l * datum.W.dim
        assert got == {"check": "S_dim", "got": datum.S_dim, "expected": expected}
        assert datum.S_dim > expected
    else:
        assert got == {"check": check}
    assert datum.verify_corner_iso()["ok"] and datum.verify_alpha()["ok"]


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
    M = wreath_trivial_module(datum.W)
    ind = datum.induce(M)
    pulled = pullback_module(M, datum.alpha_rows, big)
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
    rep = verify_exact_split_pair(datum)
    assert rep["ok"], rep
    assert [s["module"] for s in rep["samples"]] == [
        M.name for M in default_sample_modules(datum.W)]
    assert [s["name"] for s in rep["sequences"]] == [
        "presentation(trivial)", "split-control", f"layer-chain({l})",
        f"presentation(head(ind_{l}(trivial)))"]


# -- hom/ext transfer -------------------------------------------------------------------

def test_hom_ext_transfer_char0_simples():
    dalg, big = walled(2, 2, "1")
    datum = corner_split_datum(dalg, big, 1)
    [rep] = hom_ext_transfer(datum, [wreath_trivial_module(datum.W)])
    assert rep["ok"]
    assert rep["homSmall"] == 1 and rep["extSmall"] == 0


def test_hom_ext_transfer_distinct_simples():
    dalg, big = brauer(4, "1")
    datum = corner_split_datum(dalg, big, 1)    # wreath algebra is RS_2
    reps = hom_ext_transfer(datum, [wreath_trivial_module(datum.W),
                                    wreath_sign_module(datum.W)])
    assert [(rep["M"], rep["N"]) for rep in reps] == [
        ("trivial", "trivial"), ("trivial", "sign"), ("sign", "trivial"), ("sign", "sign")]
    rep = reps[1]
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

    def spy(f, src_ind, dst_ind):
        calls.append(f)
        return honest(f, src_ind, dst_ind)

    datum.induce_map = spy
    rep = verify_exact_split_pair(datum, samples=samples)
    assert rep["naturality"] == {"ok": True, "pair": [samples[0].name, samples[1].name]}
    assert len(calls) == n_maps

    # a square that breaks only on the last basis map must be caught
    def broken_last(f, src_ind, dst_ind):
        got = spy(f, src_ind, dst_ind)
        if len(calls) < n_maps:
            return got
        return ModuleMap(got.source, got.target,
                         [vec_scale(Q, Q.from_int(2), r) for r in got.rows])

    calls.clear()
    datum.induce_map = broken_last
    assert verify_exact_split_pair(datum, samples=samples)["naturality"]["ok"] is False
