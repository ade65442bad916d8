import itertools
from fractions import Fraction

import pytest

from diagalg.algebra_kernel import (
    AlgebraError,
    check_algebra_map,
    direct_sum,
    ext1,
    free_module,
    free_presentation,
    generated_subalgebra_dim,
    hom_space,
    ModuleMap,
    regular_module,
    RightModule,
    submodule,
    quotient_module,
)
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import PrimeField, RationalField
from diagalg.input_algebra import (
    cyclic_group_algebra,
    perm_sign,
    trivial_input_algebra,
    wreath_product,
)
from diagalg.inflation import layer_ideal_indices
from ideal_oracle import ideal_span, is_two_sided_ideal, pullback_module, quotient_algebra
from isomorphism import find_isomorphism
from tensor_route import regular_bimodule, tensor_over

Q = RationalField()


def fr(c):
    return Fraction(c)


def brauer_alg(n, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    dalg = DiagramAlgebra(DiagramKind.abrauer(n), A)
    return dalg, diagram_fin_algebra(dalg)


def walled_alg(r, t, delta="1", field=Q):
    A = trivial_input_algebra(field, field.parse(delta))
    dalg = DiagramAlgebra(DiagramKind.walled(r, t), A)
    return dalg, diagram_fin_algebra(dalg)


def group_algebra_sn(m, field=Q):
    return wreath_product(trivial_input_algebra(field, field.one), m)


def one_dim_module(W, scalar_of_key):
    F = W.field
    action = []
    for key in W.basis_keys:
        c = scalar_of_key(key)
        action.append([{0: c}] if not F.is_zero(c) else [{}])
    return RightModule(W, 1, action, name="one-dim")


def trivial_module(W):
    return one_dim_module(W, lambda key: W.field.one)


def sign_module(W):
    return one_dim_module(W, lambda key: W.field.from_int(perm_sign(key[1])))


# -- diagram FinAlgebra basics -------------------------------------------------

def test_diagram_algebra_is_associative_and_unital():
    for make in (lambda: brauer_alg(2, "3")[1], lambda: brauer_alg(3, "0")[1],
                 lambda: walled_alg(2, 1, "2")[1]):
        alg = make()
        assert alg.check_unital() is None
        assert alg.check_associative() is None
        assert alg.check_involution_square() is None
        assert alg.check_involution_antihom() is None


def test_diagram_generators_generate():
    for alg in (brauer_alg(2)[1], brauer_alg(3)[1], walled_alg(2, 1)[1], walled_alg(2, 2)[1]):
        assert generated_subalgebra_dim(alg) == alg.dim
    A = cyclic_group_algebra(Q, 2, [fr(1), fr(0)])
    dalg = DiagramAlgebra(DiagramKind.abrauer(2), A)
    alg = diagram_fin_algebra(dalg)
    assert generated_subalgebra_dim(alg) == alg.dim == 12
    # Submodule stability is checked on the generators alone, which is sound
    # only if they generate.  These are the big and small (fewer strands per
    # side) diagram algebras that the README and benchmark configurations
    # build modules over, at every loop parameter those configurations use.
    F5 = PrimeField(5)
    for field in (Q, F5):
        for delta in ("1", "2", "0"):
            algs = [brauer_alg(n, delta, field) for n in (1, 2, 3, 4)]
            algs += [walled_alg(r, t, delta, field)
                     for r, t in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3))]
            for _, alg in algs:
                assert generated_subalgebra_dim(alg) == alg.dim, (alg.name, delta, field)
    # a quotient algebra carries the projected generators: killing the cup
    # ideal leaves the permutations, which they must still generate
    for delta in ("2", "0"):
        cases = [(dalg, alg, dalg.cup_generator(1))
                 for dalg, alg in (brauer_alg(3, delta), brauer_alg(4, delta))]
        cases += [(dalg, alg, dalg.cup_generator(r, r + 1))
                  for (dalg, alg), r in ((walled_alg(3, 2, delta), 3),
                                         (walled_alg(2, 3, delta), 2))]
        for dalg, alg, cup in cases:
            e_vec = {alg.key_index[d]: c for d, c in cup.items()}
            quot, _ = quotient_algebra(alg, ideal_span(alg, [e_vec]))
            assert quot.generators is not None
            assert generated_subalgebra_dim(quot) == quot.dim, (alg.name, delta)


# -- ideals and quotients ---------------------------------------------------------

def associativity_triples(alg):
    """Oracle: the first basis triple (i, j, k) with (b_i*b_j)*b_k !=
    b_i*(b_j*b_k), or None; dim^3 cases, for small algebras."""
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        lhs = alg.mul(alg.mul_basis(i, j), alg.basis_vec(k))
        if lhs != alg.mul(alg.basis_vec(i), alg.mul_basis(j, k)):
            return (i, j, k)
    return None


@pytest.mark.parametrize("make", [
    lambda: brauer_alg(3, "2")[1],
    lambda: brauer_alg(3, "0", PrimeField(3))[1],
    lambda: walled_alg(2, 2, "0")[1],
    lambda: group_algebra_sn(3),
    lambda: diagram_fin_algebra(DiagramAlgebra(DiagramKind.abrauer(2),
                                               cyclic_group_algebra(Q, 2, [fr(1), fr(0)]))),
], ids=["D3", "D3-delta0-F3", "walled22-delta0", "QS3", "D2-Z2"])
def test_lights_test_agrees_with_the_triple_oracle(make):
    alg = make()
    assert alg.generators
    assert alg.check_associative() is None
    assert associativity_triples(alg) is None


def test_both_associativity_checks_reject_a_tampered_structure_constant():
    """D_3 with one product b_3*b_5, of two diagrams that are no generators,
    given an extra term on the identity diagram."""
    _, alg = brauer_alg(3, "2")
    assert not {3, 5} & {b for g in alg.generators for b in g}
    honest = alg.pair_mul

    def tampered(i, j):
        got = honest(i, j)
        return {**got, 0: Q.from_int(7)} if (i, j) == (3, 5) else got

    alg.pair_mul = tampered
    assert alg.check_associative() is not None
    assert associativity_triples(alg) is not None


def test_associativity_names_generators_that_do_not_generate():
    _, alg = walled_alg(2, 1, "2")
    alg.generators = alg.generators[:1]
    assert alg.check_associative() == ("generators", 2)


def test_ideal_generated_by_cup_in_b2():
    dalg, alg = brauer_alg(2, "3")
    e = dalg.cup_generator(1)
    e_vec = {alg.key_index[d]: c for d, c in e.items()}
    ech = ideal_span(alg, [e_vec])
    assert ech.dim == 1
    assert is_two_sided_ideal(alg, ech) is None


def test_ideal_of_zero_generator():
    _, alg = brauer_alg(2)
    assert ideal_span(alg, [{}]).dim == 0


def test_ideal_generated_by_cup_in_d3():
    dalg, alg = brauer_alg(3, "1")
    e = dalg.cup_generator(1)
    e_vec = {alg.key_index[d]: c for d, c in e.items()}
    ech = ideal_span(alg, [e_vec])
    assert ech.dim == 9    # 15 - dim RS_3
    # the cup generates the first layer ideal: the span of the diagrams with a cup
    ideal = layer_ideal_indices(dalg, 1)
    assert ech.dim == len(ideal)
    assert all(ech.contains(alg.basis_vec(i)) for i in ideal)


def test_quotient_dimensions():
    dalg, alg = brauer_alg(2, "4")
    e_vec = {alg.key_index[d]: c for d, c in dalg.cup_generator(1).items()}
    quot, proj = quotient_algebra(alg, ideal_span(alg, [e_vec]))
    assert quot.dim == 2
    assert quot.check_associative() is None

    wd, walg = walled_alg(1, 1, "2")
    e_vec = {walg.key_index[d]: c for d, c in wd.cup_generator(1, 2).items()}
    quot2, _ = quotient_algebra(walg, ideal_span(walg, [e_vec]))
    assert quot2.dim == 1


def test_quotient_by_zero_ideal_is_copy():
    _, alg = brauer_alg(2, "1")
    quot, proj = quotient_algebra(alg, ideal_span(alg, [{}]))
    assert quot.dim == alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert quot.mul_basis(i, j) == alg.mul_basis(i, j)


# -- hom spaces ---------------------------------------------------------------

def test_hom_regular_regular_group_algebra_s2():
    W = group_algebra_sn(2)
    R = regular_module(W)
    assert len(hom_space(R, R)) == 2


def test_hom_between_distinct_simples_is_zero():
    W = group_algebra_sn(2)
    assert len(hom_space(trivial_module(W), sign_module(W))) == 0
    assert len(hom_space(trivial_module(W), trivial_module(W))) == 1


def test_hom_maps_are_module_maps():
    W = group_algebra_sn(3)
    R = regular_module(W)
    for h in hom_space(R, trivial_module(W)):
        assert h.is_module_map()


# -- tensor ---------------------------------------------------------------------

def test_tensor_with_regular_bimodule_is_identity():
    W = group_algebra_sn(2)
    for M in (regular_module(W), trivial_module(W), sign_module(W)):
        T, _, _ = tensor_over(M, regular_bimodule(W))
        assert T.dim == M.dim
        assert find_isomorphism(M, T) is not None


def test_tensor_additivity():
    W = group_algebra_sn(2)
    M = direct_sum(trivial_module(W), sign_module(W))
    T, _, _ = tensor_over(M, regular_bimodule(W))
    assert T.dim == 2


def test_tensor_with_sign_twisted_bimodule():
    W = group_algebra_sn(2)
    S = regular_bimodule(W, right_twist=lambda b: W.field.from_int(perm_sign(W.basis_keys[b][1])))
    assert S.check_commuting() is None
    T, _, _ = tensor_over(regular_module(W), S)
    assert T.dim == 2


def test_free_module_is_module():
    W = group_algebra_sn(2)
    assert free_module(W, 2).check() is None


# -- presentations and ext -------------------------------------------------------

def test_presentation_of_free_module_has_zero_kernel():
    W = group_algebra_sn(2)
    pres = free_presentation(regular_module(W))
    assert pres.mid.dim == W.dim     # the regular module is cyclic
    assert pres.sub.dim == 0


def test_presentation_of_trivial_module_over_fp_cyclic():
    F3 = PrimeField(3)
    W = wreath_product(cyclic_group_algebra(F3, 3, [F3.one] * 3), 1)
    triv = one_dim_module(W, lambda key: F3.one)
    pres = free_presentation(triv)
    assert pres.mid.dim == 3
    assert pres.sub.dim == 2         # augmentation ideal of F_3[Z/3]
    assert pres.sub.check() is None


def test_is_iso_reads_the_rank_and_both_dimensions():
    W = group_algebra_sn(2)
    R, T = regular_module(W), trivial_module(W)
    one_plus_s = {0: Q.one, 1: Q.one}
    assert ModuleMap(R, R, [{0: Q.one}, {1: Q.one}]).is_iso()
    # left multiplication by 1 + s: a square module map of rank 1
    assert not ModuleMap(R, R, [one_plus_s, one_plus_s]).is_iso()
    # onto the trivial module, and into R: full rank on one side only
    assert not ModuleMap(R, T, [{0: Q.one}, {0: Q.one}]).is_iso()
    assert not ModuleMap(T, R, [one_plus_s]).is_iso()


def test_rank_nullity():
    W = group_algebra_sn(2)
    for M in (regular_module(W), direct_sum(trivial_module(W), regular_module(W))):
        pres = free_presentation(M)
        assert pres.mid.dim - pres.sub.dim == M.dim


def test_ext1_vanishes_for_semisimple():
    W = group_algebra_sn(2)   # char 0: semisimple
    for M in (trivial_module(W), sign_module(W), regular_module(W)):
        for N in (trivial_module(W), sign_module(W)):
            assert ext1(M, N) == 0


def test_ext1_selfextension_of_trivial_cyclic_p():
    F5 = PrimeField(5)
    W = wreath_product(cyclic_group_algebra(F5, 5, [F5.one] * 5), 1)
    triv = one_dim_module(W, lambda key: F5.one)
    assert ext1(triv, triv) == 1


def test_ext1_from_free_is_zero():
    F5 = PrimeField(5)
    W = wreath_product(cyclic_group_algebra(F5, 5, [F5.one] * 5), 1)
    triv = one_dim_module(W, lambda key: F5.one)
    assert ext1(regular_module(W), triv) == 0


# -- pullbacks ----------------------------------------------------------------------

def test_pullback_along_identity():
    W = group_algebra_sn(2)
    M = trivial_module(W)
    idrows = [W.basis_vec(i) for i in range(W.dim)]
    P = pullback_module(M, idrows, W)
    assert P.dim == M.dim
    assert P.check() is None


def test_pullback_rejects_non_map():
    W = group_algebra_sn(2)
    M = trivial_module(W)
    bad = [W.basis_vec(i) for i in range(W.dim)]
    bad[1] = {1: fr(2)}   # scaling the swap breaks multiplicativity
    with pytest.raises(AlgebraError):
        pullback_module(M, bad, W)


def test_check_algebra_map_identity():
    W = group_algebra_sn(2)
    idrows = [W.basis_vec(i) for i in range(W.dim)]
    assert check_algebra_map(W, W, idrows) is None


def off_generators(alg):
    """Basis elements that are neither in the unit nor in the support of a
    generator: a product checked on generators never has one as its g."""
    support = {b for g in alg.generators for b in g} | set(alg.unit)
    return sorted(set(range(alg.dim)) - support)


def _scaled_off_generators(W):
    """The identity of W with the row of the last basis element off the
    generators scaled by 2, and that element."""
    x = off_generators(W)[-1]
    rows = [W.basis_vec(i) for i in range(W.dim)]
    rows[x] = {x: fr(2)}
    return rows, x


def test_check_algebra_map_sees_a_row_off_the_generators():
    """Only dim*(|G| + 1) products are compared, none with the scaled element
    as its g; the failure shows up at some x*g all the same."""
    W = group_algebra_sn(3)
    rows, x = _scaled_off_generators(W)
    witness = check_algebra_map(W, W, rows)
    assert witness is not None and witness[0] == "mult"
    _, y, k = witness
    assert 0 <= y < W.dim and 0 <= k <= len(W.generators)


def test_check_algebra_map_checks_the_given_unit():
    W = group_algebra_sn(2)
    idrows = [W.basis_vec(i) for i in range(W.dim)]
    assert check_algebra_map(W, W, idrows, unit={1: fr(1)}) == ("unit",)


def test_check_algebra_map_names_generators_that_do_not_generate():
    """With s_1 alone listed, the unit and the generators span 2 of the 6
    dimensions of QS_3: a named premise failure, even for the identity map,
    which a check on those generators alone would pass."""
    W = group_algebra_sn(3)
    W.generators = W.generators[:1]
    idrows = [W.basis_vec(i) for i in range(W.dim)]
    assert check_algebra_map(W, W, idrows) == ("generators", 2)
    rows, _ = _scaled_off_generators(W)
    assert check_algebra_map(W, W, rows) == ("generators", 2)


# -- submodule / quotient machinery ---------------------------------------------------

def test_submodule_and_quotient_split_regular_s2():
    W = group_algebra_sn(2)
    R = regular_module(W)
    # span of (1 + s): a copy of the trivial module inside the regular module
    F = W.field
    v = {0: F.one, 1: F.one}
    sub, incl = submodule(R, [v, R.act(v, W.basis_vec(1))], name="sub")
    assert sub.dim == 1
    quot, proj = quotient_module(R, [v], name="quot")
    assert quot.dim == 1
    assert incl.is_module_map() and proj.is_module_map()


def test_index_cases_exhaustive_sampled_and_empty():
    import itertools
    import math

    from diagalg.algebra_kernel import index_cases

    cases, count, sampled = index_cases((2, 3), 3, 5, seed=0)
    assert list(cases) == list(itertools.product(range(2), range(3)))
    assert (count, sampled) == (6, False)
    # sampled: min(samples, population) distinct tuples in range, the same
    # ones for the same seed
    for sizes, samples in (((4, 2), 5), ((4, 2), 8), ((4, 2), 20), ((5, 3, 4), 7)):
        cases, count, sampled = index_cases(sizes, 3, samples, seed=7)
        cases = list(cases)
        assert (count, sampled) == (min(samples, math.prod(sizes)), True)
        assert len(cases) == len(set(cases)) == count
        assert all(0 <= i < size for case in cases for i, size in zip(case, sizes))
        assert cases == list(index_cases(sizes, 3, samples, seed=7)[0])
    assert set(index_cases((4, 2), 3, 20, seed=1)[0]) == set(itertools.product(range(4), range(2)))
    for sizes in ((4, 0), (0, 0)):
        cases, count, _ = index_cases(sizes, 3, 5, seed=0)
        assert list(cases) == [] and count == 0


def test_products_and_actions_leave_stored_rows_alone():
    # accumulation happens in place, so a product or an action must never
    # accumulate into a cached structure constant or a stored action row
    _, alg = brauer_alg(3, delta="2")
    M = regular_module(alg)
    snapshot = {(i, j): dict(alg.mul_basis(i, j))
                for i in range(alg.dim) for j in range(alg.dim)}
    stored = [[dict(r) for r in rows] for rows in M.action]
    total = {i: Q.one for i in range(alg.dim)}
    alg.mul(total, total)
    M.action_rows(total)
    M.act(total, total)
    assert all(alg.mul_basis(i, j) == c for (i, j), c in snapshot.items())
    assert [[dict(r) for r in rows] for rows in M.action] == stored
