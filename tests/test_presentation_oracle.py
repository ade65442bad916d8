"""Presentations and Ext^1 from the spin's relations, against the kernel solve.

``free_presentation`` and ``ext1_dims`` spin Omega M inside the free cover
from the relations that the spin of M meets; ``presentation_oracle.py``
solves Omega M as the null space of the cover projection and spins it from
its own basis.  The two must agree on the cover rank, dim Omega M, the
kernel as a subspace of the cover, and Ext^1, on Brauer, walled Brauer,
cyclotomic and dual-number diagram algebras and on random direct sums of
trivial, sign and regular modules.  A presentation that withholds a
relation it needs must be refused, also under ``python -O``.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from diagalg.algebra_kernel import (
    AlgebraError,
    RightModule,
    direct_sum,
    ext1_dims,
    free_presentation,
    hom_spaces,
    regular_module,
)
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import PrimeField, RationalField, make_field
from diagalg.input_algebra import (
    cyclic_group_algebra,
    input_algebra_from_json,
    trivial_input_algebra,
    wreath_product,
)
from diagalg.linalg import Echelon
from diagalg.split_pair import corner_split_datum, wreath_sign_module, wreath_trivial_module
from presentation_oracle import KernelPresentation
from test_input_algebra import DUAL_NUMBERS

# arguments of ConfigCache.datum: family, params, l, delta, field, deltas
CONFIGS = {
    "D3-l0-fp3": ("abrauer", 3, 0, "1", "fp:3"),
    "D3-l1-q": ("abrauer", 3, 1),
    "D4-l1-fp5": ("abrauer", 4, 1, "2", "fp:5"),
    "walled22-l1-fp2": ("walled", (2, 2), 1, "1", "fp:2"),
    "walled22-l0-q": ("walled", (2, 2), 0),
    "cyclotomic-n3-r2-l1-q": ("abrauer", 3, 1, "1", "q", ("1", "1")),
    "cyclotomic-n3-r2-l1-fp3": ("abrauer", 3, 1, "1", "fp:3", ("1", "1")),
    "dual-D3-l1-q": "dual",
}


def _datum(cache, config):
    if isinstance(config, tuple):
        return cache.datum(*config)
    # k[x]/(x^2): a non-semisimple label algebra
    dalg = DiagramAlgebra(DiagramKind.abrauer(3), input_algebra_from_json(DUAL_NUMBERS, RationalField()))
    return corner_split_datum(dalg, diagram_fin_algebra(dalg), 1)


def kernel_rows(F, rows):
    """Reduced echelon rows of a span: equal exactly when the spans are."""
    return Echelon(F).insert_all(rows).rows


def assert_matches_oracle(M, targets):
    F = M.algebra.field
    pres = free_presentation(M)
    oracle = KernelPresentation(M)
    assert pres.cover_rank == oracle.cover_rank
    assert pres.cover.dim == oracle.cover.dim
    assert pres.kernel.dim == oracle.kernel.dim == pres.cover.dim - M.dim
    assert kernel_rows(F, pres.incl.rows) == kernel_rows(F, oracle.incl.rows)
    kernel = Echelon(F).insert_all(oracle.incl.rows)
    assert all(kernel.contains(r) for r in pres.relations)
    assert pres.proj.rows == oracle.proj_rows
    hom_dims = [len(maps) for maps in hom_spaces(M, targets)]
    expected = oracle.ext1_dims(targets, hom_dims)
    assert ext1_dims(M, targets, hom_dims) == expected
    assert ext1_dims(M, targets, hom_dims, presentation=pres) == expected
    return expected


@pytest.mark.parametrize("name", CONFIGS)
def test_presentations_match_the_kernel_solve(cache, name):
    datum = _datum(cache, CONFIGS[name])
    W = datum.W
    # over the dual numbers x acts as 0, so only the regular module is one
    small = [M for M in (wreath_trivial_module(W), wreath_sign_module(W), regular_module(W))
             if M.check() is None]
    big = [datum.induce(M) for M in small]
    for M in small:
        assert_matches_oracle(M, small)
    for M in big:
        assert_matches_oracle(M, big)


@functools.lru_cache(maxsize=None)
def summands(field_spec):
    """Trivial, sign and regular modules of the group algebra of S_3."""
    F = make_field(field_spec)
    W = wreath_product(trivial_input_algebra(F, F.one), 3)
    return [wreath_trivial_module(W), wreath_sign_module(W), regular_module(W)]


def direct_sum_of(pool, picks):
    M = pool[picks[0]]
    for k in picks[1:]:
        M = direct_sum(M, pool[k])
    return M


module_picks = st.lists(st.integers(0, 2), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["q", "fp:2", "fp:3", "fp:5"]), module_picks,
       st.lists(module_picks, min_size=1, max_size=2))
def test_random_direct_sums_match_the_kernel_solve(field_spec, source, targets):
    pool = summands(field_spec)
    assert_matches_oracle(direct_sum_of(pool, source),
                          [direct_sum_of(pool, t) for t in targets])


def test_ext1_is_not_vacuous_in_characteristic_three():
    # over F_3 the trivial S_3-module extends itself by the sign module
    triv, sign, _ = summands("fp:3")
    assert assert_matches_oracle(triv, [triv, sign]) == [0, 1]


def test_a_withheld_relation_is_refused():
    # F_2[Z/2] has one relation for its trivial module: g - 1
    F2 = PrimeField(2)
    W = wreath_product(cyclic_group_algebra(F2, 2, [F2.one] * 2), 1)
    triv = RightModule(W, 1, [[{0: F2.one}] for _ in range(W.dim)], name="trivial")
    pres = free_presentation(triv)
    assert pres.kernel.dim == 1 and len(pres.relations) == 1
    assert ext1_dims(triv, [triv], [1], presentation=pres) == [1]
    with pytest.raises(AlgebraError):
        ext1_dims(triv, [triv], [1], presentation=pres._replace(relations=[]))
