"""Module actions built on first use.

Free covers, presentation kernels, quotients and inductions hold a
``LazyAction``: the matrix of basis element b is computed when it is first
read.  These tests check that the lazy matrices are the eager ones, that an
unstable span is still refused at construction, and that Hom and Ext^1 read
only the matrices of the generators' basis elements.
"""

import pytest

from diagalg.algebra_kernel import (
    AlgebraError,
    LazyAction,
    _omega_spin,
    ext1_dims,
    free_module,
    free_presentation,
    hom_space,
    quotient_module,
    regular_module,
    Spin,
    submodule,
)
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import PrimeField, RationalField
from diagalg.inflation import small_algebra
from diagalg.input_algebra import trivial_input_algebra
from diagalg.linalg import vec_times_rows
from diagalg.split_pair import corner_split_datum, wreath_sign_module, wreath_trivial_module

Q = RationalField()
F5 = PrimeField(5)


def datum_for(kind, l, field, delta="1"):
    dalg = DiagramAlgebra(kind, trivial_input_algebra(field, field.parse(delta)))
    return corner_split_datum(dalg, diagram_fin_algebra(dalg), l)


def generator_support(alg):
    return sorted({b for g in alg.generators for b in g})


def test_lazy_action_builds_each_matrix_once():
    calls = []

    def rows_for(b):
        calls.append(b)
        return [{0: b}]

    action = LazyAction(4, rows_for)
    assert len(action) == 4 and action.built_indices() == []
    assert action[2] == [{0: 2}] and action[2] is action[2]
    assert calls == [2] and action.built_indices() == [2]
    assert list(action) == [[{0: b}] for b in range(4)]
    assert calls == [2, 0, 1, 3]
    with pytest.raises(IndexError):
        action[4]


@pytest.mark.parametrize("kind,l", [(DiagramKind.walled(2, 2), 1),
                                    (DiagramKind.abrauer(3), 1)],
                         ids=["walled22-l1", "abrauer3-l1"])
@pytest.mark.parametrize("field", [Q, F5], ids=["q", "fp5"])
def test_lazy_presentation_equals_eager(kind, l, field):
    datum = datum_for(kind, l, field)
    big = datum.big
    F = field
    ind = datum.induce(wreath_trivial_module(datum.W))
    pres = free_presentation(ind)
    cover, kernel, incl = pres.mid, pres.sub, pres.incl
    d = big.dim
    for b in range(d):
        # the free cover: basis (g, i) goes to (g, b_i * b)
        eager_cover = [{g * d + j: c for j, c in big.mul_basis(i, b).items()}
                       for g in range(cover.dim // d) for i in range(d)]
        assert cover.action[b] == eager_cover
        # the kernel: its matrix K is the unique one with K * incl = incl * cover(b),
        # because the inclusion rows are independent
        moved = [vec_times_rows(F, r, cover.action[b]) for r in incl.rows]
        assert [vec_times_rows(F, k, incl.rows) for k in kernel.action[b]] == moved
    assert cover.action.built_indices() == list(range(d))
    assert kernel.action.built_indices() == list(range(d))
    assert cover.check() is None
    assert kernel.check() is None
    assert ind.check() is None


@pytest.mark.parametrize("n,l", [(3, 0), (3, 1), (4, 0), (4, 1)],
                         ids=["D3-l0", "D3-l1", "D4-l0", "D4-l1"])
def test_regular_module_is_the_lazy_free_module_of_rank_one(n, l):
    """The regular module of the layer's wreath algebra W builds no matrix
    at construction, and matrix b is the column of products b_i * b."""
    dalg = DiagramAlgebra(DiagramKind.abrauer(n), trivial_input_algebra(Q, Q.one))
    W = small_algebra(dalg, l)
    R = regular_module(W)
    assert (R.name, R.dim) == ("regular", W.dim)
    assert R.action.built_indices() == []
    for b in range(W.dim):
        assert R.action[b] == [W.mul_basis(i, b) for i in range(W.dim)]


def test_unstable_span_raises_at_construction():
    dalg = DiagramAlgebra(DiagramKind.abrauer(3), trivial_input_algebra(Q, Q.one))
    alg = diagram_fin_algebra(dalg)
    M = free_module(alg, 1)
    # the unit spans a line that the algebra moves
    with pytest.raises(AlgebraError):
        submodule(M, [alg.unit], name="sub")
    with pytest.raises(AlgebraError):
        quotient_module(M, [alg.unit], name="quot")
    # the whole module is stable, and so is the zero span
    assert submodule(M, [{i: Q.one} for i in range(alg.dim)], name="sub")[0].dim == alg.dim
    assert quotient_module(M, [], name="quot")[0].dim == alg.dim


def test_ext1_builds_only_the_generator_matrices_of_the_kernel():
    datum = datum_for(DiagramKind.abrauer(4), 1, F5, delta="2")
    big = datum.big
    ind = datum.induce(wreath_trivial_module(datum.W))
    pres = free_presentation(ind)
    # the spin of Omega M that Ext^1 runs, inside the presentation's cover
    _omega_spin(ind, pres.mid, Spin(ind, cover=True).relations, [ind])
    support = generator_support(big)
    assert (len(support), big.dim) == (6, 105)
    assert pres.sub.action.built_indices() == support
    assert pres.mid.action.built_indices() == support


def test_ext1_reads_only_the_generator_matrices_of_the_module():
    # Omega M is spun inside the free cover from the relations of the spin
    # of M, so no cover projection reads the other matrices of M
    datum = datum_for(DiagramKind.abrauer(4), 1, F5)
    ind = datum.induce(wreath_trivial_module(datum.W))
    assert ext1_dims(ind, [ind], [len(hom_space(ind, ind))]) == [0]
    assert ind.action.built_indices() == generator_support(datum.big)
    assert len(generator_support(datum.big)) == 6


def test_spin_builds_only_the_generator_matrices():
    datum = datum_for(DiagramKind.abrauer(4), 1, F5, delta="2")
    big = datum.big
    ind = datum.induce(wreath_trivial_module(datum.W))
    other = datum.induce(wreath_sign_module(datum.W))
    support = generator_support(big)
    assert Spin(ind).generators == [0]
    assert ind.action.built_indices() == support
    assert len(hom_space(ind, other)) == 0 and len(hom_space(ind, ind)) == 1
    assert ind.action.built_indices() == support
    assert other.action.built_indices() == support
