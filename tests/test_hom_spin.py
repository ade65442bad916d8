"""Hom spaces by spinning module generators, against the m*n entry solver.

``tests/hom_oracle.py`` solves for every entry of a map; the spin in
``diagalg.algebra_kernel`` solves only for the images of the module
generators.  The two must give the same Hom spaces on small modules: modules
of the group algebra of S_3, their sums, Specht modules, inductions to a
Brauer algebra and presentation kernels.  The fields are Q, F_5 and F_3;
over F_3 the group algebra of S_3 is not semisimple.  One spin over several
targets must also give what one spin per target gives, and Ext^1 from one
spin of a presentation kernel must match the oracle's Hom dimensions.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from diagalg.algebra_kernel import (
    direct_sum,
    ext1_dims,
    free_presentation,
    hom_space,
    hom_spaces,
    regular_module,
    Spin,
)
from diagalg.diagrams import DiagramAlgebra, DiagramKind, diagram_fin_algebra
from diagalg.fields import make_field
from diagalg.input_algebra import _WreathContext, cyclic_group_algebra, trivial_input_algebra
from diagalg.linalg import Echelon
from diagalg.specht import specht_module
from diagalg.split_pair import (corner_split_datum, hom_ext_transfer, wreath_sign_module,
                                wreath_trivial_module)

from hom_oracle import hom_space_by_entries


@functools.lru_cache(maxsize=None)
def module_pools(field_spec):
    """Two pools of small modules: over the group algebra of S_3 (the layer-0
    wreath algebra of the Brauer algebra D_3 at delta 2) and over D_3 itself."""
    F = make_field(field_spec)
    dalg = DiagramAlgebra(DiagramKind.abrauer(3), trivial_input_algebra(F, F.from_int(2)))
    big_alg = diagram_fin_algebra(dalg)
    datum = corner_split_datum(dalg, big_alg, 0)
    W = datum.W
    triv, sign = wreath_trivial_module(W), wreath_sign_module(W)
    std = specht_module((2, 1), W=W)
    small = [triv, sign, std, regular_module(W), direct_sum(triv, sign),
             direct_sum(std, triv), free_presentation(std).sub,
             free_presentation(triv).sub]
    ind_triv, ind_std = datum.induce(triv), datum.induce(std)
    # layer 1: the wreath algebra is the base field, and inductions have dimension 3
    datum1 = corner_split_datum(dalg, big_alg, 1)
    ind1 = datum1.induce(wreath_trivial_module(datum1.W))
    big = [ind_triv, datum.induce(sign), ind_std, direct_sum(ind_triv, ind_std),
           free_presentation(ind_triv).sub, ind1, direct_sum(ind1, ind_triv),
           free_presentation(ind1).sub]
    return {"small": small, "big": big}


def span(F, maps, width):
    """Reduced echelon rows of the maps flattened to vectors: equal exactly
    when the spans are equal."""
    ech = Echelon(F)
    for f in maps:
        ech.insert({i * width + j: c for i, row in enumerate(f.rows) for j, c in row.items()})
    return ech.rows


cases = st.tuples(st.sampled_from(["q", "fp:5", "fp:3"]), st.sampled_from(["small", "big"]),
                  st.integers(0, 7), st.lists(st.integers(0, 7), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(cases)
def test_spin_matches_entry_solver(case):
    field_spec, side, source, targets = case
    pool = module_pools(field_spec)[side]
    M = pool[source % len(pool)]
    Ns = [pool[t % len(pool)] for t in targets]
    together = hom_spaces(M, Ns)
    assert len(together) == len(Ns)
    F = M.algebra.field
    for N, maps in zip(Ns, together):
        oracle = hom_space_by_entries(M, N)
        assert len(maps) == len(oracle)
        assert span(F, maps, N.dim) == span(F, oracle, N.dim)
        assert span(F, hom_space(M, N), N.dim) == span(F, maps, N.dim)
    # Ext^1 from one spin of the presentation kernel, against the oracle's Hom
    pres = free_presentation(M)
    hom_dims = [len(maps) for maps in together]
    b = pres.mid.dim // M.algebra.dim
    assert ext1_dims(M, Ns, hom_dims) == [
        len(hom_space_by_entries(pres.sub, N)) - b * N.dim + hom
        for N, hom in zip(Ns, hom_dims)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["q", "fp:5", "fp:3"]), st.sampled_from(["small", "big"]), st.integers(0, 7))
def test_module_generators_generate(field_spec, side, index):
    pool = module_pools(field_spec)[side]
    M = pool[index % len(pool)]
    F = M.algebra.field
    gens = Spin(M).generators
    assert gens == sorted(set(gens))
    # the submodule spanned by the generators times every basis element is M
    ech = Echelon(F)
    for g in gens:
        for b in range(M.algebra.dim):
            ech.insert(M.act_basis({g: F.one}, b))
    assert ech.dim == M.dim
    # and no generator is redundant given the ones before it
    for k, g in enumerate(gens):
        before = Echelon(F)
        for h in gens[:k]:
            for b in range(M.algebra.dim):
                before.insert(M.act_basis({h: F.one}, b))
        assert not before.contains({g: F.one})


def _cyclotomic_hom_ext(field_spec, r, n):
    """Generators of the diagram algebra and of each layer's wreath algebra,
    and the Hom and Ext^1 dimensions of hom-ext at every layer."""
    F = make_field(field_spec)
    dalg = DiagramAlgebra(DiagramKind.abrauer(n), cyclic_group_algebra(F, r, [F.one] * r))
    big = diagram_fin_algebra(dalg)
    algebras, dims = [big], []
    for l in range(dalg.layer_bound() + 1):
        datum = corner_split_datum(dalg, big, l)
        algebras.append(datum.W)
        dims.append(hom_ext_transfer(datum, [wreath_trivial_module(datum.W),
                                             wreath_sign_module(datum.W)]))
    return algebras, dims


@pytest.mark.parametrize("field_spec,r,n", [("q", 2, 3), ("fp:2", 2, 3), ("fp:3", 3, 2)])
def test_unit_is_no_generator(field_spec, r, n, monkeypatch):
    """Label 1 of a group algebra labels no generator of the diagram algebra
    or of a wreath algebra, and Hom and Ext^1 come out as with it added back."""
    algebras, dims = _cyclotomic_hom_ext(field_spec, r, n)
    for alg in algebras:
        assert all(g != alg.unit for g in alg.generators)

    def with_unit(generator_elements):
        return lambda ctx: generator_elements(ctx) + [ctx.identity()]

    monkeypatch.setattr(DiagramAlgebra, "generator_elements",
                        with_unit(DiagramAlgebra.generator_elements))
    monkeypatch.setattr(_WreathContext, "generator_elements",
                        with_unit(_WreathContext.generator_elements))
    algebras_with_unit, dims_with_unit = _cyclotomic_hom_ext(field_spec, r, n)
    assert [len(a.generators) for a in algebras_with_unit] == [
        len(a.generators) + 1 for a in algebras]
    assert dims == dims_with_unit
