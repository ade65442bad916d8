"""Presentations and Ext^1 by solving the kernel of the cover projection.

This is the route that ``diagalg.algebra_kernel`` replaced by a spin of the
relations: the cover is free on the spin generators of M, its projection
reads x_g * b_i for every generator x_g and every basis element b_i, the
kernel is the null space of that projection, inserted as a submodule, and
Ext^1 comes from a spin of the kernel module from its own basis vectors.
"""

from diagalg.algebra_kernel import Spin, free_module, submodule
from diagalg.linalg import kernel_basis, transpose_rows


class KernelPresentation:
    """0 -> kernel -> cover -> M -> 0 with the kernel solved as a null space."""

    def __init__(self, M):
        alg = M.algebra
        F = alg.field
        self.module = M
        gens = Spin(M).generators
        self.cover_rank = len(gens)
        self.cover = free_module(alg, self.cover_rank)
        self.proj_rows = [M.act_basis({g: F.one}, i) for g in gens for i in range(alg.dim)]
        ker = kernel_basis(F, transpose_rows(self.proj_rows, M.dim), self.cover.dim)
        self.kernel, self.incl = submodule(self.cover, ker, name=f"Omega({M.name})")

    def ext1_dims(self, targets, hom_dims):
        """dim Ext^1(M, N) = dim Hom(kernel, N) - b*dim N + dim Hom(M, N)."""
        omega = Spin(self.kernel, targets).solutions
        return [len(sols) - self.cover_rank * N.dim + hom
                for sols, N, hom in zip(omega, targets, hom_dims)]
