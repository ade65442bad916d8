"""Independent wreath product, for testing ``wreath_product``.

A basis key (a, s) is the decorated permutation whose strand i runs to s[i]
and carries b_{a[i]}.  Stacking (a, s) over (b, t) joins strand i to strand
s[i] of the lower factor, so slot i carries b_{a[i]} b_{b[s[i]]}, multiplied
as vectors through ``A.mul``, and the permutations compose left to right.
Flipping (a, s) turns strand i into a strand from s[i] to i carrying
b_{a[i]}*, read from ``A.involution_rows``.  Nothing here reads
``label_table``, ``walk_table`` or ``expand_words``.
"""

import itertools


def compose_perms(s, t):
    """Left to right: (s t)(i) = t(s(i))."""
    return tuple(t[s[i]] for i in range(len(s)))


def _element(F, slot_vecs, perm):
    """{(labels, perm): c} over every choice of one label per slot vector."""
    out = {}
    for choice in itertools.product(*(sorted(v.items()) for v in slot_vecs)):
        c = F.one
        for _, ck in choice:
            c = F.mul(c, ck)
        if not F.is_zero(c):
            out[(tuple(k for k, _ in choice), perm)] = c
    return out


def oracle_wreath_product(A, x, y):
    (a, s), (b, t) = x, y
    slots = [A.mul(A.basis_vec(a[i]), A.basis_vec(b[s[i]])) for i in range(len(s))]
    return _element(A.field, slots, compose_perms(s, t))


def oracle_wreath_involution(A, key):
    a, s = key
    slots, perm = [None] * len(s), [None] * len(s)
    for i, j in enumerate(s):
        slots[j] = A.involution_rows[a[i]]
        perm[j] = i
    return _element(A.field, slots, tuple(perm))
