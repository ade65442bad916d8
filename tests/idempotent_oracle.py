"""Layer idempotents built edge by edge, as an oracle for ``layer_idempotent``.

Every cup, strand and label is placed by hand; at delta = 0 the bottom cups
are shifted by one column against the top cups, and the one slanted strand
that closes the pattern is placed by hand too.  Nothing here calls a builder
of ``DiagramAlgebra``: only ``check_diagram`` vets the result.  The refusals
carry the library's messages, so that outcomes compare as strings.
"""

from diagalg.diagrams import Diagram, DiagramError


def layer_idempotent(dalg, l):
    """The library's layer idempotent of ``dalg`` at l, or its DiagramError."""
    n = dalg.kind.n
    F = dalg.field
    if l == 0:
        return _cup_element(dalg, (), (), None, 0)
    delta = dalg.A.delta()
    if dalg.kind.family == "abrauer":
        if not 0 <= l <= n // 2:
            raise DiagramError(f"layer {l} out of range")
        top = tuple((n - 2 * l + 2 * i, n - 2 * l + 2 * i + 1) for i in range(l))
        if not F.is_zero(delta):
            return _cup_element(dalg, top, top, None, l)
        if n % 2 == 0:
            raise DiagramError("delta = 0 with an even number of strands is excluded")
        bottom = tuple((n - 2 * l - 1 + 2 * i, n - 2 * l + 2 * i) for i in range(l))
        return _cup_element(dalg, top, bottom, (n - 2 * l - 1, n - 1), l)
    r = dalg.kind.wall
    t = n - r
    if not 0 <= l <= min(r, t):
        raise DiagramError(f"layer {l} out of range")
    top = tuple((r - l + i, r + l - 1 - i) for i in range(l))
    if not F.is_zero(delta):
        return _cup_element(dalg, top, top, None, l)
    if l < t:
        bottom = tuple((r - l + i, r + l - i) for i in range(l))
        strand = (r + l, r)
    elif l < r:
        bottom = tuple((r - l - 1 + i, r + l - 1 - i) for i in range(l))
        strand = (r - l - 1, r - 1)
    else:
        raise DiagramError("delta = 0 idempotent needs a free column "
                           "(one of r, t must exceed the layer)")
    return _cup_element(dalg, top, bottom, strand, l)


def _cup_element(dalg, top_pairs, bottom_pairs, strand, l):
    """Unit-labeled cups, the slanted strand (top column, bottom column) if
    one is given, and vertical strands on the columns left free in both
    rows; without a slanted strand the diagram is scaled by delta^{-l}."""
    n = dalg.kind.n
    F = dalg.field
    u0 = dalg.A.unit_basis_index()
    if u0 is None:
        raise AssertionError("the oracle labels with the unit as a basis element")
    slanted = [strand] if strand is not None else []
    top_used = {w for p in top_pairs for w in p} | {s[0] for s in slanted}
    bot_used = {w for p in bottom_pairs for w in p} | {s[1] for s in slanted}
    free = [i for i in range(n) if i not in top_used]
    if free != [i for i in range(n) if i not in bot_used]:
        raise AssertionError("verticals must align")
    edges = [(u, v, u0) for (u, v) in top_pairs]
    edges += [(n + u, n + v, u0) for (u, v) in bottom_pairs]
    edges += [(u, n + v, u0) for (u, v) in slanted]
    edges += [(i, n + i, u0) for i in free]
    d = Diagram(tuple(sorted(edges)))
    dalg.check_diagram(d)
    c = F.one
    if strand is None:
        for _ in range(l):
            c = F.mul(c, F.inv(dalg.A.delta()))
    return {d: c}
