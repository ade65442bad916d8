"""Independent product of two diagrams, for testing ``DiagramAlgebra.mul_diagrams``.

The two diagrams are stacked as a plain adjacency dict on named vertices:
("top", i) of the upper diagram, ("mid", i) where the rows meet, and
("bot", i) of the lower diagram.  Components are followed edge by edge, and
labels are multiplied as vectors through ``A.mul``, with starred letters read
from ``A.involution_rows``; a closed loop contributes ``A.trace_vec`` of its
product.  Nothing here reads ``label_table`` or any walk of
``DiagramAlgebra``: only the diagram's edges and the input algebra's
structure constants.
"""

from __future__ import annotations

import itertools

from diagalg.diagrams import Diagram


def _letter(A, k, forward):
    """b_k read along its orientation, or b_k* read against it, as a vector."""
    return A.basis_vec(k) if forward else dict(A.involution_rows[k])


def _adjacency(n, upper, lower):
    """vertex -> list of (neighbour, label, read forward, edge id)."""
    adj = {}

    def add(a, b, k, eid):
        adj.setdefault(a, []).append((b, k, True, eid))
        adj.setdefault(b, []).append((a, k, False, eid))

    def name_upper(w):
        return ("top", w) if w < n else ("mid", w - n)

    def name_lower(w):
        return ("mid", w) if w < n else ("bot", w - n)

    for eid, (u, v, k) in enumerate(upper.edges):
        add(name_upper(u), name_upper(v), k, ("upper", eid))
    for eid, (u, v, k) in enumerate(lower.edges):
        add(name_lower(u), name_lower(v), k, ("lower", eid))
    return adj


def _follow(A, adj, start, stop):
    """Walk from start until a vertex in stop: (end, product of labels, vertices passed)."""
    vec, here, used, passed = None, start, None, {start}
    while True:
        nxt, k, forward, eid = next(e for e in adj[here] if e[3] != used)
        letter = _letter(A, k, forward)
        vec = letter if vec is None else A.mul(vec, letter)
        here, used = nxt, eid
        passed.add(here)
        if here in stop:
            return here, vec, passed


def oracle_product(dalg, d1, d2):
    """d1 * d2 as {Diagram: coefficient}, computed from the stacked picture."""
    n, A, F = dalg.kind.n, dalg.A, dalg.field
    adj = _adjacency(n, d1, d2)
    result_vertex = {("top", i): i for i in range(n)}
    result_vertex.update({("bot", i): n + i for i in range(n)})

    strands, visited = [], set()
    for start in sorted(result_vertex, key=result_vertex.get):
        if start not in visited:
            end, vec, passed = _follow(A, adj, start, result_vertex)
            visited |= passed
            strands.append((result_vertex[start], result_vertex[end], vec))
    scalar = F.one
    for i in range(n):
        start = ("mid", i)
        if start not in visited:
            _, vec, passed = _follow(A, adj, start, {start})
            visited |= passed
            scalar = F.mul(scalar, A.trace_vec(vec))

    out = {}
    for choice in itertools.product(*(sorted(vec.items()) for _, _, vec in strands)):
        c = scalar
        for _, ck in choice:
            c = F.mul(c, ck)
        if not F.is_zero(c):
            edges = sorted((u, v, k) for (u, v, _), (k, _) in zip(strands, choice))
            out[Diagram(tuple(edges))] = c
    return out
