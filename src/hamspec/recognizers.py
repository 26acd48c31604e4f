"""Structural recognizers for the rigid graph families.

Each predicate is a label-independent iff characterization, checked in
O(n^2) bit operations; no general isomorphism testing is involved.
"""

from __future__ import annotations

from .graph import Graph, _bits


def is_complete(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return all(row == full ^ (1 << v) for v, row in enumerate(g.rows))


def is_star(g: Graph) -> bool:
    """Exactly one center adjacent to all n-1 leaves (n >= 2)."""
    if g.n < 2:
        return False
    return sorted(g.degrees()) == [1] * (g.n - 1) + [g.n - 1]


def has_universal_vertex(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return any(row == full ^ (1 << v) for v, row in enumerate(g.rows))


def universal_vertices(g: Graph) -> list[int]:
    full = (1 << g.n) - 1
    return [v for v, row in enumerate(g.rows) if row == full ^ (1 << v)]


def is_complete_plus_isolated(g: Graph) -> bool:
    """A complete graph together with any number of isolated vertices.

    The empty graph qualifies (a single vertex counts as complete).
    """
    support = 0
    for v, row in enumerate(g.rows):
        if row:
            support |= 1 << v
    if support == 0:
        return True
    return all(g.rows[v] == support ^ (1 << v) for v in range(g.n) if support >> v & 1)


def is_clique_plus_isolated(g: Graph) -> bool:
    """A complete graph on n-1 vertices plus exactly one isolated vertex."""
    if g.n < 2:
        return False
    return sorted(g.degrees()) == [0] + [g.n - 2] * (g.n - 1)


def is_clique_plus_pendant(g: Graph) -> bool:
    """A complete graph on n-1 vertices with one pendant vertex attached."""
    if g.n < 2:
        return False
    n = g.n
    return sorted(g.degrees()) == sorted([1] + [n - 2] * (n - 2) + [n - 1])


def is_clique_plus_two_edges(g: Graph) -> bool:
    """A complete graph on n-1 vertices plus a vertex joined to two of them."""
    n = g.n
    if n < 3:
        return False
    full = (1 << n) - 1
    for w in range(n):
        if g.rows[w].bit_count() != 2:
            continue
        wbit = 1 << w
        if all(g.rows[x] | (1 << x) | wbit == full for x in range(n) if x != w):
            return True
    return False


def is_join_of_two_cliques(g: Graph) -> bool:
    """Two disjoint nonempty cliques joined completely to an adjacent pair."""
    uni = universal_vertices(g)
    if len(uni) != 2:
        return False
    drop = (1 << uni[0]) | (1 << uni[1])
    rest = _induced(g, ((1 << g.n) - 1) ^ drop)
    if rest is None:
        return False
    comps = rest.components()
    return len(comps) == 2 and all(_mask_is_clique(rest, c) for c in comps)


def is_balanced_complete_bipartite(g: Graph) -> bool:
    """Complete bipartite with equal parts; equivalently n/2-regular bipartite."""
    n = g.n
    if n % 2 or n < 2:
        return False
    h = n // 2
    if any(d != h for d in g.degrees()):
        return False
    return _bipartition(g, (1 << n) - 1) is not None


def is_regular_join_clique(g: Graph) -> bool:
    """Some r universal vertices over an (n/2 - r)-regular remainder, n even.

    Characterizes the family exactly for n >= 4 (the degenerate n = 2 member
    K_2 is not reported).
    """
    n = g.n
    if n % 2 or n < 4:
        return False
    r = len(universal_vertices(g))
    if not 1 <= r <= n // 2:
        return False
    return all(d == n // 2 for d in g.degrees() if d != n - 1)


def all_nontrivial_components_regular_or_semiregular(g: Graph) -> bool:
    """Every component with an edge is regular or bipartite semiregular.

    This is the per-component reading used for the signless-Laplacian
    degree-mean equality flag; it is vacuously true on empty graphs.
    """
    degs = g.degrees()
    for comp in g.components():
        if comp.bit_count() < 2:
            continue
        cdegs = {degs[v] for v in _bits(comp)}
        if len(cdegs) == 1:
            continue
        parts = _bipartition(g, comp)
        if parts is None:
            return False
        a, b = parts
        if len({degs[v] for v in _bits(a)}) != 1:
            return False
        if len({degs[v] for v in _bits(b)}) != 1:
            return False
    return True


# -- helpers ---------------------------------------------------------------


def _mask_is_clique(g: Graph, mask: int) -> bool:
    return all(g.rows[v] & mask == mask ^ (1 << v) for v in _bits(mask))


def _induced(g: Graph, mask: int):
    """Induced subgraph on the mask, or None when the mask is empty."""
    verts = _bits(mask)
    if not verts:
        return None
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        for u in _bits(g.rows[v] & mask):
            rows[index[v]] |= 1 << index[u]
    return Graph(len(verts), tuple(rows))


def _bipartition(g: Graph, mask: int) -> tuple[int, int] | None:
    """Two-color the vertices in the mask; None if an odd cycle exists.

    The mask must be closed under adjacency (a union of components).
    """
    color = {}
    a = b = 0
    for start in _bits(mask):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in _bits(g.rows[v]):
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    for v, c in color.items():
        if c == 0:
            a |= 1 << v
        else:
            b |= 1 << v
    # isolated vertices in the mask land in part a
    a |= mask & ~(a | b)
    return a, b
