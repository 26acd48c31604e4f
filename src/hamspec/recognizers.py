"""Structural recognizers for the rigid graph families.

Each predicate is a label-independent iff characterization read from the
bit rows in O(n^2) bit operations, with no subgraph built and no isomorphism
search.  The rules: K_{n-1} plus a vertex joined to a = 0, 1 or 2 of its
vertices (clique plus isolated vertex, pendant or two edges) by the one
sorted degree sequence [a] + [n-2]*(n-1-a) + [n-1]*a; the star by its sorted
degree sequence; complete plus isolated by k non-isolated vertices on
C(k, 2) edges; the join of two cliques by two universal vertices over a
rest whose closed neighbourhoods are two disjoint sets covering it;
K_{n/2,n/2} by two complementary row values of n/2 bits; the regular join
clique by universal vertices over vertices of degree n/2; a semiregular
component by two independent degree classes.
"""

from __future__ import annotations

from .graph import Graph, _bits, _complement_rows


def is_complete(g: Graph) -> bool:
    return len(universal_vertices(g)) == g.n


def is_star(g: Graph) -> bool:
    """Exactly one center adjacent to all n-1 leaves (n >= 2)."""
    if g.n < 2:
        return False
    return sorted(g.degrees()) == [1] * (g.n - 1) + [g.n - 1]


def universal_vertices(g: Graph) -> list[int]:
    return [v for v, row in enumerate(_complement_rows(g)) if not row]


def is_complete_plus_isolated(g: Graph) -> bool:
    """A complete graph together with any number of isolated vertices.

    The empty graph qualifies (a single vertex counts as complete).
    """
    # k vertices carry all the edges, and C(k, 2) edges on them are all pairs
    k = sum(1 for row in g.rows if row)
    return g.edge_count == k * (k - 1) // 2


def is_clique_plus_isolated(g: Graph) -> bool:
    """A complete graph on n-1 vertices plus exactly one isolated vertex."""
    return _is_clique_plus_vertex(g, 0)


def is_clique_plus_pendant(g: Graph) -> bool:
    """A complete graph on n-1 vertices with one pendant vertex attached."""
    return _is_clique_plus_vertex(g, 1)


def is_clique_plus_two_edges(g: Graph) -> bool:
    """A complete graph on n-1 vertices plus a vertex joined to two of them."""
    return _is_clique_plus_vertex(g, 2)


def _is_clique_plus_vertex(g: Graph, a: int) -> bool:
    """A complete graph on n-1 vertices plus a vertex joined to a of them."""
    n = g.n
    # the a degree-(n-1) vertices are universal, so they are the degree-a
    # vertex's only neighbours, and every other vertex misses only that one
    # (below n = a + 1 the list is longer than n, so nothing matches)
    return n >= 2 and sorted(g.degrees()) == [a] + [n - 2] * (n - 1 - a) + [n - 1] * a


def is_join_of_two_cliques(g: Graph) -> bool:
    """Two disjoint nonempty cliques joined completely to an adjacent pair."""
    uni = universal_vertices(g)
    if len(uni) != 2:
        return False
    rest = ((1 << g.n) - 1) ^ (1 << uni[0]) ^ (1 << uni[1])
    # disjoint closed neighbourhoods that cover the rest are its components,
    # and each one is a clique
    closed = {g.rows[v] & rest | 1 << v for v in _bits(rest)}
    return len(closed) == 2 and sum(c.bit_count() for c in closed) == rest.bit_count()


def is_balanced_complete_bipartite(g: Graph) -> bool:
    """Complete bipartite with equal parts."""
    rows = set(g.rows)
    if len(rows) != 2:
        return False
    # no vertex is in its own row, so with b = full ^ a the vertices whose
    # row is a are exactly those of b, each joined to all of a
    a, b = rows
    return a ^ b == (1 << g.n) - 1 and a.bit_count() == b.bit_count()


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
        classes: dict[int, int] = {}
        for v in _bits(comp):
            classes[degs[v]] = classes.get(degs[v], 0) | 1 << v
        # a semiregular component that is not regular has its two sides as
        # its two degree classes, and two independent classes are such sides
        if len(classes) > 2 or len(classes) == 2 and any(
                g.rows[v] & classes[degs[v]] for v in _bits(comp)):
            return False
    return True
