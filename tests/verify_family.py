"""Explicit isomorphism certificates for recognized family members.

Given a graph the recognizer accepted, rebuild the block structure, map it
onto the canonical labeling and compare edge sets.  Cliques and independent
blocks are symmetric, so any within-block ordering works; a successful
comparison is a concrete isomorphism witness.
"""

from __future__ import annotations

from hamspec import (
    Graph,
    clique_plus_isolated,
    clique_plus_pendant,
    clique_plus_two_edges,
    complete_bipartite,
    join_of_two_cliques,
)
from hamspec.certify import FamilyTag
from hamspec.recognizers import universal_vertices

from support import two_colouring


def _perm_from_order(order: list[int]) -> list[int]:
    perm = [0] * len(order)
    for pos, v in enumerate(order):
        perm[v] = pos
    return perm


def verify_family_member(g: Graph, tag: FamilyTag) -> bool:
    n = g.n
    if tag is FamilyTag.CLIQUE_PLUS_ISOLATED:
        isolated = [v for v in range(n) if g.degree(v) == 0]
        if len(isolated) != 1:
            return False
        order = [v for v in range(n) if v != isolated[0]] + isolated
        return g.relabel(_perm_from_order(order)) == clique_plus_isolated(n)

    if tag is FamilyTag.CLIQUE_PLUS_PENDANT:
        pendants = [v for v in range(n) if g.degree(v) == 1]
        if len(pendants) != 1:
            return False
        p = pendants[0]
        hub = g.neighbors(p)[0]
        order = [hub] + [v for v in range(n) if v not in (hub, p)] + [p]
        return g.relabel(_perm_from_order(order)) == clique_plus_pendant(n)

    if tag is FamilyTag.CLIQUE_PLUS_TWO_EDGES:
        for w in range(n):
            if g.degree(w) != 2:
                continue
            a, b = g.neighbors(w)
            order = [a, b] + [v for v in range(n) if v not in (a, b, w)] + [w]
            if g.relabel(_perm_from_order(order)) == clique_plus_two_edges(n):
                return True
        return False

    if tag is FamilyTag.JOIN_OF_TWO_CLIQUES:
        uni = universal_vertices(g)
        if len(uni) != 2:
            return False
        rest = [v for v in range(n) if v not in uni]
        comp_masks = []
        seen = set()
        for v in rest:
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(w for w in g.neighbors(u) if w in rest and w not in comp)
            seen |= comp
            comp_masks.append(sorted(comp))
        if len(comp_masks) != 2:
            return False
        small, big = sorted(comp_masks, key=len)
        order = small + big + uni
        return g.relabel(_perm_from_order(order)) == join_of_two_cliques(n, len(small))

    if tag is FamilyTag.BALANCED_COMPLETE_BIPARTITE:
        parts = two_colouring(g, range(n))
        if parts is None:
            return False
        a, b = parts
        if len(a) != len(b):
            return False
        order = a + b
        return g.relabel(_perm_from_order(order)) == complete_bipartite(len(a), len(b))

    if tag is FamilyTag.REGULAR_JOIN_CLIQUE:
        # the regular part is a free parameter, so there is no single edge
        # set to compare against; certify the defining block structure
        uni = universal_vertices(g)
        r = len(uni)
        if n % 2 or not 1 <= r <= n // 2:
            return False
        return all(g.degree(v) == n // 2 for v in range(n) if v not in uni)

    raise ValueError(f"no verifier for {tag!r}")

