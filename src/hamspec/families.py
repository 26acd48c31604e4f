"""Constructors for the named graph families.

Labeling is deterministic so tests can assert exact edge sets: clique or
regular blocks come first, joined blocks last.

Every family is built from the graph primitives and writes no row: K_n is
the complement of the empty graph, K_{a,b} that of K_a + K_b, the joined
families are `join`s, and the rest are edge lists.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph, _check_order as _check_graph_order, complement, disjoint_union, from_edges, join)


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus one value per constructor parameter, in signature
    order; circulant's connections are one tuple: ("circulant", (7, (1, 2)))."""

    kind: str
    params: tuple[int | tuple[int, ...], ...]


def family_spec(kind: str, **params) -> FamilySpec:
    """Build a FamilySpec from named parameters (`connections` may be a list)."""
    names = FAMILY_PARAMS[_known(kind)]
    missing = [p for p in names if p not in params]
    if missing:
        raise ValueError(f"family {kind!r} needs parameters {', '.join(names)}")
    extra = set(params) - set(names)
    if extra:
        raise ValueError(f"family {kind!r} does not take {', '.join(sorted(extra))}")
    return FamilySpec(kind, tuple(tuple(int(x) for x in params[p]) if p == "connections"
                                  else int(params[p]) for p in names))


def construct(spec: FamilySpec) -> Graph:
    """Materialize a family member; raises ValueError on out-of-range parameters."""
    return _CONSTRUCTORS[_known(spec.kind)](*spec.params)


def _known(kind: str) -> str:
    if kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown family {kind!r}; known: {', '.join(sorted(_CONSTRUCTORS))}")
    return kind


def _check_order(n: int, minimum: int, what: str) -> None:
    if n < minimum:
        raise ValueError(f"{what} needs order >= {minimum}, got {n}")
    _check_graph_order(n)


def complete(n: int) -> Graph:
    _check_order(n, 1, "complete graph")
    return complement(from_edges(n, ()))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both parts must be nonempty, got ({a}, {b})")
    _check_order(a + b, 2, "complete bipartite graph")
    return complement(disjoint_union(complete(a), complete(b)))


def star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    _check_order(n, 1, "star")
    return complete(1) if n == 1 else complete_bipartite(1, n - 1)


def cycle(n: int) -> Graph:
    _check_order(n, 3, "cycle")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    _check_order(n, 1, "path")
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def clique_plus_isolated(n: int) -> Graph:
    """Complete graph on 0..n-2 plus the isolated vertex n-1."""
    return _clique_plus_vertex(n, 0, "clique plus isolated vertex")


def clique_plus_pendant(n: int) -> Graph:
    """Complete graph on 0..n-2 with vertex n-1 pendant on vertex 0."""
    return _clique_plus_vertex(n, 1, "clique plus pendant edge")


def clique_plus_two_edges(n: int) -> Graph:
    """Complete graph on 0..n-2 with vertex n-1 joined to vertices 0 and 1."""
    return _clique_plus_vertex(n, 2, "clique plus two edges")


def _clique_plus_vertex(n: int, a: int, what: str) -> Graph:
    """Complete graph on 0..n-2 with vertex n-1 joined to vertices 0..a-1."""
    _check_order(n, max(2, a + 1), what)
    clique = [(u, v) for v in range(n - 1) for u in range(v)]
    return from_edges(n, clique + [(u, n - 1) for u in range(a)])


def join_of_two_cliques(n: int, s: int) -> Graph:
    """Two disjoint cliques of sizes s and n-2-s joined completely to an edge.

    Blocks: clique of size s on 0..s-1, clique of size n-2-s on s..n-3,
    the joined pair on n-2, n-1.
    """
    if not 1 <= s <= n - 3:
        raise ValueError(f"need 1 <= s <= n-3, got s={s}, n={n}")
    _check_order(n, 4, "join of two cliques")
    parts = disjoint_union(complete(s), complete(n - 2 - s))
    return join(parts, complete(2))


def balanced_bipartite_minus_matching(n: int) -> Graph:
    """Balanced complete bipartite graph minus the identity perfect matching.

    Parts are 0..n/2-1 and n/2..n-1; the removed matching pairs i with n/2+i.
    Any perfect matching gives an isomorphic result; the identity is fixed
    for determinism.
    """
    if n % 2:
        raise ValueError(f"order must be even, got {n}")
    _check_order(n, 2, "balanced bipartite minus matching")
    h = n // 2
    return from_edges(n, [(i, h + j) for i in range(h) for j in range(h) if i != j])


def regular_join_clique(n: int, r: int) -> Graph:
    """A regular graph of degree n/2-r on n-r vertices joined to a clique K_r.

    The regular part is realized as a circulant on 0..n-r-1 (deterministic
    and always realizable when (n-r)(n/2-r) is even); the clique occupies
    n-r..n-1.
    """
    if n % 2:
        raise ValueError(f"order must be even, got {n}")
    if not 1 <= r <= n // 2:
        raise ValueError(f"need 1 <= r <= n/2, got r={r}, n={n}")
    m = n - r
    d = n // 2 - r
    if (m * d) % 2:
        raise ValueError(f"no {d}-regular graph on {m} vertices exists (odd product)")
    _check_order(n, 2, "regular part joined to clique")
    conns = list(range(1, d // 2 + 1))
    if d % 2:
        conns.append(m // 2)  # antipodal generator; m is even here by parity
    return join(circulant(m, conns), complete(r))


def remark_family(r: int, s: int) -> Graph:
    """Two disjoint cliques of size r joined completely to a clique of size s.

    Blocks: first K_r on 0..r-1, second on r..2r-1, K_s on 2r..2r+s-1.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    _check_order(2 * r + s, 5, "two cliques joined to a clique")
    return join(disjoint_union(complete(r), complete(r)), complete(s))


def circulant(n: int, connections: Iterable[int]) -> Graph:
    """Circulant graph: i ~ j iff (i - j) mod n is in the symmetrized set."""
    _check_order(n, 1, "circulant")
    conns = set()
    for c in connections:
        c = int(c)
        if not 1 <= c <= n - 1:
            raise ValueError(f"connection {c} outside 1..{n - 1}")
        conns.add(min(c, n - c))
    edges = []
    for v in range(n):
        for c in conns:
            edges.append((v, (v + c) % n))
    return from_edges(n, edges)


# kind -> constructor; FamilySpec.params and the CLI's family flags follow
# the constructor's parameters
_CONSTRUCTORS = {
    "complete": complete,
    "complete-bipartite": complete_bipartite,
    "star": star,
    "cycle": cycle,
    "path": path,
    "clique-plus-isolated": clique_plus_isolated,
    "clique-plus-pendant": clique_plus_pendant,
    "clique-plus-two-edges": clique_plus_two_edges,
    "join-of-two-cliques": join_of_two_cliques,
    "balanced-bipartite-minus-matching": balanced_bipartite_minus_matching,
    "regular-join-clique": regular_join_clique,
    "remark-family": remark_family,
    "circulant": circulant,
}

# kind -> parameter names, in FamilySpec.params order
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    kind: tuple(inspect.signature(make).parameters) for kind, make in _CONSTRUCTORS.items()}
