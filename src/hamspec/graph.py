"""Immutable bit-row graphs and the basic graph algebra.

Vertices are the integers 0..n-1.  Row v is an integer whose bit u is set
iff u and v are adjacent, so neighborhood intersections, degree counts and
connectivity all reduce to machine-word operations for n <= 62.

This module owns the one packing of the rows into a single integer: the
edge mask, whose bit j(j-1)/2 + i is the pair (i, j), i < j.  Corpora are
enumerated and sampled as edge masks, graph6 streams are edge masks, and a
row tuple is valid exactly when it is the decoding of its own edge mask.

Rows are written only by the edge-mask decoder, `from_edges`, `complement`,
`disjoint_union` and `closure.k_closure`, which adds one edge at a time;
`join`, `Graph.relabel` and the named families are built from the first four.
`_complement_rows` is the one complement-row rule; a universal vertex's is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 62  # keeps every row in one machine word and the graph6 order in one byte


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, adjacency stored as one bitmask row per vertex."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_order(self.n)
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        # valid rows are exactly the symmetric closure of their own lower
        # triangle: no loop, no bit outside 0..n-1, no negative row
        if self.rows != _rows_from_edge_mask(self.n, _edge_mask(self.rows)):
            raise ValueError(
                f"rows must be a tuple of loop-free, symmetric rows within 0..{self.n - 1}")

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    # -- structure --------------------------------------------------------

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks, ordered by least vertex."""
        seen = 0
        comps = []
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = 0
            frontier = 1 << v
            while frontier:
                comp |= frontier
                nxt = 0
                for u in _bits(frontier):
                    nxt |= self.rows[u]
                frontier = nxt & ~comp
            comps.append(comp)
            seen |= comp
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def relabel(self, perm: Sequence[int]) -> Graph:
        """Image of the graph under the vertex permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"expected a permutation of 0..{self.n - 1}, got {list(perm)}")
        return from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges()))


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        mask -= b
        out.append(b.bit_length() - 1)
    return out


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n}")


def _edge_mask(rows: Sequence[int]) -> int:
    """Lower triangles packed in column-major pair order: pair (i, j), i < j,
    is bit j(j-1)/2 + i, so (0,1), (0,2), (1,2), (0,3), ... are bits 0, 1, 2, 3, ..."""
    mask = 0
    for j, row in enumerate(rows):
        mask |= (row & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return mask


def _rows_from_edge_mask(n: int, mask: int) -> tuple[int, ...]:
    """The rows whose edge mask is `mask`; bits past the last pair are ignored."""
    _check_order(n)
    rows = [0] * n
    for j in range(1, n):
        col = mask >> (j * (j - 1) // 2) & ((1 << j) - 1)
        rows[j] = col
        bit = 1 << j
        # an inline low-bit loop, not _bits: every Graph is validated through here
        while col:
            low = col & -col
            col -= low
            rows[low.bit_length() - 1] |= bit
    return tuple(rows)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates and reversed pairs collapse."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop ({u}, {v}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _complement_rows(g: Graph) -> tuple[int, ...]:
    full = (1 << g.n) - 1
    return tuple([full ^ row ^ (1 << v) for v, row in enumerate(g.rows)])


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    rows = list(g1.rows) + [row << g1.n for row in g2.rows]
    return Graph(n, tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    return complement(disjoint_union(complement(g1), complement(g2)))


def degree_data(g: Graph) -> tuple[list[int], list[Fraction]]:
    """Degrees d(v) and exact average neighbor degrees m(v).

    m(v) is the mean degree over N(v), and 0 by convention when v is isolated.
    """
    degs = g.degrees()
    avg = [Fraction(sum(degs[u] for u in _bits(row)), degs[v]) if degs[v] else Fraction(0)
           for v, row in enumerate(g.rows)]
    return degs, avg
