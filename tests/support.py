"""Independent oracles and fixtures shared across the test suite.

Everything here is deliberately implemented on a different route than the
library: eigenvalues come from exact-arithmetic inertia bisection instead
of LAPACK, graph6 decoding walks bits one at a time, the closure
reference processes candidate pairs in random order, and two-colouring is
a breadth-first search over neighbour lists.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import permutations

from hamspec import (
    Graph, balanced_bipartite_minus_matching, circulant, clique_plus_isolated,
    clique_plus_pendant, clique_plus_two_edges, complete, complete_bipartite, cycle,
    from_edges, join_of_two_cliques, path, regular_join_clique, star)


def inertia(matrix, x: Fraction) -> tuple[int, int, int]:
    """Eigenvalue counts (below, equal, above) of a symmetric integer matrix
    relative to x.

    Block LDL^T factorization of M - x*I in exact rational arithmetic
    (Sylvester's law of inertia).  A zero pivot whose column is zero splits
    off an eigenvalue equal to x.  A zero pivot with a nonzero entry b in
    row p is paired with p into the 2x2 block [[0, b], [b, c]], whose
    determinant -b^2 < 0 gives one eigenvalue of each sign.
    """
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) - (x if i == j else 0) for j in range(n)]
         for i in range(n)]
    below = above = 0
    rest = list(range(n))
    while rest:
        k = rest.pop(0)
        pivot = a[k][k]
        if pivot:
            if pivot < 0:
                below += 1
            else:
                above += 1
            for i in rest:
                f = a[i][k] / pivot
                if f:
                    for j in rest:
                        a[i][j] -= f * a[k][j]
            continue
        p = next((i for i in rest if a[i][k]), None)
        if p is None:
            continue
        rest.remove(p)
        below += 1
        above += 1
        b, c = a[p][k], a[p][p]
        # Schur complement through the block inverse [[-c/b^2, 1/b], [1/b, 0]]
        for i in rest:
            u, v = a[i][k], a[i][p]
            if u or v:
                for j in rest:
                    a[i][j] -= (u * a[p][j] + v * a[k][j] - c * u * a[k][j] / b) / b
    return below, n - below - above, above


def largest_eigenvalue_bisect(matrix, hi: int) -> float:
    """Largest eigenvalue by bisection on the eigenvalue-counting function."""
    n = len(matrix)

    def all_below(x: Fraction) -> bool:
        return inertia(matrix, x)[0] == n

    lo, hi = Fraction(-1), Fraction(hi)
    assert all_below(hi)
    while hi - lo > Fraction(1, 10**10):
        mid = (lo + hi) / 2
        if all_below(mid):
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def adjacency_int_matrix(g: Graph) -> list[list[int]]:
    return [[g.rows[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]


def signless_int_matrix(g: Graph) -> list[list[int]]:
    m = adjacency_int_matrix(g)
    for v in range(g.n):
        m[v][v] = g.degree(v)
    return m


def has_spanning_path_between(g: Graph, u: int, v: int) -> bool:
    """Brute force over every order of the inner vertices of a u-v path."""
    adj = adjacency_int_matrix(g)
    inner = [w for w in range(g.n) if w not in (u, v)]
    return any(all(adj[a][b] for a, b in zip(walk, walk[1:]))
               for walk in ((u, *mid, v) for mid in permutations(inner)))


def reference_profile(g: Graph) -> dict:
    """`hamilton_profile(g).to_json_dict()` by the plain subset DP: one
    endpoint table from every start, with no early stop."""
    n, rows = g.n, g.rows
    if n == 1:
        return {"has_path": True, "has_cycle": False, "hamilton_connected": True,
                "witness_path": [0], "failing_pair": None}
    if not g.is_connected():
        return {"has_path": False, "has_cycle": False, "hamilton_connected": False,
                "witness_path": None, "failing_pair": [0, 1]}
    full = (1 << n) - 1
    has_cycle = False
    witness = failing = None
    for s in range(n):
        dp = [0] * (1 << n)
        dp[1 << s] = 1 << s
        for mask in range(1 << s, 1 << n):
            ends = dp[mask]
            while ends:
                vbit = ends & -ends
                ends -= vbit
                ext = rows[vbit.bit_length() - 1] & ~mask
                while ext:
                    ubit = ext & -ext
                    ext -= ubit
                    dp[mask | ubit] |= ubit
        ends = dp[full]
        if s == 0 and n >= 3 and ends & rows[0]:
            has_cycle = True
        if ends and witness is None:
            cur = (ends & -ends).bit_length() - 1
            path, mask = [cur], full
            while mask != 1 << s:
                mask ^= 1 << cur
                cands = dp[mask] & rows[cur]
                cur = (cands & -cands).bit_length() - 1
                path.append(cur)
            witness = path[::-1]
        missing = (full ^ (1 << s)) & ~ends
        if missing and failing is None:
            failing = [s, (missing & -missing).bit_length() - 1]
    return {"has_path": witness is not None, "has_cycle": has_cycle,
            "hamilton_connected": failing is None, "witness_path": witness,
            "failing_pair": failing}


def largest_root_bisect(poly, vertex: float, hi: float) -> float:
    """Largest root of an upward parabola, bisected from its vertex."""
    assert poly(vertex) <= 0
    while poly(hi) <= 0:
        hi *= 2
    lo = vertex
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if poly(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def decode_graph6_reference(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Minimal independent graph6 decoder, bit by bit."""
    vals = [ord(c) - 63 for c in text]
    n = vals[0]
    stream = []
    for v in vals[1:]:
        stream.extend((v >> k) & 1 for k in range(5, -1, -1))
    edges = set()
    idx = 0
    for j in range(n):
        for i in range(j):
            if stream[idx]:
                edges.add((i, j))
            idx += 1
    return n, edges


def two_colouring(g: Graph, vertices) -> tuple[list[int], list[int]] | None:
    """The two colour classes of the vertices (a union of components), each
    component coloured from its least vertex; None if one has an odd cycle."""
    colour = {}
    for s in sorted(vertices):
        if s in colour:
            continue
        colour[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return None
    return ([v for v in sorted(colour) if colour[v] == 0],
            [v for v in sorted(colour) if colour[v] == 1])


def regular_or_semiregular_reference(g: Graph) -> bool:
    """Every component with an edge is regular, or two-colourable with one
    degree on each colour class."""
    degs = g.degrees()
    seen: set[int] = set()
    for s in range(g.n):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        if len({degs[v] for v in comp}) == 1:
            continue
        parts = two_colouring(g, comp)
        if parts is None or any(len({degs[v] for v in part}) != 1 for part in parts):
            return False
    return True


def closure_reference(g: Graph, k: int, rng: random.Random) -> Graph:
    """Closure computed by joining qualifying pairs in random order."""
    n = g.n
    rows = list(g.rows)
    degs = [r.bit_count() for r in rows]
    while True:
        cands = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if not rows[u] >> v & 1 and degs[u] + degs[v] >= k]
        if not cands:
            return Graph(n, tuple(rows))
        u, v = cands[rng.randrange(len(cands))]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        degs[u] += 1
        degs[v] += 1


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def degree_preserving_rewire(g: Graph, steps: int, rng: random.Random) -> Graph:
    """Randomize by double edge swaps; the degree sequence is preserved."""
    rows = list(g.rows)
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if rows[u] >> v & 1]
    for _ in range(steps):
        if len(edges) < 2:
            break
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) != 4:
            continue
        if rows[a] >> c & 1 or rows[b] >> d & 1:
            continue
        rows[a] = rows[a] & ~(1 << b) | (1 << c)
        rows[b] = rows[b] & ~(1 << a) | (1 << d)
        rows[c] = rows[c] & ~(1 << d) | (1 << a)
        rows[d] = rows[d] & ~(1 << c) | (1 << b)
        edges[i] = (min(a, c), max(a, c))
        edges[j] = (min(b, d), max(b, d))
    return Graph(g.n, tuple(rows))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def prism() -> Graph:
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])


def complete_split(independent: int, clique: int) -> Graph:
    """Independent set joined completely to a clique."""
    n = independent + clique
    edges = [(u, v) for u in range(independent, n) for v in range(u + 1, n)]
    edges += [(u, v) for u in range(independent) for v in range(independent, n)]
    return from_edges(n, edges)


def structured_family_graphs() -> list[Graph]:
    """Family members at every order up to 62, where the large-order ties
    live: complete, path, star and cycle graphs, K_{a,n-a}, the three
    clique-plus-a-vertex graphs, circulants on the offsets 1..k, the joins
    of two cliques to an edge, the regular parts joined to a clique and the
    balanced bipartite graphs less a perfect matching.  Each parameter is
    taken at its ends and next to them, so the corpus stays small."""

    def ends(lo, hi):
        return sorted({lo, lo + 1, hi - 1, hi} & set(range(lo, hi + 1)))

    graphs = []
    for n in range(1, 63):
        graphs += [complete(n), path(n), star(n)]
        graphs += [complete_bipartite(a, n - a) for a in ends(1, n // 2)]
        if n >= 2:
            graphs += [clique_plus_isolated(n), clique_plus_pendant(n)]
        if n >= 3:
            graphs += [cycle(n), clique_plus_two_edges(n)]
            graphs += [circulant(n, range(1, k + 1)) for k in ends(1, n // 2)]
        graphs += [join_of_two_cliques(n, s) for s in ends(1, (n - 2) // 2)]
        if n % 2 == 0:
            graphs.append(balanced_bipartite_minus_matching(n))
            graphs += [regular_join_clique(n, r) for r in ends(1, n // 2)
                       if (n - r) * (n // 2 - r) % 2 == 0]
    return graphs


def _clique(vertices) -> list[tuple[int, int]]:
    vertices = list(vertices)
    return [(u, v) for i, v in enumerate(vertices) for u in vertices[:i]]


def _between(left, right) -> list[tuple[int, int]]:
    return [(u, v) for u in left for v in right]


def _offset_pairs(n: int, offsets) -> list[tuple[int, int]]:
    """Pairs whose circular distance on 0..n-1 is one of the offsets."""
    dist = {min(c % n, -c % n) for c in offsets}
    return [(u, v) for v in range(n) for u in range(v) if min(v - u, n - v + u) in dist]


def _regular_join_clique_edges(n: int, r: int) -> list[tuple[int, int]]:
    m, d = n - r, n // 2 - r
    offsets = [*range(1, d // 2 + 1), *([m // 2] if d % 2 else [])]
    return _offset_pairs(m, offsets) + _clique(range(m, n)) + _between(range(m), range(m, n))


# family kind -> the documented labeling as an edge list, written pair by
# pair and never through the library's joins, unions or complements
FAMILY_EDGES = {
    "complete": lambda n: _clique(range(n)),
    "complete-bipartite": lambda a, b: _between(range(a), range(a, a + b)),
    "star": lambda n: _between([0], range(1, n)),
    "cycle": lambda n: _offset_pairs(n, [1]),
    "path": lambda n: [(v, v + 1) for v in range(n - 1)],
    "clique-plus-isolated": lambda n: _clique(range(n - 1)),
    "clique-plus-pendant": lambda n: _clique(range(n - 1)) + [(0, n - 1)],
    "clique-plus-two-edges": lambda n: _clique(range(n - 1)) + [(0, n - 1), (1, n - 1)],
    "join-of-two-cliques": lambda n, s: (
        _clique(range(s)) + _clique(range(s, n - 2)) + _clique([n - 2, n - 1])
        + _between(range(n - 2), [n - 2, n - 1])),
    "balanced-bipartite-minus-matching": lambda n: [
        (i, n // 2 + j) for i in range(n // 2) for j in range(n // 2) if i != j],
    "regular-join-clique": _regular_join_clique_edges,
    "remark-family": lambda r, s: (
        _clique(range(r)) + _clique(range(r, 2 * r)) + _clique(range(2 * r, 2 * r + s))
        + _between(range(2 * r), range(2 * r, 2 * r + s))),
    "circulant": _offset_pairs,
}


def family_parameters():
    """Every valid parameter tuple of every family up to order 62, except
    circulant's connections, which run over the single offsets and the
    ranges 1..k."""
    for n in range(1, 63):
        yield "complete", (n,)
        yield "star", (n,)
        yield "path", (n,)
        for kind, minimum in (("cycle", 3), ("clique-plus-isolated", 2),
                              ("clique-plus-pendant", 2), ("clique-plus-two-edges", 3)):
            if n >= minimum:
                yield kind, (n,)
        for a in range(1, n):
            yield "complete-bipartite", (a, n - a)
        for s in range(1, n - 2):
            yield "join-of-two-cliques", (n, s)
        if n % 2 == 0:
            yield "balanced-bipartite-minus-matching", (n,)
            for r in range(1, n // 2 + 1):
                if (n - r) * (n // 2 - r) % 2 == 0:
                    yield "regular-join-clique", (n, r)
        for r in range(2, (n - 1) // 2 + 1):
            yield "remark-family", (r, n - 2 * r)
        for c in range(1, n):
            yield "circulant", (n, (c,))
        for k in range(n // 2 + 1):
            yield "circulant", (n, tuple(range(1, k + 1)))
