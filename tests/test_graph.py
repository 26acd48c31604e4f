import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from hamspec import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    degree_data,
    disjoint_union,
    enumerate_labeled,
    from_edges,
    join,
    remark_family,
    star,
)
from hamspec.harness import canonical_graph6

from support import random_graph


def test_from_edges_complete():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert g.edge_count == 6
    assert g == complete(4)


def test_from_edges_empty():
    g = from_edges(3, [])
    assert g.edge_count == 0
    assert g.degrees() == [0, 0, 0]


def test_from_edges_deduplicates_and_symmetrizes():
    g = from_edges(4, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(0, [])
    with pytest.raises(ValueError):
        from_edges(1 << 62, [])  # rejected before any row is allocated


def _valid_rows(n, rows):
    """In range, loop-free and symmetric, read pair by pair."""
    return (all(0 <= row < 1 << n and not row >> v & 1 for v, row in enumerate(rows))
            and all(rows[u] >> v & 1 == rows[v] >> u & 1 for u in range(n) for v in range(u)))


def test_graph_invariants_enforced():
    # every row tuple at orders 1-4, with negative rows and out-of-range bits
    for n in range(1, 5):
        values = (-2, -1, *range(1 << n), 1 << n, (1 << n) | 1, 1 << 62)
        for rows in product(values, repeat=n):
            try:
                accepted = Graph(n, rows).rows == rows
            except ValueError:
                accepted = False
            assert accepted == _valid_rows(n, rows), rows
    with pytest.raises(ValueError):
        Graph(3, (0b10, 0b01))  # too few rows
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loops
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # out-of-range bit
    with pytest.raises(ValueError):
        Graph(63, tuple([0] * 63))  # above the order cap


def test_complement_of_complete_is_empty():
    assert complement(complete(4)).edge_count == 0


def test_complement_of_clique_plus_two_edges():
    # clique on 0..4 with vertex 5 joined to 0 and 1; the complement is a
    # 3-leaf star centered at 5 plus two isolated vertices
    from hamspec import clique_plus_two_edges

    g = complement(clique_plus_two_edges(6))
    assert g == from_edges(6, [(5, 2), (5, 3), (5, 4)])


def test_c5_self_complementary():
    c5 = cycle(5)
    assert canonical_graph6(c5) == canonical_graph6(complement(c5))


def test_complement_involution_and_edge_split():
    for n in range(1, 5):
        for g in enumerate_labeled(n):
            assert complement(complement(g)) == g
            assert g.edge_count + complement(g).edge_count == comb(n, 2)
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(12, rng.random(), rng)
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == comb(12, 2)


def test_disjoint_union():
    g = disjoint_union(complete(3), complete(3))
    assert g.n == 6 and g.edge_count == 6
    assert g.degrees() == [2] * 6
    assert not g.has_edge(0, 3)
    two = disjoint_union(Graph(1, (0,)), Graph(1, (0,)))
    assert two.n == 2 and two.edge_count == 0


def test_union_and_join_reject_orders_above_62():
    for combine in (disjoint_union, join):
        with pytest.raises(ValueError):
            combine(complete(40), complete(30))


def test_complete_bipartite_is_complement_of_two_cliques():
    assert complete_bipartite(3, 3) == complement(disjoint_union(complete(3), complete(3)))


def test_join_basics():
    c4 = join(from_edges(2, []), from_edges(2, []))
    assert c4 == complete_bipartite(2, 2)
    assert canonical_graph6(c4) == canonical_graph6(cycle(4))

    wheel = join(Graph(1, (0,)), cycle(4))
    assert wheel.edge_count == 8

    g = join(disjoint_union(complete(2), complete(2)), complete(2))
    assert g == remark_family(2, 2)
    assert g.edge_count == 2 + 1 + 4 * 2  # two matchings, the joined edge, the join


def test_join_edge_count_formula():
    rng = random.Random(11)
    for _ in range(20):
        g1 = random_graph(5, 0.5, rng)
        g2 = random_graph(4, 0.5, rng)
        assert join(g1, g2).edge_count == g1.edge_count + g2.edge_count + 20


def test_degree_data_star():
    degs, avg = degree_data(star(4))
    assert degs == [3, 1, 1, 1]
    assert avg == [Fraction(1), Fraction(3), Fraction(3), Fraction(3)]


def test_degree_data_complete():
    degs, avg = degree_data(complete(4))
    assert degs == [3, 3, 3, 3]
    assert avg == [Fraction(3)] * 4


def test_degree_data_isolated_vertex_convention():
    from hamspec import clique_plus_isolated

    degs, avg = degree_data(clique_plus_isolated(6))
    assert degs[5] == 0 and avg[5] == 0
    assert degs[:5] == [4] * 5 and avg[:5] == [Fraction(4)] * 5


def test_components_and_connectivity():
    g = disjoint_union(complete(3), complete(2))
    assert not g.is_connected()
    assert g.components() == [0b00111, 0b11000]
    assert cycle(5).is_connected()


def test_relabel_roundtrip():
    rng = random.Random(3)
    g = random_graph(8, 0.4, rng)
    perm = list(range(8))
    rng.shuffle(perm)
    inverse = [0] * 8
    for v, p in enumerate(perm):
        inverse[p] = v
    assert g.relabel(perm).relabel(inverse) == g


@pytest.mark.parametrize("g,perm", [
    (cycle(4), [0, 1, 0, 1]),    # merged vertices: the image had one edge
    (cycle(4), [0, 1, 2, 2]),
    (cycle(4), [1, 2, 3, 4]),    # a value outside 0..n-1
    (cycle(4), [0, 1, 2, -1]),
    (star(3), [0, 1, 2, 3]),     # longer than the order: was accepted
    (star(3), [0, 1]),           # shorter: was an IndexError
    (star(3), []),
])
def test_relabel_rejects_a_map_that_is_not_a_permutation(g, perm):
    with pytest.raises(ValueError, match=r"^expected a permutation of 0\.\."):
        g.relabel(perm)
