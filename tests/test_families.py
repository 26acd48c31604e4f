from math import comb

import pytest

from hamspec import (
    FamilySpec,
    balanced_bipartite_minus_matching,
    circulant,
    clique_plus_isolated,
    clique_plus_pendant,
    clique_plus_two_edges,
    complete,
    complete_bipartite,
    construct,
    cycle,
    family_spec,
    from_edges,
    join_of_two_cliques,
    path,
    regular_join_clique,
    remark_family,
    star,
)
from hamspec.harness import canonical_graph6


def test_construct_dispatch_matches_direct_calls():
    cases = [
        (family_spec("complete", n=5), complete(5)),
        (family_spec("complete-bipartite", a=2, b=4), complete_bipartite(2, 4)),
        (family_spec("star", n=6), star(6)),
        (family_spec("cycle", n=7), cycle(7)),
        (family_spec("path", n=4), path(4)),
        (family_spec("clique-plus-isolated", n=6), clique_plus_isolated(6)),
        (family_spec("clique-plus-pendant", n=6), clique_plus_pendant(6)),
        (family_spec("clique-plus-two-edges", n=6), clique_plus_two_edges(6)),
        (family_spec("join-of-two-cliques", n=8, s=3), join_of_two_cliques(8, 3)),
        (family_spec("balanced-bipartite-minus-matching", n=8),
         balanced_bipartite_minus_matching(8)),
        (family_spec("regular-join-clique", n=10, r=2), regular_join_clique(10, 2)),
        (family_spec("remark-family", r=2, s=2), remark_family(2, 2)),
        (family_spec("circulant", n=7, connections=[1, 2]), circulant(7, [1, 2])),
    ]
    for spec, expected in cases:
        assert construct(spec) == expected


def test_family_spec_validation():
    with pytest.raises(ValueError):
        family_spec("no-such-family", n=4)
    with pytest.raises(ValueError):
        family_spec("complete")  # missing n
    with pytest.raises(ValueError):
        family_spec("complete", n=4, s=1)  # stray parameter


def test_clique_plus_two_edges_structure():
    g = clique_plus_two_edges(6)
    assert sorted(g.degrees(), reverse=True) == [5, 5, 4, 4, 4, 2]
    assert g.edge_count == comb(5, 2) + 2


def test_clique_plus_two_edges_count_range():
    for n in range(5, 31):
        assert clique_plus_two_edges(n).edge_count == comb(n - 1, 2) + 2


def test_complete_graph_degrees():
    assert complete(4).degrees() == [3, 3, 3, 3]


def test_join_of_two_cliques_8_3():
    g = join_of_two_cliques(8, 3)
    degs = sorted(g.degrees(), reverse=True)
    assert degs[:2] == [7, 7] and degs[2:] == [4] * 6
    assert g.edge_count == 19  # 3 + 3 within cliques, 1 joining edge, 12 across


def test_join_of_two_cliques_range():
    with pytest.raises(ValueError):
        join_of_two_cliques(6, 0)
    with pytest.raises(ValueError):
        join_of_two_cliques(6, 4)
    join_of_two_cliques(6, 3)  # boundary is fine


def test_clique_plus_isolated_and_pendant():
    g = clique_plus_isolated(6)
    assert sorted(g.degrees()) == [0, 4, 4, 4, 4, 4]
    g = clique_plus_pendant(6)
    assert sorted(g.degrees()) == [1, 4, 4, 4, 4, 5]


@pytest.mark.parametrize("make,minimum,joined", [
    (clique_plus_isolated, 2, []),
    (clique_plus_pendant, 2, [0]),
    (clique_plus_two_edges, 3, [0, 1]),
])
def test_clique_plus_constructors_match_their_edge_lists(make, minimum, joined):
    """K_{n-1} on 0..n-2 plus vertex n-1 joined as documented, at every
    order from the family minimum to 62; other orders are rejected before
    any row is built."""
    for n in range(minimum, 63):
        clique = [(u, v) for v in range(n - 1) for u in range(v)]
        assert make(n) == from_edges(n, clique + [(u, n - 1) for u in joined])
    for n in (*range(minimum), 63, 1 << 62):
        with pytest.raises(ValueError):
            make(n)


def test_balanced_bipartite_minus_matching():
    g = balanced_bipartite_minus_matching(8)
    assert g.degrees() == [3] * 8
    assert not any(g.has_edge(i, 4 + i) for i in range(4))
    # at order six the result is a hexagon
    assert canonical_graph6(balanced_bipartite_minus_matching(6)) == canonical_graph6(cycle(6))
    with pytest.raises(ValueError):
        balanced_bipartite_minus_matching(7)


@pytest.mark.parametrize("n,r", [(6, 1), (6, 2), (6, 3), (8, 2), (10, 1), (12, 4)])
def test_regular_join_clique_degrees(n, r):
    g = regular_join_clique(n, r)
    degs = g.degrees()
    assert degs[-r:] == [n - 1] * r            # the joined clique is universal
    assert degs[:-r] == [n // 2] * (n - r)     # regular part plus join edges


def test_regular_join_clique_validation():
    with pytest.raises(ValueError):
        regular_join_clique(7, 1)   # odd order
    with pytest.raises(ValueError):
        regular_join_clique(8, 5)   # r beyond n/2
    with pytest.raises(ValueError):
        regular_join_clique(12, 3)  # 9 vertices of degree 3: odd product


def test_remark_family_validation():
    with pytest.raises(ValueError):
        remark_family(1, 2)
    g = remark_family(3, 8)
    assert g.n == 14
    assert sorted(g.degrees(), reverse=True) == [13] * 8 + [10] * 6


def test_circulant():
    assert circulant(5, [1]) == cycle(5)
    assert circulant(6, [1, 2, 3]).degrees() == [5] * 6  # complete
    assert circulant(6, [3]).degrees() == [1] * 6        # antipodal matching
    with pytest.raises(ValueError):
        circulant(5, [0])
    with pytest.raises(ValueError):
        circulant(5, [5])


def test_star_and_path_small():
    assert star(2) == complete(2)
    assert path(1).edge_count == 0
    assert path(4).degrees() == [1, 2, 2, 1]
    with pytest.raises(ValueError):
        cycle(2)


def test_family_spec_is_hashable_value():
    spec = FamilySpec("complete", (5,))
    assert construct(spec) == complete(5)
    assert {spec: 1}[FamilySpec("complete", (5,))] == 1
