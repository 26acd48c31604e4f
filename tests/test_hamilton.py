import random
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from hamspec import (
    CapacityError,
    EdgeCountConclusion,
    clique_plus_isolated,
    clique_plus_pendant,
    clique_plus_two_edges,
    complete,
    complete_bipartite,
    cycle,
    degree_sum_check,
    disjoint_union,
    edge_count_classification,
    enumerate_labeled,
    from_edges,
    graph_from_edge_mask,
    hamilton_profile,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamilton_connected,
    random_regular,
    triangle_pairs,
)
from hamspec import hamilton
from hamspec.harness import canonical_graph6

from support import (
    complete_split, petersen, prism, random_graph, reference_ends, reference_profile)


def test_petersen_has_path_but_no_cycle():
    p = hamilton_profile(petersen())
    assert p.has_path and not p.has_cycle and not p.hamilton_connected


def test_k33_cycle_but_not_hamilton_connected():
    p = hamilton_profile(complete_bipartite(3, 3))
    assert p.has_path and p.has_cycle and not p.hamilton_connected
    # the lexicographically first failing pair sits inside one part
    assert p.failing_pair == (0, 1)


def test_clique_plus_two_edges_not_hamilton_connected():
    p = hamilton_profile(clique_plus_two_edges(6))
    assert p.has_path and p.has_cycle and not p.hamilton_connected
    assert p.failing_pair == (0, 1)  # the two neighbors of the degree-2 vertex


def test_tiny_order_conventions():
    one = hamilton_profile(from_edges(1, []))
    assert one.has_path and one.hamilton_connected and not one.has_cycle
    assert one.witness_path == (0,)

    k2 = hamilton_profile(complete(2))
    assert k2.has_path and k2.hamilton_connected and not k2.has_cycle

    empty2 = hamilton_profile(from_edges(2, []))
    assert not empty2.has_path and not empty2.hamilton_connected
    assert empty2.failing_pair == (0, 1)


def test_disconnected_short_circuit():
    g = disjoint_union(complete(3), complete(3))
    p = hamilton_profile(g)
    assert p == hamilton_profile(g)
    assert not p.has_path and not p.has_cycle and not p.hamilton_connected
    assert p.witness_path is None and p.failing_pair == (0, 1)


def test_profile_internal_consistency_and_witnesses():
    rng = random.Random(55)
    for _ in range(150):
        n = 2 + rng.randrange(8)
        g = random_graph(n, rng.random(), rng)
        p = hamilton_profile(g)
        assert p.has_path == has_hamiltonian_path(g)
        assert p.has_cycle == has_hamiltonian_cycle(g)
        assert p.hamilton_connected == is_hamilton_connected(g)
        if p.hamilton_connected:
            assert p.has_path
            if n >= 3:
                assert p.has_cycle
        if p.has_cycle and n >= 3:
            assert p.has_path
        if p.has_path:
            w = p.witness_path
            assert w is not None and sorted(w) == list(range(n))
            assert all(g.has_edge(w[i], w[i + 1]) for i in range(n - 1))
        if n >= 2 and not p.hamilton_connected:
            u, v = p.failing_pair
            assert 0 <= u < v < n


def _seeded_sample():
    rng = random.Random(2024)
    return [random_graph(n, rng.random(), rng) for n in range(7, 11) for _ in range(30)]


@pytest.mark.parametrize("corpus", ["labeled orders 1-6", "seeded orders 7-10"])
def test_early_stopping_scan_matches_the_all_starts_dp(corpus):
    """The three predicates read the one per-start stream only until their
    answer is settled, and the profile reads all of it; every answer,
    witness and failing pair must equal the plain all-starts DP's."""
    graphs = (chain.from_iterable(enumerate_labeled(n) for n in range(1, 7))
              if corpus.startswith("labeled") else _seeded_sample())
    for g in graphs:
        ref = reference_profile(g)
        assert hamilton_profile(g).to_json_dict() == ref, g
        assert has_hamiltonian_path(g) == ref["has_path"], g
        assert has_hamiltonian_cycle(g) == ref["has_cycle"], g
        assert is_hamilton_connected(g) == ref["hamilton_connected"], g


@pytest.mark.parametrize("corpus", ["labeled orders 1-5", "seeded orders 7-10"])
def test_each_entry_point_builds_the_tables_its_answer_needs(corpus, monkeypatch):
    """Per graph, the endpoint tables each entry point builds, from the
    plain all-starts DP's endpoint sets: the path predicate stops at the
    first start with a spanning path, the cycle predicate after start 0 and
    Hamilton-connectivity at the first start that misses an endpoint; the
    profile builds all n, and a disconnected graph none.  Only the profile
    walks a witness back through a table."""
    calls = Counter()

    def counted(name):
        real = getattr(hamilton, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(hamilton, name, wrapper)

    counted("_endpoint_table")
    counted("_reconstruct")
    graphs = (chain.from_iterable(enumerate_labeled(n) for n in range(1, 6))
              if corpus.startswith("labeled") else _seeded_sample())
    for g in graphs:
        n, full = g.n, (1 << g.n) - 1
        ends = reference_ends(g)
        want = {
            hamilton_profile: (n, int(any(ends))),
            has_hamiltonian_path: (next((s + 1 for s, e in enumerate(ends) if e), n), 0),
            has_hamiltonian_cycle: (1, 0),
            is_hamilton_connected: (
                next((s + 1 for s, e in enumerate(ends) if e | 1 << s != full), n), 0),
        }
        for entry_point, (tables, walks) in want.items():
            calls.clear()
            entry_point(g)
            assert calls["_endpoint_table"] == (tables if g.is_connected() else 0), (entry_point, g)
            assert calls["_reconstruct"] == walks, (entry_point, g)


def test_oracle_capacity_errors():
    big = complete(21)
    with pytest.raises(CapacityError):
        hamilton_profile(big)
    hamilton_profile(complete(12), max_order=24)  # explicit override works
    with pytest.raises(ValueError):
        hamilton_profile(big, max_order=25)


def _flags(g):
    f = degree_sum_check(g)
    return (f.ore_path, f.ore_cycle, f.erdos_gallai_hc)


def test_degree_sum_check_examples():
    assert _flags(complete(4)) == (True, True, True)
    assert _flags(cycle(5)) == (True, False, False)
    assert _flags(complete_bipartite(3, 3)) == (True, True, False)


def test_edge_count_classification_examples():
    def with_edges(m):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)][:m]
        return from_edges(6, edges)

    c = edge_count_classification(with_edges(12))
    assert c.r == 2 and c.conclusion is EdgeCountConclusion.HC_UNLESS_CLIQUE_PLUS_TWO_EDGES
    c = edge_count_classification(with_edges(11))
    assert c.r == 1 and c.conclusion is EdgeCountConclusion.CYCLE_UNLESS_CLIQUE_PLUS_PENDANT
    c = edge_count_classification(with_edges(10))
    assert c.r == 0 and c.conclusion is EdgeCountConclusion.PATH_UNLESS_CLIQUE_PLUS_ISOLATED
    c = edge_count_classification(with_edges(9))
    assert c.r == -1 and c.conclusion is EdgeCountConclusion.NONE


# order -> (r, conclusion) -> labeled graphs; r = e(G) - C(n-1, 2)
_NONE = "None"
_PATH = "PathUnlessCliquePlusIsolated"
_CYCLE = "CycleUnlessCliquePlusPendant"
_HC = "HamiltonConnectedUnlessCliquePlusTwoEdges"
_EDGE_COUNT_CLASSES = {
    1: {(0, _PATH): 1},
    2: {(0, _PATH): 1, (1, _CYCLE): 1},
    3: {(-1, _NONE): 1, (0, _PATH): 3, (1, _CYCLE): 3, (2, _HC): 1},
    4: {(-3, _NONE): 1, (-2, _NONE): 6, (-1, _NONE): 15, (0, _PATH): 20, (1, _CYCLE): 15,
        (2, _HC): 6, (3, _HC): 1},
    5: {(-6, _NONE): 1, (-5, _NONE): 10, (-4, _NONE): 45, (-3, _NONE): 120,
        (-2, _NONE): 210, (-1, _NONE): 252, (0, _PATH): 210, (1, _CYCLE): 120,
        (2, _HC): 45, (3, _HC): 10, (4, _HC): 1},
    6: {(-10, _NONE): 1, (-9, _NONE): 15, (-8, _NONE): 105, (-7, _NONE): 455,
        (-6, _NONE): 1365, (-5, _NONE): 3003, (-4, _NONE): 5005, (-3, _NONE): 6435,
        (-2, _NONE): 6435, (-1, _NONE): 5005, (0, _PATH): 3003, (1, _CYCLE): 1365,
        (2, _HC): 455, (3, _HC): 105, (4, _HC): 15, (5, _HC): 1},
}

# order -> (ore_path, ore_cycle, erdos_gallai_hc) -> labeled graphs
_DEGREE_SUM_FLAGS = {
    1: {(True, True, True): 1},
    2: {(False, False, False): 1, (True, True, True): 1},
    3: {(False, False, False): 4, (True, False, False): 3, (True, True, True): 1},
    4: {(False, False, False): 42, (True, False, False): 12, (True, True, False): 9,
        (True, True, True): 1},
    5: {(False, False, False): 751, (True, False, False): 187, (True, True, False): 60,
        (True, True, True): 26},
    6: {(False, False, False): 27100, (True, False, False): 3690, (True, True, False): 1572,
        (True, True, True): 406},
}


@pytest.mark.parametrize("n", range(1, 7))
def test_classifiers_pinned_on_every_labeled_graph(n):
    edge_classes, flags = Counter(), Counter()
    for g in enumerate_labeled(n):
        c = edge_count_classification(g)
        edge_classes[c.r, c.conclusion.value] += 1
        flags[_flags(g)] += 1
    assert edge_classes == _EDGE_COUNT_CLASSES[n]
    assert flags == _DEGREE_SUM_FLAGS[n]


def test_edge_surplus_sweep_order_six():
    """Exhaustive n=6 sweep of the edge-count conclusions against the oracle.

    The surplus-two clause has exactly two non-Hamilton-connected classes:
    the clique-plus-two-edges graph and the complete split graph on 3+3
    (independent triple joined to a triangle).  The latter is a genuine
    counterexample to the clause's single-exception form: it has 12 edges
    and no spanning path between two of its triangle vertices.
    """
    path_exceptions = set()
    cycle_exceptions = set()
    hc_exceptions = set()
    for mask in range(1 << 15):
        if bin(mask).count("1") < 10:
            continue
        g = graph_from_edge_mask(6, mask)
        c = edge_count_classification(g)
        if c.r >= 0 and not has_hamiltonian_path(g):
            path_exceptions.add(canonical_graph6(g))
        if c.r >= 1 and not has_hamiltonian_cycle(g):
            cycle_exceptions.add(canonical_graph6(g))
        if c.r >= 2 and not is_hamilton_connected(g):
            hc_exceptions.add(canonical_graph6(g))
    assert path_exceptions == {canonical_graph6(clique_plus_isolated(6))}
    assert cycle_exceptions == {canonical_graph6(clique_plus_pendant(6))}
    assert hc_exceptions == {
        canonical_graph6(clique_plus_two_edges(6)),
        canonical_graph6(complete_split(3, 3)),
    }


def test_complete_split_3_3_is_the_surplus_two_counterexample():
    g = complete_split(3, 3)
    assert g.edge_count == 12 and edge_count_classification(g).r == 2
    assert has_hamiltonian_cycle(g)
    assert not is_hamilton_connected(g)


def _ore_flags_all_masks(n):
    """Vectorized degree-sum thresholds for every labeled graph on n vertices."""
    pairs = triangle_pairs(n)
    size = 1 << len(pairs)
    masks = np.arange(size, dtype=np.int64)
    deg = np.zeros((n, size), dtype=np.int8)
    adj_bits = []
    for b, (i, j) in enumerate(pairs):
        bit = ((masks >> b) & 1).astype(np.int8)
        adj_bits.append(bit)
        deg[i] += bit
        deg[j] += bit
    ore_path = np.ones(size, dtype=bool)
    ore_cycle = np.ones(size, dtype=bool)
    erdos = np.ones(size, dtype=bool)
    for b, (i, j) in enumerate(pairs):
        nonadj = adj_bits[b] == 0
        s = deg[i].astype(np.int16) + deg[j]
        ore_path &= ~(nonadj & (s < n - 1))
        ore_cycle &= ~(nonadj & (s < n))
        erdos &= ~(nonadj & (s < n + 1))
    return ore_path, ore_cycle, erdos


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_degree_sum_conditions_imply_oracle_truth(n):
    """Every labeled graph: the classical degree-sum conditions are sound.

    The conditions concern paths and cycles of order >= 3, so the sweep
    starts at n = 3 (below that they hold vacuously on complete graphs
    that have no spanning cycle).
    """
    ore_path, ore_cycle, erdos = _ore_flags_all_masks(n)
    for mask in np.nonzero(ore_path)[0]:
        g = graph_from_edge_mask(n, int(mask))
        flags = degree_sum_check(g)
        assert flags.ore_path
        assert flags.ore_cycle == bool(ore_cycle[mask])
        assert flags.erdos_gallai_hc == bool(erdos[mask])
        if flags.erdos_gallai_hc:
            assert is_hamilton_connected(g)
        elif flags.ore_cycle:
            assert has_hamiltonian_cycle(g)
        else:
            assert has_hamiltonian_path(g)


def test_cubic_graphs_order_six():
    """There are two cubic graphs on six vertices; the non-bipartite one
    (the prism) is Hamilton-connected."""
    classes = {}
    for g in enumerate_labeled(6):
        if g.degrees() == [3] * 6:
            classes.setdefault(canonical_graph6(g), g)
    assert len(classes) == 2
    k33 = canonical_graph6(complete_bipartite(3, 3))
    assert canonical_graph6(prism()) in classes
    for key, g in classes.items():
        assert is_hamilton_connected(g) == (key != k33)


def test_random_four_regular_order_nine_hamilton_connected():
    for i in range(10):
        g = random_regular(9, 4, seed=4000 + i)
        assert g.degrees() == [4] * 9
        assert is_hamilton_connected(g)
