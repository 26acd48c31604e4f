import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hamspec import (
    BOUND_IDS,
    adjacency_matrix,
    adjacency_spectral_radius,
    bound_suite,
    circulant,
    clique_plus_isolated,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_labeled,
    from_edges,
    path,
    sample_random,
    signless_spectral_radius,
    spectral_summary,
    star,
    symmetric_eigen_max,
)
from hamspec.spectral import _sign

from support import (
    adjacency_int_matrix,
    largest_eigenvalue_bisect,
    random_graph,
    signless_int_matrix,
    structured_family_graphs,
)


@pytest.mark.parametrize("corpus", ["labeled orders 1-6", "structured families"])
def test_adjacency_matrix_matches_the_rows_entry_for_entry(corpus):
    graphs = (structured_family_graphs() if corpus == "structured families"
              else [g for n in range(1, 7) for g in enumerate_labeled(n)])
    for g in graphs:
        for of_complement in (False, True):
            a = adjacency_matrix(g, of_complement)
            assert a.dtype == np.float64
            expect = adjacency_int_matrix(complement(g) if of_complement else g)
            assert np.array_equal(a, expect), (g, of_complement)


def test_eigen_max_identity():
    assert symmetric_eigen_max([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == pytest.approx(1.0)


def test_eigen_max_swap_matrix():
    assert symmetric_eigen_max([[0, 1], [1, 0]]) == pytest.approx(1.0)


def test_eigen_max_path3():
    a = adjacency_int_matrix(path(3))
    assert symmetric_eigen_max(a) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_eigen_max_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_eigen_max([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        symmetric_eigen_max([[0, 1, 0], [1, 0, 0]])


@pytest.mark.parametrize("matrix", [
    [[math.nan, 5], [0, 0]],          # asymmetric: the NaN hid the asymmetry
    [[math.nan, 0], [0, 0]],          # symmetric NaN on the diagonal
    [[0, math.nan], [math.nan, 0]],   # symmetric NaN off the diagonal
    [[math.inf, 0], [0, 0]],
    [[0, math.inf], [math.inf, 0]],
    [[0, -math.inf], [-math.inf, 0]],
])
def test_eigen_max_rejects_non_finite_input(matrix):
    with pytest.raises(ValueError, match="not finite and symmetric"):
        symmetric_eigen_max(matrix)


def test_eigen_against_bisection_oracle_exhaustive():
    """Exhaustive cross-check of the solver against exact inertia bisection."""
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            expect = largest_eigenvalue_bisect(adjacency_int_matrix(g), hi=n + 1)
            assert abs(adjacency_spectral_radius(g) - expect) <= 1e-8


def test_eigen_against_bisection_oracle_sampled():
    rng = random.Random(99)
    for _ in range(120):
        g = random_graph(6, rng.random(), rng)
        mu = largest_eigenvalue_bisect(adjacency_int_matrix(g), hi=7)
        gamma = largest_eigenvalue_bisect(signless_int_matrix(g), hi=13)
        assert abs(adjacency_spectral_radius(g) - mu) <= 1e-8
        assert abs(signless_spectral_radius(g) - gamma) <= 1e-8


def test_spectral_summary_examples():
    s = spectral_summary(complete(6))
    assert s.mu == pytest.approx(5, abs=1e-9)
    assert s.gamma == pytest.approx(10, abs=1e-9)

    s = spectral_summary(star(6))
    assert s.mu == pytest.approx(math.sqrt(5), abs=1e-9)
    assert s.gamma == pytest.approx(6, abs=1e-9)

    s = spectral_summary(cycle(4))
    assert s.mu == pytest.approx(2, abs=1e-9)
    assert s.gamma == pytest.approx(4, abs=1e-9)


@pytest.mark.parametrize("n,conns", [(7, [1]), (9, [1, 2]), (11, [1, 2, 3]), (8, [1, 4])])
def test_regular_graph_radii(n, conns):
    g = circulant(n, conns)
    k = g.degree(0)
    assert adjacency_spectral_radius(g) == pytest.approx(k, abs=1e-9)
    assert signless_spectral_radius(g) == pytest.approx(2 * k, abs=1e-9)


def test_summary_invariants_random():
    """Z(G) handshake identity, mu vs average degree, gamma vs 2 mu."""
    rng = random.Random(4)
    graphs = [g for n in range(1, 6) for g in enumerate_labeled(n)]
    graphs += [random_graph(6 + rng.randrange(15), rng.random(), rng) for _ in range(150)]
    for g in graphs:
        s = spectral_summary(g)
        assert s.degree_square_sum == sum(s.degrees[u] + s.degrees[v] for u, v in g.edges())
        if s.edge_count > 0:
            assert s.mu >= 2 * s.edge_count / g.n - 1e-9
        assert s.gamma >= 2 * s.mu - 1e-9


def test_gamma_twice_mu_equality_on_regular():
    for g in (cycle(8), complete(7), circulant(10, [1, 3]), complete_bipartite(4, 4)):
        s = spectral_summary(g)
        assert abs(s.gamma - 2 * s.mu) <= 1e-8


def _report(g, bound):
    match = [r for r in bound_suite(g) if r.bound == bound]
    assert len(match) == 1
    return match[0]


def test_bound_ids_and_serialization():
    reports = bound_suite(cycle(5))
    assert [r.bound for r in reports] == list(BOUND_IDS)
    d = reports[0].to_json_dict()
    assert set(d) == {"bound", "lhs", "rhs", "slack", "holds", "equality", "equality_expected"}


def test_bounds_skip_degenerate_inputs():
    one = from_edges(1, [])
    ids = [r.bound for r in bound_suite(one)]
    assert "dm_mean_upper" not in ids and "gamma_mean_upper" not in ids
    assert "gamma_ratio_lower" not in ids  # no edges
    empty3 = from_edges(3, [])
    assert "gamma_ratio_lower" not in [r.bound for r in bound_suite(empty3)]


def test_hofmeister_star_equality():
    rep = _report(star(4), "hofmeister_lower")
    assert rep.lhs == pytest.approx(12) and rep.rhs == pytest.approx(12, abs=1e-8)
    assert rep.equality


def test_gamma_mean_equality_cases():
    # disconnected equality case: clique plus isolated vertex, gamma = 2m/(n-1) + n-2
    rep = _report(clique_plus_isolated(6), "gamma_mean_upper")
    assert rep.rhs == pytest.approx(8)
    assert rep.equality and rep.equality_expected

    for g in (star(7), complete(5), complete(2)):
        rep = _report(g, "gamma_mean_upper")
        assert rep.equality and rep.equality_expected

    rep = _report(cycle(5), "gamma_mean_upper")
    assert rep.holds and not rep.equality and not rep.equality_expected


def test_mu_edge_equality_exactly_on_complete_plus_isolated():
    for k in range(1, 9):
        for j in range(4):
            g = complete(k)
            for _ in range(j):
                g = disjoint_union(g, from_edges(1, []))
            rep = _report(g, "mu_edge_upper")
            assert rep.equality and rep.equality_expected
    rng = random.Random(12)
    checked = 0
    while checked < 500:
        g = random_graph(3 + rng.randrange(8), rng.random(), rng)
        rep = _report(g, "mu_edge_upper")
        assert rep.holds
        if rep.equality_expected:
            assert rep.equality
        if rep.slack > 1e-6:
            assert not rep.equality_expected
        checked += 1


def test_empty_graph_mu_edge_equality():
    rep = _report(from_edges(3, []), "mu_edge_upper")
    assert rep.lhs == pytest.approx(0) and rep.rhs == pytest.approx(0)
    assert rep.equality and rep.equality_expected


def test_dm_mean_equality_iff_recognizer():
    """The degree-mean bound is exact rational, so equality must coincide
    with its characterization on every graph."""
    for n in range(2, 6):
        for g in enumerate_labeled(n):
            rep = _report(g, "dm_mean_upper")
            assert rep.holds
            assert rep.equality == rep.equality_expected
    rng = random.Random(21)
    for _ in range(300):
        g = random_graph(4 + rng.randrange(10), rng.random(), rng)
        rep = _report(g, "dm_mean_upper")
        assert rep.holds
        assert rep.equality == rep.equality_expected


def test_gamma_dm_equality_on_regular_and_semiregular():
    positives = [
        cycle(6),
        complete(5),
        complete_bipartite(2, 5),
        star(6),
        disjoint_union(complete(4), cycle(4)),
        disjoint_union(complete_bipartite(1, 3), complete(3)),
    ]
    for g in positives:
        rep = _report(g, "gamma_dm_upper")
        assert rep.equality and rep.equality_expected
    rep = _report(path(4), "gamma_dm_upper")
    assert rep.holds and not rep.equality and not rep.equality_expected


def test_bound_suite_holds_on_random_batch():
    rng = random.Random(1000)
    for _ in range(1000):
        g = random_graph(10, 0.5, rng)
        assert all(r.holds for r in bound_suite(g))


# (bound, holds, equality, equality_expected) -> count over every labeled
# graph of orders 1-5 and 20 G(n, 1/2) draws (seed n) at each order below;
# flags, not floats, so the pin does not depend on the LAPACK build
_FLAG_COUNTS = {
    ("mu_edge_upper", True, False, False): 1152,
    ("mu_edge_upper", True, True, True): 47,
    ("dm_mean_upper", True, False, False): 898,
    ("dm_mean_upper", True, True, True): 300,
    ("gamma_dm_upper", True, False, False): 980,
    ("gamma_dm_upper", True, True, True): 219,
    ("gamma_mean_upper", True, False, False): 1169,
    ("gamma_mean_upper", True, True, True): 29,
    ("hofmeister_lower", True, False, False): 1150,
    ("hofmeister_lower", True, True, False): 49,
    ("gamma_ratio_lower", True, False, False): 1020,
    ("gamma_ratio_lower", True, True, False): 174,
    ("gamma_two_mu_lower", True, False, False): 1094,
    ("gamma_two_mu_lower", True, True, False): 105,
}


def test_bound_flags_pinned_on_small_and_sampled_graphs():
    """Every bound's flags over a fixed corpus, and the bound ids of each
    graph: BOUND_IDS in order, less the mean bounds at n = 1 and the
    degree-ratio bound when e(G) = 0."""
    graphs = [g for n in range(1, 6) for g in enumerate_labeled(n)]
    graphs += [g for n in (8, 12, 20, 40, 62) for g in sample_random(n, 0.5, 20, seed=n)]
    counts = Counter()
    for g in graphs:
        reports = bound_suite(g)
        skipped = set()
        if g.n < 2:
            skipped |= {"dm_mean_upper", "gamma_mean_upper"}
        if g.edge_count == 0:
            skipped.add("gamma_ratio_lower")
        assert [r.bound for r in reports] == [b for b in BOUND_IDS if b not in skipped]
        counts.update((r.bound, r.holds, r.equality, r.equality_expected) for r in reports)
    assert counts == _FLAG_COUNTS


# (bound, holds, equality) -> count over the structured families at every
# order up to 62, where regular and near-complete graphs put float noise
# on exact ties at large orders
_FAMILY_FLAG_COUNTS = {
    ("mu_edge_upper", True, False): 1042,
    ("mu_edge_upper", True, True): 193,
    ("dm_mean_upper", True, False): 490,
    ("dm_mean_upper", True, True): 742,
    ("gamma_dm_upper", True, False): 489,
    ("gamma_dm_upper", True, True): 746,
    ("gamma_mean_upper", True, False): 920,
    ("gamma_mean_upper", True, True): 312,
    ("hofmeister_lower", True, False): 549,
    ("hofmeister_lower", True, True): 686,
    ("gamma_ratio_lower", True, False): 489,
    ("gamma_ratio_lower", True, True): 741,
    ("gamma_two_mu_lower", True, False): 752,
    ("gamma_two_mu_lower", True, True): 483,
}


def test_bound_flags_pinned_on_structured_families():
    counts = Counter((r.bound, r.holds, r.equality)
                     for g in structured_family_graphs() for r in bound_suite(g))
    assert counts == _FAMILY_FLAG_COUNTS


@pytest.mark.parametrize("x,side", [
    (Fraction(1, 10**12), 1), (Fraction(-1, 10**12), -1), (Fraction(0), 0), (0, 0), (-3, -1),
    (1e-9, 0), (-1e-9, 0), (1.1e-9, 1), (-1.1e-9, -1), (0.0, 0), (-0.0, 0),
])
def test_sign_is_exact_for_rationals_and_bands_floats(x, side):
    assert _sign(x) == side
