"""Pins of every graph constructor outside the edge-mask codec: the named
families, `disjoint_union`, `join`, `Graph.relabel` and `random_regular`.

Graphs are compared with edge lists written pair by pair in `support.py`;
rejected inputs and seeded outputs are pinned by a digest of their rows or
of the exception type and message."""

import hashlib
import random

import pytest

from hamspec import (
    FamilySpec, construct, disjoint_union, from_edges, join, random_regular)

from support import FAMILY_EDGES, family_parameters, random_graph

HUGE = 1 << 62


def _outcome(make, *args) -> str:
    """The rows in hex, or the exception's type and message."""
    try:
        return " ".join(f"{row:x}" for row in make(*args).rows)
    except Exception as exc:  # noqa: BLE001 - the type is part of the pin
        return f"{type(exc).__name__}: {exc}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _family_grid():
    """Every family at orders 0-63 and 2^62 over all parameters, with each
    range run one step past both ends; circulant's connections run over the
    single offsets -1..n and the ranges 1..k."""
    orders = [*range(64), HUGE]
    for n in orders:
        for kind in ("complete", "star", "cycle", "path", "clique-plus-isolated",
                     "clique-plus-pendant", "clique-plus-two-edges",
                     "balanced-bipartite-minus-matching"):
            yield kind, (n,)
        for s in (range(-1, n) if n < HUGE else (0, 1, n - 3, n - 2)):
            yield "join-of-two-cliques", (n, s)
        for r in (range(-1, n // 2 + 2) if n < HUGE else (0, 1, n // 2, n // 2 + 1)):
            yield "regular-join-clique", (n, r)
        offsets = [(c,) for c in (range(-1, n + 1) if n < HUGE else (0, 1, n - 1, n))]
        offsets += [tuple(range(1, k + 1)) for k in range(min(n, 63) // 2 + 2)]
        for conns in offsets:
            yield "circulant", (n, conns)
    for a in (*range(-1, 64), HUGE):
        for b in (*range(-1, 64), HUGE):
            yield "complete-bipartite", (a, b)
    for r in (*range(-1, 33), HUGE):
        for s in (*range(-1, 64), HUGE):
            yield "remark-family", (r, s)


FAMILY_DIGEST = "ecdda1353430964f2f6df3d1bcb40a61483c6335a377eab5d1d323df1020a7ad"


def test_families_equal_their_edge_lists_at_every_parameter_up_to_order_62():
    for kind, params in family_parameters():
        g = construct(FamilySpec(kind, params))
        assert g == from_edges(g.n, FAMILY_EDGES[kind](*params)), (kind, params)


def test_family_rows_and_errors_at_orders_0_to_63_and_2_to_the_62():
    lines = [f"{kind} {params} {_outcome(construct, FamilySpec(kind, params))}"
             for kind, params in _family_grid()]
    assert _digest(lines) == FAMILY_DIGEST


def _join_edges(g1, g2):
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    across = [(u, v) for u in range(g1.n) for v in range(g1.n, g1.n + g2.n)]
    return [*g1.edges(), *shifted], across


@pytest.mark.parametrize("seed", range(4))
def test_union_and_join_equal_their_edge_lists_on_random_pairs(seed):
    rng = random.Random(seed)
    for _ in range(75):
        n1 = rng.randint(1, 61)
        g1 = random_graph(n1, rng.random(), rng)
        g2 = random_graph(rng.randint(1, 62 - n1), rng.random(), rng)
        inside, across = _join_edges(g1, g2)
        n = g1.n + g2.n
        assert disjoint_union(g1, g2) == from_edges(n, inside)
        assert join(g1, g2) == from_edges(n, inside + across)


def test_union_and_join_reject_orders_above_62_by_message():
    for combine in (disjoint_union, join):
        for n1, n2 in ((62, 1), (31, 32), (1, 62)):
            g1 = from_edges(n1, [])
            g2 = from_edges(n2, [(0, n2 - 1)] if n2 > 1 else [])
            with pytest.raises(ValueError, match=rf"^order must be in 1\.\.62, got {n1 + n2}$"):
                combine(g1, g2)


@pytest.mark.parametrize("seed", range(4))
def test_relabel_equals_the_mapped_edge_list(seed):
    rng = random.Random(100 + seed)
    for _ in range(100):
        n = rng.randint(1, 62)
        g = random_graph(n, rng.random(), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        assert g.relabel(perm) == from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert g.relabel(tuple(perm)) == g.relabel(perm)


def _regular_grid():
    """(n, d, seed) over degrees up to 5 at every order up to 12 and a few
    larger ones, with the rejected degrees and orders."""
    for n in (*range(0, 13), 20, 33, 62, 63, HUGE):
        for d in range(-1, min(n, 5) + 1):
            for seed in range(3):
                yield n, d, seed


REGULAR_DIGEST = "873db402ba56089828799d10646d117672d2a460ec8a6717402017340e0fada5"


def test_random_regular_rows_and_errors_over_a_seeded_grid():
    lines = [f"{n} {d} {seed} {_outcome(random_regular, n, d, seed)}"
             for n, d, seed in _regular_grid()]
    assert _digest(lines) == REGULAR_DIGEST
