"""Exact Hamiltonicity oracles and the combinatorial sufficient conditions.

The oracle is a subset dynamic program over (visited set, endpoint) states
run from a fixed start vertex: O(2^n * n^2) time and one 2^n-entry table,
exact for every input.  One lazy stream yields the spanning-path endpoints
of starts 0, 1, ..., building a table only when it is read and none for a
disconnected graph.  A predicate reads it only until its answer is settled
(path: a start reaching every vertex; cycle: start 0; Hamilton-connectivity:
a start missing an endpoint); the profile reads every start, dropping each
table before the next is built.  Every entry point names its order cap
`oracle_cap`.

The three properties are the rows of one table, `_PROPERTIES`, keyed by the
`Prediction` that claims each.  Every pairing of a property with its profile
field, view, closure, degree-sum threshold or edge surplus reads that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, inf
from typing import Iterator

from ._report import Report
from .graph import Graph, complement

DEFAULT_ORACLE_CAP = 20
HARD_ORACLE_CAP = 24  # one 2^n endpoint table is the binding memory constraint


class CapacityError(Exception):
    """Input larger than the configured exact-oracle capacity."""


@dataclass(frozen=True)
class HamiltonProfile(Report):
    has_path: bool
    has_cycle: bool
    hamilton_connected: bool
    witness_path: tuple[int, ...] | None
    failing_pair: tuple[int, int] | None


class Prediction(Enum):
    HAMILTON_CONNECTED = "HamiltonConnected"
    HAMILTONIAN_CYCLE = "HamiltonianCycle"
    HAMILTONIAN_PATH = "HamiltonianPath"
    NO_PREDICTION = "NoPrediction"


@dataclass(frozen=True)
class _Property:
    field: str    # the HamiltonProfile field that holds it
    view: str     # the public function that decides it alone
    # k - n for the Bondy-Chvatal k-closure that preserves it, so a degree
    # sum of n + offset forces it, as does an edge surplus of offset + 1
    offset: int


# weakest first, as are DegreeSumCheck's flags and the EdgeCountConclusion
# members after NONE; NO_PREDICTION claims nothing and has no row
_PROPERTIES = {
    Prediction.HAMILTONIAN_PATH: _Property("has_path", "has_hamiltonian_path", -1),
    Prediction.HAMILTONIAN_CYCLE: _Property("has_cycle", "has_hamiltonian_cycle", 0),
    Prediction.HAMILTON_CONNECTED: _Property("hamilton_connected", "is_hamilton_connected", 1),
}


def _check_cap(n: int, oracle_cap: int | None) -> None:
    """Reject a cap above the hard ceiling, then an order above the cap."""
    cap = DEFAULT_ORACLE_CAP if oracle_cap is None else oracle_cap
    if cap > HARD_ORACLE_CAP:
        raise ValueError(f"oracle cap cannot exceed {HARD_ORACLE_CAP}")
    if n > cap:
        raise CapacityError(f"order {n} above oracle cap {cap}")


def _endpoint_table(rows: tuple[int, ...], n: int, start: int) -> list[int]:
    """dp[mask] = endpoint set of simple paths from `start` covering `mask`."""
    dp = [0] * (1 << n)
    dp[1 << start] = 1 << start
    for mask in range(1 << start, 1 << n):
        ends = dp[mask]
        if not ends:
            continue
        free = ~mask
        # inline low-bit loops, not _bits: this is the oracle DP's inner loop
        while ends:
            vbit = ends & -ends
            ends -= vbit
            ext = rows[vbit.bit_length() - 1] & free
            while ext:
                ubit = ext & -ext
                ext -= ubit
                dp[mask | ubit] |= ubit
    return dp


def _reconstruct(rows, dp, start: int, end: int, n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    path = [end]
    mask, cur = full, end
    while mask != 1 << start:
        prev_mask = mask ^ (1 << cur)
        cands = dp[prev_mask] & rows[cur]
        cur = (cands & -cands).bit_length() - 1
        mask = prev_mask
        path.append(cur)
    path.reverse()
    return tuple(path)


def _spanning_ends(g: Graph, oracle_cap: int | None) -> Iterator[tuple[int, int, list | None]]:
    """(start, endpoints of its spanning paths, its table) for starts 0, 1, ...,
    checking the cap at the call; a disconnected graph yields (start, 0, None).
    The stream keeps no table: a reader that drops each one holds one at a time."""
    _check_cap(g.n, oracle_cap)
    if not g.is_connected():
        return ((s, 0, None) for s in range(g.n))

    def ends_from(s: int) -> tuple[int, int, list]:
        dp = _endpoint_table(g.rows, g.n, s)
        return s, dp[-1], dp
    return map(ends_from, range(g.n))


def hamilton_profile(g: Graph, oracle_cap: int | None = None) -> HamiltonProfile:
    """Exact path / cycle / Hamilton-connectivity answers with witnesses.

    Conventions for tiny orders: the one-vertex graph has a Hamiltonian path
    and is Hamilton-connected (vacuously); an adjacent pair is
    Hamilton-connected; cycles need n >= 3.  A disconnected graph is
    all-false with failing pair (0, 1), by the stream's rule.  The witness is
    the first path found in (start, endpoint) order; the failing pair is the
    lexicographically smallest pair with no spanning path.  Every start of
    the stream is read, whatever the answers turn out to be.
    """
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    has_cycle = False
    witness = failing = None
    for s, ends, dp in _spanning_ends(g, oracle_cap):
        has_cycle |= s == 0 and n >= 3 and bool(ends & rows[0])
        if ends and witness is None:
            witness = _reconstruct(rows, dp, s, (ends & -ends).bit_length() - 1, n)
        missing = (full ^ (1 << s)) & ~ends
        if missing and failing is None:
            failing = (s, (missing & -missing).bit_length() - 1)
        del dp  # start s's table goes before start s + 1's is built
    return HamiltonProfile(witness is not None, has_cycle, failing is None, witness, failing)


def has_hamiltonian_path(g: Graph, oracle_cap: int | None = None) -> bool:
    return any(ends for _, ends, _ in _spanning_ends(g, oracle_cap))


def has_hamiltonian_cycle(g: Graph, oracle_cap: int | None = None) -> bool:
    _, ends, _ = next(_spanning_ends(g, oracle_cap))
    return g.n >= 3 and bool(ends & g.rows[0])


def is_hamilton_connected(g: Graph, oracle_cap: int | None = None) -> bool:
    full = (1 << g.n) - 1
    return all(ends | 1 << s == full for s, ends, _ in _spanning_ends(g, oracle_cap))


@dataclass(frozen=True)
class DegreeSumCheck:
    ore_path: bool        # every nonadjacent pair sums to >= n - 1
    ore_cycle: bool       # >= n
    erdos_gallai_hc: bool # >= n + 1


def degree_sum_check(g: Graph) -> DegreeSumCheck:
    """Minimum nonadjacent degree sum against the three classical thresholds.

    All flags are vacuously true on complete graphs.
    """
    degs = g.degrees()
    lowest = min((degs[u] + degs[v] for u, v in complement(g).edges()), default=inf)
    return DegreeSumCheck(*(lowest >= g.n + prop.offset for prop in _PROPERTIES.values()))


class EdgeCountConclusion(Enum):
    NONE = "None"
    PATH_UNLESS_CLIQUE_PLUS_ISOLATED = "PathUnlessCliquePlusIsolated"
    CYCLE_UNLESS_CLIQUE_PLUS_PENDANT = "CycleUnlessCliquePlusPendant"
    HC_UNLESS_CLIQUE_PLUS_TWO_EDGES = "HamiltonConnectedUnlessCliquePlusTwoEdges"


@dataclass(frozen=True)
class EdgeCountClassification:
    r: int  # e(G) - C(n-1, 2)
    conclusion: EdgeCountConclusion


def edge_count_classification(g: Graph) -> EdgeCountClassification:
    """Strongest conclusion available from the edge-count surplus r.

    r >= 2 forces Hamilton-connectivity, r >= 1 a Hamiltonian cycle and
    r >= 0 a Hamiltonian path, in each case with a single exceptional graph
    (the near-complete family of the matching conclusion name).
    """
    r = g.edge_count - comb(g.n - 1, 2)
    # the surpluses rise with the rows, so the rows r reaches are a prefix
    reached = sum(r >= prop.offset + 1 for prop in _PROPERTIES.values())
    return EdgeCountClassification(r, tuple(EdgeCountConclusion)[reached])
