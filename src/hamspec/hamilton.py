"""Exact Hamiltonicity oracles and the combinatorial sufficient conditions.

The oracle is a subset dynamic program over (visited set, endpoint) states
run from a fixed start vertex: O(2^n * n^2) time and one 2^n-entry table,
exact for every input.  One scan runs it from starts 0, 1, ...; each
predicate stops it as soon as its answer is settled: a Hamiltonian path at
the first start that reaches every vertex, a cycle after start 0,
Hamilton-connectivity at the first start with a missing endpoint.  The full
profile runs every start, so its cost does not depend on the answer.

The three properties are the rows of one table, `_PROPERTIES`, keyed by the
`Prediction` that claims each.  Every pairing of a property with its profile
field, view, closure, degree-sum threshold or edge surplus reads that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, inf
from typing import Callable

from ._report import Report
from .graph import Graph, complement

DEFAULT_ORACLE_CAP = 20
HARD_ORACLE_CAP = 24  # the 2^n endpoint table is the binding memory constraint


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


def _check_cap(n: int, max_order: int | None) -> None:
    """Reject a cap above the hard ceiling, then an order above the cap."""
    cap = DEFAULT_ORACLE_CAP if max_order is None else max_order
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


def _scan(g: Graph, max_order: int | None,
          settled: Callable[[tuple | None, tuple | None], bool]) -> HamiltonProfile:
    """The profile from starts 0, 1, ..., stopping after the first start at
    which `settled(witness, failing_pair)` holds.  has_cycle is exact after
    start 0; a field the caller does not ask for may be wrong after a stop."""
    _check_cap(g.n, max_order)
    if not g.is_connected():
        return HamiltonProfile(False, False, False, None, (0, 1))
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    has_cycle = False
    witness = failing = None
    for s in range(n):
        dp = _endpoint_table(rows, n, s)
        ends = dp[full]
        if s == 0:
            has_cycle = n >= 3 and bool(ends & rows[0])
        if ends and witness is None:
            witness = _reconstruct(rows, dp, s, (ends & -ends).bit_length() - 1, n)
        missing = (full ^ (1 << s)) & ~ends
        if missing and failing is None:
            failing = (s, (missing & -missing).bit_length() - 1)
        if settled(witness, failing):
            break
    return HamiltonProfile(witness is not None, has_cycle, failing is None, witness, failing)


def hamilton_profile(g: Graph, max_order: int | None = None) -> HamiltonProfile:
    """Exact path / cycle / Hamilton-connectivity answers with witnesses.

    Conventions for tiny orders: the one-vertex graph has a Hamiltonian path
    and is Hamilton-connected (vacuously); an adjacent pair is
    Hamilton-connected; cycles need n >= 3.  Disconnected graphs
    short-circuit to all-false.  The witness is the first path found in
    (start, endpoint) order; the failing pair is the lexicographically
    smallest pair with no spanning path.  Every start runs, whatever the
    answers turn out to be.
    """
    return _scan(g, max_order, lambda witness, failing: False)


def has_hamiltonian_path(g: Graph, max_order: int | None = None) -> bool:
    return _scan(g, max_order, lambda witness, failing: witness is not None).has_path


def has_hamiltonian_cycle(g: Graph, max_order: int | None = None) -> bool:
    return _scan(g, max_order, lambda witness, failing: True).has_cycle


def is_hamilton_connected(g: Graph, max_order: int | None = None) -> bool:
    return _scan(g, max_order, lambda witness, failing: failing is not None).hamilton_connected


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
