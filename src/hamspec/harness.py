"""Graph enumeration and sampling, criterion validation, and report assembly.

Random graphs come from an explicit 64-bit linear congruential generator
(MMIX constants: x' = 6364136223846793005*x + 1442695040888963407 mod 2^64,
uniform draw = x' >> 11 scaled by 2^-53) so that identical seeds reproduce
identical corpora on any platform.  Edge bits are drawn in the column-major
pair order (0,1), (0,2), (1,2), (0,3), ... of `graph.py`'s edge mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from ._report import Report
from .graph import Graph, _check_order as _check_graph_order, _rows_from_edge_mask, from_edges
from .graph6 import write_graph6
from .families import remark_family
from .closure import k_closure
from .hamilton import (
    _PROPERTIES,
    CapacityError,
    _check_cap,
    _Property,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamilton_connected,
)
from .certify import (
    _CRITERIA, CriterionId, CriterionStatus, Prediction, _check_args, _claim, apply_criterion)

ENUMERATION_CAP = 7  # 2^21 labeled graphs; beyond this use sampling


class Lcg:
    """Seedable 64-bit linear congruential generator (MMIX multiplier)."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        return int(self.uniform() * n) % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    return Graph(n, _rows_from_edge_mask(n, mask))


def _labeled_masks(n: int) -> range:
    """The edge masks of all 2^C(n,2) labeled graphs on n vertices, increasing;
    an order outside 1..cap is rejected at the call."""
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration capped at order {ENUMERATION_CAP}; use sample_random")
    _check_graph_order(n)
    return range(1 << n * (n - 1) // 2)


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in the edge-mask order of
    `_labeled_masks`; an order outside 1..cap is rejected at the call."""
    return (graph_from_edge_mask(n, mask) for mask in _labeled_masks(n))


def _random_masks(n: int, p: float, count: int, seed: int) -> Iterator[int]:
    """Edge masks of `count` G(n, p) draws; order, p and count are checked at the call."""
    _check_graph_order(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    rng = Lcg(seed)
    npairs = n * (n - 1) // 2
    return (sum(1 << bit for bit in range(npairs) if rng.uniform() < p) for _ in range(count))


def sample_random(n: int, p: float, count: int, seed: int) -> Iterator[Graph]:
    """`count` independent G(n, p) draws from the documented generator.

    The order, p and count are rejected at the call, not at the first draw.
    """
    return (graph_from_edge_mask(n, mask) for mask in _random_masks(n, p, count, seed))


def random_regular(n: int, degree: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph by the pairing model with rejection.

    A pairing is simple with probability about e^{-(d^2-1)/4} at large n
    (some 6,300 restarts at d = 6) and less at small n: at n = 10, d = 6 the
    model restarts 45,300 times for seed 6 and 109,227 for seed 1.  Keep d small.
    """
    _check_graph_order(n)
    if degree < 0 or degree >= n:
        raise ValueError(f"degree must be in 0..{n - 1}, got {degree}")
    if (n * degree) % 2:
        raise ValueError(f"no {degree}-regular graph on {n} vertices (odd product)")
    rng = Lcg(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = set(map(frozenset, zip(stubs[::2], stubs[1::2])))
        # simple exactly when no pair is a loop and no two pairs coincide
        if sum(len(p) == 2 for p in pairs) == n * degree // 2:
            return from_edges(n, pairs)


class ValidationMode(Enum):
    EXHAUSTIVE_LABELED = "exhaustive"
    RANDOM_SAMPLE = "random"


@dataclass(frozen=True)
class ValidationReport(Report):
    criterion: str
    orders: tuple[int, ...]
    mode: str
    graphs_checked: int
    predictions_issued: int
    exceptions_matched: int
    violations: tuple[str, ...]
    boundary_cases: int
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return not self.violations


def merge_reports(reports: Sequence[ValidationReport]) -> ValidationReport:
    """Combine reports from a partitioned run: counters add, violations sort."""
    if not reports:
        raise ValueError("nothing to merge")
    if len({(r.criterion, r.mode) for r in reports}) != 1:
        raise ValueError("cannot merge reports for different criteria or modes")
    orders = tuple(o for r in reports for o in r.orders)
    return ValidationReport(
        criterion=reports[0].criterion,
        orders=orders,
        mode=reports[0].mode,
        graphs_checked=sum(r.graphs_checked for r in reports),
        predictions_issued=sum(r.predictions_issued for r in reports),
        exceptions_matched=sum(r.exceptions_matched for r in reports),
        violations=tuple(sorted(v for r in reports for v in r.violations)),
        boundary_cases=sum(r.boundary_cases for r in reports),
        elapsed_ms=sum(r.elapsed_ms for r in reports),
    )


@lru_cache(maxsize=3 << 17)
def _oracle(g: Graph, prop: _Property) -> bool:
    """Whether g has the property of a row of `hamilton`'s table.  The row's view
    is read from this module at call time, so a wrapper on it sees every call."""
    return globals()[prop.view](g)


def _sweep(name: str, orders: Iterable[int], mode: ValidationMode, samples: int,
           p: float, seed: int, check, min_edges=None) -> ValidationReport:
    """Run `check(g) -> (verdict or None, sound)` over the corpus and report.

    The corpus of an order is one stream of edge masks: every labeled mask
    in increasing order, or the mode's random draws.  Every mask counts as
    checked; one with fewer than `min_edges(n)` bits set, if given, is never
    built or checked.  Verdicts feed the prediction, exception and boundary
    counters; an unsound graph is recorded as a graph6 violation.
    """
    orders = tuple(orders)
    if not orders:
        raise ValueError("no orders to validate")
    for n in orders:
        if n < 1:
            raise ValueError(f"orders must be >= 1, got {n}")
        _check_cap(n, None)
    start = time.perf_counter()
    checked = predictions = exceptions = boundary = 0
    violations = []
    corpora = []  # all set up, and a bad order or p rejected, before the first graph
    for i, n in enumerate(orders):
        masks = (_labeled_masks(n) if mode is ValidationMode.EXHAUSTIVE_LABELED
                 else _random_masks(n, p, samples, seed + i))
        corpora.append((n, min_edges(n) if min_edges else 0, masks))
    for n, lo, masks in corpora:
        for mask in masks:
            checked += 1
            if mask.bit_count() < lo:
                continue
            g = graph_from_edge_mask(n, mask)
            verdict, sound = check(g)
            if verdict is not None:
                boundary += verdict.status is CriterionStatus.BOUNDARY
                predictions += verdict.predicted is not Prediction.NO_PREDICTION
                exceptions += verdict.exception is not None
            if not sound:
                violations.append(write_graph6(g))
    return ValidationReport(
        criterion=name,
        orders=orders,
        mode=mode.value,
        graphs_checked=checked,
        predictions_issued=predictions,
        exceptions_matched=exceptions,
        violations=tuple(sorted(violations)),
        boundary_cases=boundary,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )


def validate(criterion: CriterionId, orders: Iterable[int],
             mode: ValidationMode = ValidationMode.EXHAUSTIVE_LABELED, *,
             samples: int = 500, p: float = 0.5, seed: int = 1,
             threshold_shift: float = 0.0) -> ValidationReport:
    """Check one criterion against the exact oracle over a graph corpus.

    A corpus mask with fewer bits set than its row's `min_edges(n)` is a
    NotSatisfied graph by that exact rule: in either mode it counts as
    checked but is never built or eigensolved.  Every other graph, and
    every graph under a nonzero `threshold_shift` (the fault-injection hook,
    see apply_criterion), is scored with apply_criterion.  The oracle runs
    only for a verdict that predicts a property without naming an
    exception, since no other verdict can be unsound, and it decides only
    the predicted property; a graph that lacks it is recorded by its graph6
    string as a violation.  Boundary statuses are counted, never treated as
    violations.  The shift, and every order against the criterion's minimum,
    are checked before the first graph is built.
    """
    orders = tuple(orders)
    for n in orders:
        _check_args(criterion, n, threshold_shift)

    def check(g):
        verdict = apply_criterion(g, criterion, threshold_shift=threshold_shift)
        claim = _claim(verdict)
        return verdict, claim is None or _oracle(g, claim)

    return _sweep(criterion.value, orders, mode, samples, p, seed, check,
                  None if threshold_shift else _CRITERIA[criterion].min_edges)


def validate_closure_equivalence(orders: Iterable[int],
                                 mode: ValidationMode = ValidationMode.EXHAUSTIVE_LABELED, *,
                                 samples: int = 500, p: float = 0.5,
                                 seed: int = 1) -> ValidationReport:
    """Check the three closure equivalences against the exact oracle.

    For each graph: a spanning path survives the (n-1)-closure, a spanning
    cycle the n-closure, and Hamilton-connectivity the (n+1)-closure, in
    both directions.
    """
    def check(g):
        return None, all(_oracle(g, prop) == _oracle(k_closure(g, g.n + prop.offset).graph, prop)
                         for prop in _PROPERTIES.values())

    return _sweep("ClosureEquivalence", orders, mode, samples, p, seed, check)


@dataclass(frozen=True)
class RemarkRow(Report):
    """One admissible (r, s) row of the two-cliques-joined-to-a-clique scan."""

    r: int
    s: int
    n: int
    f_at_n_minus_2: int    # (2r-1)(r-1) - s, exact
    g_at_2n_minus_4: int   # 4(r-1)^2 - 2s, exact
    mu: float
    gamma: float
    mu_below: bool         # T42 NotSatisfied: mu < n - 2
    gamma_above: bool      # T41 Satisfied: gamma >= 2(n - 2)
    oracle_has_cycle: bool | None


def admissible_remark_window(r: int) -> range:
    """Admissible s values for a given r: 2(r-1)^2 <= s < (2r-1)(r-1)."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return range(2 * (r - 1) ** 2, (2 * r - 1) * (r - 1))


def remark_scan(r_values: Iterable[int],
                oracle_cap: int | None = None) -> list[RemarkRow]:
    """Scan the adjacency-vs-signless comparison family over admissible (r, s).

    Each row checks the exact sign conditions (f(n-2) > 0, g(2n-4) <= 0) and
    the spectral gates, which are the verdicts of T42 (NotSatisfied: mu below
    n-2) and T41 (Satisfied: gamma at least 2(n-2)); the oracle column is
    filled only when the order is within `oracle_cap` (None: the default
    cap), at most the oracle's hard ceiling.  The window is nonempty for every
    r >= 2, so only an empty r range gives no row, and it is rejected.
    """
    rows = []
    for r in r_values:
        for s in admissible_remark_window(r):
            g = remark_family(r, s)
            t42 = apply_criterion(g, CriterionId.T42_AdjacencyPathCycle)
            t41 = apply_criterion(g, CriterionId.T41_SignlessPathCycle)
            try:
                has_cycle = has_hamiltonian_cycle(g, oracle_cap)
            except CapacityError:
                has_cycle = None
            row = RemarkRow(
                r=r, s=s, n=g.n,
                f_at_n_minus_2=(2 * r - 1) * (r - 1) - s,
                g_at_2n_minus_4=4 * (r - 1) ** 2 - 2 * s,
                mu=t42.lhs, gamma=t41.lhs,
                mu_below=t42.status is CriterionStatus.NOT_SATISFIED,
                gamma_above=t41.status is CriterionStatus.SATISFIED,
                oracle_has_cycle=has_cycle,
            )
            if not (row.f_at_n_minus_2 > 0 and row.g_at_2n_minus_4 <= 0
                    and row.mu_below and row.gamma_above):
                raise RuntimeError(f"sign conditions failed at r={r}, s={s}: {row}")
            rows.append(row)
    if not rows:
        raise ValueError("no r values to scan")
    return rows


def canonical_graph6(g: Graph) -> str:
    """Minimum graph6 string over all vertex relabelings (n <= 7 only).

    Brute-force canonical form for deduplication and recognizer tests; not
    a general isomorphism engine.
    """
    if g.n > ENUMERATION_CAP:
        raise CapacityError(f"canonical form capped at order {ENUMERATION_CAP}")
    return min(write_graph6(g.relabel(perm)) for perm in permutations(range(g.n)))
