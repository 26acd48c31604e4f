"""The six spectral criteria with exception-family recognition.

Each criterion compares one spectral radius (of the graph or its
complement) against an order-dependent threshold and, when satisfied,
predicts a Hamiltonian property unless the graph matches the criterion's
exceptional family.  The criteria are rows of one table (`_CRITERIA`).
A margin's side of zero is `spectral._sign`'s, so rounding can never
manufacture a prediction: a strict tier needs a positive margin, a
non-strict one accepts a tie, and a tie that fires no tier is Boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ._report import Report
from .graph import Graph
from .hamilton import _PROPERTIES, HamiltonProfile, Prediction, _Property
from .spectral import _sign, adjacency_spectral_radius, signless_spectral_radius
from . import recognizers


class CriterionId(Enum):
    T31_AdjacencyHC = "T31_AdjacencyHC"
    T32_ComplementAdjacencyHC = "T32_ComplementAdjacencyHC"
    T33_SignlessHC = "T33_SignlessHC"
    T34_ComplementSignlessHC = "T34_ComplementSignlessHC"
    T41_SignlessPathCycle = "T41_SignlessPathCycle"
    T42_AdjacencyPathCycle = "T42_AdjacencyPathCycle"


class CriterionStatus(Enum):
    SATISFIED = "Satisfied"
    NOT_SATISFIED = "NotSatisfied"
    BOUNDARY = "Boundary"


class FamilyTag(Enum):
    CLIQUE_PLUS_ISOLATED = "CliquePlusIsolated"
    CLIQUE_PLUS_PENDANT = "CliquePlusPendant"
    CLIQUE_PLUS_TWO_EDGES = "CliquePlusTwoEdges"
    JOIN_OF_TWO_CLIQUES = "JoinOfTwoCliques"
    BALANCED_COMPLETE_BIPARTITE = "BalancedCompleteBipartite"
    REGULAR_JOIN_CLIQUE = "RegularJoinClique"


_RECOGNIZER_BY_TAG = {
    FamilyTag.CLIQUE_PLUS_ISOLATED: recognizers.is_clique_plus_isolated,
    FamilyTag.CLIQUE_PLUS_PENDANT: recognizers.is_clique_plus_pendant,
    FamilyTag.CLIQUE_PLUS_TWO_EDGES: recognizers.is_clique_plus_two_edges,
    FamilyTag.JOIN_OF_TWO_CLIQUES: recognizers.is_join_of_two_cliques,
    FamilyTag.BALANCED_COMPLETE_BIPARTITE: recognizers.is_balanced_complete_bipartite,
    FamilyTag.REGULAR_JOIN_CLIQUE: recognizers.is_regular_join_clique,
}


@dataclass(frozen=True)
class CriterionVerdict(Report):
    criterion: CriterionId
    lhs: float
    threshold: float
    status: CriterionStatus
    predicted: Prediction
    exception: FamilyTag | None


@dataclass(frozen=True)
class _Tier:
    """One prediction a criterion issues once its margin clears the tier."""

    strict: bool                  # a tie does not fire the tier
    min_order: int
    predicted: Prediction
    tags: tuple[FamilyTag, ...]   # exception families, in reporting order
    withdraws: bool = False       # a matched tag withdraws the prediction


@dataclass(frozen=True)
class _Criterion:
    """Fires when the radius of g exceeds the order-n threshold, or with
    `of_complement` when the radius of its complement falls below it."""

    signless: bool                # gamma, else mu
    of_complement: bool
    threshold: Callable[[int], float]
    min_order: int
    tiers: tuple[_Tier, ...]      # strongest first
    # fewest edges at which it can fire: with fewer, a bound on the radius in n
    # and m alone (Stanley 1987 for mu, Feng and Yu 2009 for gamma, the average
    # degree for a complement's) keeps it off; C(n-1, 2) + r means edge surplus r
    min_edges: Callable[[int], int]


_HC = Prediction.HAMILTON_CONNECTED
_PATH_CYCLE = (
    _Tier(True, 3, Prediction.HAMILTONIAN_CYCLE, (FamilyTag.CLIQUE_PLUS_PENDANT,)),
    _Tier(False, 1, Prediction.HAMILTONIAN_PATH, (FamilyTag.CLIQUE_PLUS_ISOLATED,)),
)

_CRITERIA = {
    CriterionId.T31_AdjacencyHC: _Criterion(
        signless=False, of_complement=False, min_order=1,
        threshold=lambda n: -0.5 + math.sqrt((n - 1.5) ** 2 + 2),
        tiers=(_Tier(True, 1, _HC, (FamilyTag.CLIQUE_PLUS_TWO_EDGES,)),),
        min_edges=lambda n: math.comb(n - 1, 2) + 1),  # mu <= -1/2 + sqrt(2m + 1/4)
    CriterionId.T32_ComplementAdjacencyHC: _Criterion(
        signless=False, of_complement=True, min_order=4,
        threshold=lambda n: math.sqrt((n - 2) ** 2 / n),
        tiers=(_Tier(True, 1, _HC, ()),),
        # mu(complement) >= 2m'/n, m' = C(n, 2) - m, fires only if 4m'^2 <= n(n-2)^2
        min_edges=lambda n: math.comb(n, 2) - math.isqrt(n * (n - 2) ** 2) // 2),
    # the threshold's 2/(n-1) term is undefined at n = 1
    CriterionId.T33_SignlessHC: _Criterion(
        signless=True, of_complement=False, min_order=2,
        threshold=lambda n: 2 * (n - 2) + 2 / (n - 1),
        tiers=(_Tier(True, 1, _HC, (FamilyTag.CLIQUE_PLUS_TWO_EDGES,)),),
        min_edges=lambda n: math.comb(n - 1, 2) + 1),  # gamma <= 2m/(n-1) + n - 2
    # the split families void the hypothesis rather than excuse a prediction
    CriterionId.T34_ComplementSignlessHC: _Criterion(
        signless=True, of_complement=True, min_order=6,
        threshold=lambda n: float(n - 2),
        tiers=(_Tier(False, 1, _HC, (FamilyTag.JOIN_OF_TWO_CLIQUES,
                                     FamilyTag.BALANCED_COMPLETE_BIPARTITE,
                                     FamilyTag.REGULAR_JOIN_CLIQUE), withdraws=True),),
        min_edges=lambda n: math.comb(n, 2) - n * (n - 2) // 4),  # gamma(complement) >= 4m'/n
    CriterionId.T41_SignlessPathCycle: _Criterion(
        signless=True, of_complement=False, min_order=1,
        threshold=lambda n: float(2 * (n - 2)), tiers=_PATH_CYCLE,
        min_edges=lambda n: math.comb(n - 1, 2)),  # gamma <= 2m/(n-1) + n - 2
    CriterionId.T42_AdjacencyPathCycle: _Criterion(
        signless=False, of_complement=False, min_order=1,
        threshold=lambda n: float(n - 2), tiers=_PATH_CYCLE,
        min_edges=lambda n: math.comb(n - 1, 2)),  # mu <= -1/2 + sqrt(2m + 1/4)
}


def criterion_threshold(criterion: CriterionId, n: int) -> float:
    """The order-n threshold the criterion's spectral radius is compared to."""
    return _CRITERIA[criterion].threshold(n)


def criterion_order_minimum(criterion: CriterionId) -> int:
    return _CRITERIA[criterion].min_order


def _check_args(criterion: CriterionId, n: int, shift: float) -> None:
    minimum = _CRITERIA[criterion].min_order
    if n < minimum:
        raise ValueError(f"{criterion.value} requires order >= {minimum}, got {n}")
    if not math.isfinite(shift):  # a NaN shift would make every margin a tie
        raise ValueError(f"threshold shift must be finite, got {shift}")


def recognize_exception(g: Graph) -> set[FamilyTag]:
    """All exception families the graph structurally matches (label-free)."""
    return {tag for tag, check in _RECOGNIZER_BY_TAG.items() if check(g)}


def apply_criterion(g: Graph, criterion: CriterionId, *,
                    threshold_shift: float = 0.0) -> CriterionVerdict:
    """Evaluate one criterion on g.

    The first tier the margin clears gives Satisfied with its prediction and
    the first exception family that matches; a tie (`_sign(margin) == 0`)
    that clears no tier gives Boundary.  The cycle tier of the path/cycle
    criteria needs n >= 3 (no smaller graph has a cycle).

    `threshold_shift` is a fault-injection hook for harness self-tests only:
    it is added to the threshold before comparison, so a negative shift makes
    a greater-than criterion fire on graphs it should not.  It must be finite.
    """
    _check_args(criterion, g.n, threshold_shift)
    spec = _CRITERIA[criterion]
    threshold = spec.threshold(g.n) + threshold_shift
    radius = signless_spectral_radius if spec.signless else adjacency_spectral_radius
    lhs = radius(g, spec.of_complement)
    side = _sign(threshold - lhs if spec.of_complement else lhs - threshold)
    for tier in spec.tiers:
        if g.n >= tier.min_order and (side > 0 if tier.strict else side >= 0):
            exception = next((tag for tag in tier.tags if _RECOGNIZER_BY_TAG[tag](g)), None)
            predicted = (Prediction.NO_PREDICTION if exception and tier.withdraws
                         else tier.predicted)
            return CriterionVerdict(criterion, lhs, threshold, CriterionStatus.SATISFIED,
                                    predicted, exception)
    status = CriterionStatus.BOUNDARY if side == 0 else CriterionStatus.NOT_SATISFIED
    return CriterionVerdict(criterion, lhs, threshold, status, Prediction.NO_PREDICTION, None)


def _claim(verdict: CriterionVerdict) -> _Property | None:
    """The row of `hamilton`'s property table the oracle must confirm for the
    verdict to be sound: none if it names an exception or predicts nothing."""
    return None if verdict.exception is not None else _PROPERTIES.get(verdict.predicted)


def verdict_is_sound(g: Graph, verdict: CriterionVerdict,
                     oracle: HamiltonProfile) -> bool:
    """A verdict is sound when it predicts nothing, names an exception, or
    the exact oracle confirms the predicted property."""
    claim = _claim(verdict)
    return claim is None or getattr(oracle, claim.field)
