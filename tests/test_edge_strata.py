"""The edge-count window of `validate`.

In both modes, a corpus mask with fewer bits set than its criterion's
`min_edges(n)` is counted as a NotSatisfied graph without being built.  The
reports pinned here were computed by the sweep that scored every graph, so
the window must leave them unchanged (elapsed time aside); the other tests
check the rule against `apply_criterion` and the float radius bounds, and
which graphs the sweep builds, in which order."""

import json
import math
from pathlib import Path

import pytest

from hamspec import (
    CriterionId,
    CriterionStatus,
    ValidationMode,
    apply_criterion,
    criterion_order_minimum,
    criterion_threshold,
    enumerate_labeled,
    sample_random,
    validate,
)
from hamspec import certify, harness
from hamspec.graph import _edge_mask
from hamspec.spectral import TOLERANCE

PINS = json.loads((Path(__file__).parent / "data" / "validate_pins.json").read_text())


def _fields(report) -> dict:
    fields = report.to_json_dict()
    fields.pop("elapsed_ms")
    return fields


def test_exhaustive_t42_order_seven_report_is_pinned():
    report = validate(CriterionId.T42_AdjacencyPathCycle, [7])
    assert _fields(report) == PINS["exhaustive"]["T42_AdjacencyPathCycle/7"]


@pytest.mark.parametrize("p", [0.5, 0.9])
@pytest.mark.parametrize("criterion", list(CriterionId), ids=lambda c: c.value.split("_")[0])
def test_random_mode_reports_are_pinned(criterion, p):
    """At p = 0.5 nearly every draw lies below its criterion's edge window, so
    a miscounted `graphs_checked` shows here."""
    report = validate(criterion, range(8, 13), ValidationMode.RANDOM_SAMPLE,
                      samples=20, p=p, seed=101)
    assert _fields(report) == PINS["random"][f"{criterion.value}/{p}"]


def _min_edges(criterion, n):
    return certify._CRITERIA[criterion].min_edges(n)


@pytest.mark.parametrize("criterion", list(CriterionId), ids=lambda c: c.value.split("_")[0])
def test_graphs_below_the_edge_window_are_not_satisfied(criterion):
    """Every labeled graph the sweep skips gets NotSatisfied, never Boundary."""
    for n in range(criterion_order_minimum(criterion), 7):
        lo = _min_edges(criterion, n)
        skipped = [g for g in enumerate_labeled(n) if g.edge_count < lo]
        statuses = {apply_criterion(g, criterion).status for g in skipped}
        assert statuses == ({CriterionStatus.NOT_SATISFIED} if skipped else set()), n


def _radius_bound(criterion, n, m):
    """A bound on the criterion's radius from n and m alone: an upper bound
    on mu (Stanley) or gamma (Feng and Yu) of G, or a lower bound on those of
    the complement by its average degree."""
    spec = certify._CRITERIA[criterion]
    if spec.of_complement:
        return (4 if spec.signless else 2) * (math.comb(n, 2) - m) / n
    return 2 * m / (n - 1) + n - 2 if spec.signless else -0.5 + math.sqrt(2 * m + 0.25)


@pytest.mark.parametrize("criterion", list(CriterionId), ids=lambda c: c.value.split("_")[0])
def test_min_edges_is_the_float_bound_rule(criterion):
    """m < min_edges(n) exactly when the float bound lies strictly on the side
    of the threshold where the criterion cannot fire, beyond the tie band, at
    every (n, m) to order 62.  Where it skips, the bound misses the threshold
    by far more than the band; at m = min_edges(n) it often meets it exactly."""
    spec = certify._CRITERIA[criterion]
    first = max(spec.min_order, 2 if spec.signless and not spec.of_complement else 1)
    if first > spec.min_order:  # Feng and Yu's bound needs n >= 2; K1 has no edge to skip
        assert _min_edges(criterion, 1) <= 0
    gaps = []
    for n in range(first, 63):
        threshold = criterion_threshold(criterion, n)
        for m in range(math.comb(n, 2) + 1):
            bound = _radius_bound(criterion, n, m)
            gap = bound - threshold if spec.of_complement else threshold - bound
            assert (m < _min_edges(criterion, n)) == (gap > TOLERANCE), (n, m)
            if gap > TOLERANCE:
                gaps.append(gap)
    assert min(gaps) > 1e-3


def _counting_constructions(monkeypatch):
    built = []
    original = harness.graph_from_edge_mask

    def counted(n, mask):
        built.append(mask)
        return original(n, mask)

    monkeypatch.setattr(harness, "graph_from_edge_mask", counted)
    return built


@pytest.mark.parametrize("criterion", list(CriterionId), ids=lambda c: c.value.split("_")[0])
def test_only_graphs_in_the_edge_window_are_built(criterion, monkeypatch):
    """The masks built are exactly the corpus masks inside the window, in
    corpus order: the in-window labeled masks as `enumerate_labeled` yields
    them, and the in-window draws in draw order."""
    n = max(criterion_order_minimum(criterion), 5)
    labeled = [_edge_mask(g.rows) for g in enumerate_labeled(n)]
    drawn = [_edge_mask(g.rows) for g in sample_random(9, 0.8, 40, 3)]
    built = _counting_constructions(monkeypatch)
    lo = _min_edges(criterion, n)
    assert validate(criterion, [n]).graphs_checked == len(labeled)
    assert built == [mask for mask in labeled if mask.bit_count() >= lo]
    built.clear()
    report = validate(criterion, [9], ValidationMode.RANDOM_SAMPLE, samples=40, p=0.8, seed=3)
    assert report.graphs_checked == 40
    assert built == [mask for mask in drawn if mask.bit_count() >= _min_edges(criterion, 9)]


@pytest.mark.parametrize("shift", [-1.0, 1e-3])
def test_a_shifted_threshold_scores_every_graph(shift, monkeypatch):
    built = _counting_constructions(monkeypatch)
    validate(CriterionId.T33_SignlessHC, [5], threshold_shift=shift)
    assert sorted(built) == list(range(1 << 10))
    built.clear()
    validate(CriterionId.T33_SignlessHC, [9], ValidationMode.RANDOM_SAMPLE,
             samples=30, p=0.5, seed=2, threshold_shift=shift)
    assert len(built) == 30
