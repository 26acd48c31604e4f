import json
import math
from functools import lru_cache

import pytest

from hamspec import (
    CapacityError,
    CriterionId,
    Lcg,
    ValidationMode,
    apply_criterion,
    canonical_graph6,
    complete,
    complete_bipartite,
    criterion_order_minimum,
    cycle,
    enumerate_labeled,
    hamilton_profile,
    merge_reports,
    parse_graph6,
    random_regular,
    remark_scan,
    sample_random,
    triangle_pairs,
    validate,
    validate_closure_equivalence,
    verdict_is_sound,
    write_graph6,
)
from hamspec import harness
from hamspec.harness import admissible_remark_window

from support import complete_split, largest_root_bisect

T33 = CriterionId.T33_SignlessHC
T41 = CriterionId.T41_SignlessPathCycle
T42 = CriterionId.T42_AdjacencyPathCycle


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(5)) == 1024
    with pytest.raises(CapacityError):
        next(enumerate_labeled(8))
    with pytest.raises(ValueError, match="order must be in 1..62"):
        enumerate_labeled(0)  # at the call, not at the first draw


def test_enumeration_order_is_edge_mask_order():
    graphs = list(enumerate_labeled(4))
    assert graphs[0].edge_count == 0
    assert graphs[1].has_edge(0, 1)  # bit 0 is the (0, 1) pair
    assert graphs[-1] == complete(4)
    assert triangle_pairs(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_edge_mask_bit_i_is_pair_i():
    for n in range(1, 6):
        pairs = triangle_pairs(n)
        for mask in range(1 << len(pairs)):
            g = harness.graph_from_edge_mask(n, mask)
            assert set(g.edges()) == {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
    with pytest.raises(ValueError):
        harness.graph_from_edge_mask(1 << 62, 0)  # rejected before any row is allocated


def test_labeled_graphs_on_four_vertices_fall_into_eleven_classes():
    classes = {canonical_graph6(g) for g in enumerate_labeled(4)}
    assert len(classes) == 11


def test_lcg_is_deterministic_and_documented():
    a = Lcg(42)
    b = Lcg(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = Lcg(0)
    assert c.next_u64() == 1442695040888963407  # increment alone on a zero seed


def test_sample_random_extremes():
    for g in sample_random(10, 0.0, 5, seed=3):
        assert g.edge_count == 0
    (g,) = sample_random(10, 1.0, 1, seed=3)
    assert g == complete(10)


def test_sample_random_mean_edge_count():
    total = sum(g.edge_count for g in sample_random(8, 0.5, 1000, seed=42))
    mean = total / 1000
    sigma_mean = math.sqrt(28 * 0.25 / 1000)
    assert abs(mean - 14) < 3 * sigma_mean


def test_sample_random_is_reproducible():
    a = [g for g in sample_random(9, 0.4, 10, seed=7)]
    b = [g for g in sample_random(9, 0.4, 10, seed=7)]
    assert a == b


@pytest.mark.parametrize("count", [0, -3])
def test_sample_random_rejects_a_count_below_one(count):
    with pytest.raises(ValueError, match="at least one sample"):
        sample_random(6, 0.5, count, seed=1)  # at the call, before any draw


def test_random_regular_degrees_and_determinism():
    g = random_regular(9, 4, seed=5)
    assert g.degrees() == [4] * 9
    assert g == random_regular(9, 4, seed=5)
    with pytest.raises(ValueError):
        random_regular(9, 3, seed=5)  # odd product


def test_validate_t42_exhaustive_order_five():
    rep = validate(T42, [5])
    assert rep.graphs_checked == 1024
    assert rep.violations == ()
    assert rep.predictions_issued > 0
    assert rep.passed


def test_validate_reports_are_deterministic():
    a = validate(T42, [4, 5]).to_json_dict()
    b = validate(T42, [4, 5]).to_json_dict()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_partitioned_run_merges_to_the_serial_report():
    whole = validate(T42, [4, 5]).to_json_dict()
    merged = merge_reports([validate(T42, [4]), validate(T42, [5])]).to_json_dict()
    whole.pop("elapsed_ms"), merged.pop("elapsed_ms")
    assert whole == merged


def test_validate_random_mode_is_seeded():
    a = validate(T42, [8], ValidationMode.RANDOM_SAMPLE, samples=100, p=0.4, seed=11)
    b = validate(T42, [8], ValidationMode.RANDOM_SAMPLE, samples=100, p=0.4, seed=11)
    assert a.graphs_checked == b.graphs_checked == 100
    assert a.violations == b.violations == ()


def test_validate_random_mode_larger_orders_sound():
    for criterion in (CriterionId.T31_AdjacencyHC, CriterionId.T32_ComplementAdjacencyHC,
                      CriterionId.T41_SignlessPathCycle):
        rep = validate(criterion, [10], ValidationMode.RANDOM_SAMPLE,
                       samples=100, p=0.7, seed=23)
        assert rep.graphs_checked == 100
        assert rep.violations == ()


def test_corrupted_threshold_is_detected():
    """Lowering the signless threshold must manufacture unsound predictions;
    the harness has to notice rather than rubber-stamp."""
    rep = validate(T33, [5], threshold_shift=-1.0)
    assert len(rep.violations) > 0
    assert not rep.passed
    assert rep.violations == tuple(sorted(rep.violations))


@pytest.mark.parametrize("shift", [math.nan, math.inf])
def test_validate_rejects_a_non_finite_shift_before_any_graph(monkeypatch, shift):
    monkeypatch.setattr(harness, "graph_from_edge_mask", _no_graph)
    with pytest.raises(ValueError, match="finite"):
        validate(T42, [5], threshold_shift=shift)


@lru_cache(maxsize=None)
def _labeled_profiles(n):
    return tuple((g, hamilton_profile(g)) for g in enumerate_labeled(n))


def _unsound(criterion, n, shift=0.0):
    """Predicted property -> graph6 strings of the order-n labeled graphs
    whose verdict `verdict_is_sound` rejects against the full profile."""
    unsound = {}
    for g, profile in _labeled_profiles(n):
        v = apply_criterion(g, criterion, threshold_shift=shift)
        if not verdict_is_sound(g, v, profile):
            unsound.setdefault(v.predicted.value, []).append(write_graph6(g))
    return unsound


@pytest.mark.parametrize("criterion", list(CriterionId), ids=lambda c: c.value.split("_")[0])
def test_validate_violations_are_the_unsound_verdicts(criterion):
    """`validate`, which runs one early-stopping oracle view per claim, and
    `verdict_is_sound` over the full profile flag the same graphs."""
    for n in range(criterion_order_minimum(criterion), 7):
        unsound = _unsound(criterion, n)
        assert validate(criterion, [n]).violations == tuple(sorted(
            v for graphs in unsound.values() for v in graphs)), n


# (criterion, order) -> predicted property -> unsound verdicts once the
# threshold is lowered by one; no unshifted path or cycle claim of T42 fails
_SHIFTED_UNSOUND = {
    (T41, 5): {"HamiltonianCycle": 210, "HamiltonianPath": 5},
    (T41, 6): {"HamiltonianCycle": 1641},
    (T42, 5): {"HamiltonianCycle": 460, "HamiltonianPath": 40},
    (T42, 6): {"HamiltonianCycle": 4461, "HamiltonianPath": 90},
}


@pytest.mark.parametrize("criterion, n", list(_SHIFTED_UNSOUND),
                         ids=lambda x: getattr(x, "value", str(x)).split("_")[0])
def test_shifted_path_and_cycle_claims_are_caught(criterion, n):
    unsound = _unsound(criterion, n, shift=-1.0)
    assert {p: len(graphs) for p, graphs in unsound.items()} == _SHIFTED_UNSOUND[criterion, n]
    assert validate(criterion, [n], threshold_shift=-1.0).violations == tuple(sorted(
        v for graphs in unsound.values() for v in graphs))


def test_validate_rejects_oversize_orders():
    with pytest.raises(CapacityError):
        validate(T42, [21])
    with pytest.raises(CapacityError):
        validate(T42, [8], ValidationMode.EXHAUSTIVE_LABELED)


def _no_graph(n, mask):
    raise AssertionError("a graph was built before the corpus was checked")


@pytest.mark.parametrize("run", [validate_closure_equivalence,
                                 lambda *a, **k: validate(T42, *a, **k)])
def test_empty_corpora_are_rejected(run, monkeypatch):
    """A sweep that would check no graph must not report a pass."""
    with pytest.raises(ValueError, match="no orders"):
        run([])
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            run([6], ValidationMode.RANDOM_SAMPLE, samples=samples)
    with monkeypatch.context() as m:
        m.setattr(harness, "graph_from_edge_mask", _no_graph)
        with pytest.raises(CapacityError):  # order 8 is over the enumeration cap
            run([6, 8])
        with pytest.raises(ValueError, match=">= 1"):
            run([6, 0])
        with pytest.raises(ValueError, match="order >= 6"):  # T34's minimum order
            validate(CriterionId.T34_ComplementSignlessHC, [6, 5])
    assert run([4], samples=0).graphs_checked == 64  # exhaustive mode ignores samples


def test_closure_equivalence_exhaustive_small():
    rep = validate_closure_equivalence([4])
    assert rep.graphs_checked == 64
    assert rep.violations == ()


def test_closure_equivalence_random_order_nine():
    rep = validate_closure_equivalence([9], ValidationMode.RANDOM_SAMPLE,
                                       samples=60, p=0.4, seed=19)
    assert rep.graphs_checked == 60
    assert rep.violations == ()


def test_remark_window():
    assert list(admissible_remark_window(2)) == [2]
    assert list(admissible_remark_window(3)) == [8, 9]
    assert list(admissible_remark_window(4)) == [18, 19, 20]


def test_remark_rows_exact_columns():
    rows = remark_scan([2, 3])
    assert [(r.r, r.s, r.n) for r in rows] == [(2, 2, 6), (3, 8, 14), (3, 9, 15)]
    by_rs = {(r.r, r.s): r for r in rows}
    assert by_rs[(2, 2)].f_at_n_minus_2 == 1 and by_rs[(2, 2)].g_at_2n_minus_4 == 0
    assert by_rs[(3, 8)].f_at_n_minus_2 == 2 and by_rs[(3, 8)].g_at_2n_minus_4 == 0
    assert by_rs[(3, 9)].f_at_n_minus_2 == 1 and by_rs[(3, 9)].g_at_2n_minus_4 == -2
    for row in rows:
        assert row.mu_below and row.gamma_above
        assert row.oracle_has_cycle is (True if row.n <= 20 else None)
    with pytest.raises(ValueError, match="no r values"):
        remark_scan([])


def test_remark_radii_match_quadratic_roots():
    """The scan's spectral radii must be the largest roots of the two
    quadratics, found independently by bisection from the parabola vertex."""
    for row in remark_scan([2, 3, 4]):
        r, s = row.r, row.s

        def f(x):
            return (x - (r - 1)) * (x - (s - 1)) - 2 * r * s

        def g(x):
            return (x - (2 * r + s - 2)) * (x - (2 * r + 2 * s - 2)) - 2 * r * s

        mu_root = largest_root_bisect(f, vertex=(r + s - 2) / 2, hi=4 * row.n)
        gamma_root = largest_root_bisect(g, vertex=(4 * r + 3 * s - 4) / 2, hi=4 * row.n)
        assert abs(row.mu - mu_root) <= 1e-6
        assert abs(row.gamma - gamma_root) <= 1e-6


def test_remark_oracle_column_respects_cap():
    rows = remark_scan([4], oracle_cap=20)
    assert all(row.oracle_has_cycle is None for row in rows)  # orders 26..28
    with pytest.raises(ValueError, match="24"):
        remark_scan([2], oracle_cap=25)


def test_canonical_form_is_label_invariant():
    g = complete_bipartite(2, 3)
    perm = [4, 2, 0, 3, 1]
    assert canonical_graph6(g) == canonical_graph6(g.relabel(perm))
    with pytest.raises(CapacityError):
        canonical_graph6(complete(8))


def test_report_schema():
    rep = validate(T42, [4])
    d = rep.to_json_dict()
    assert set(d) == {"criterion", "orders", "mode", "graphs_checked", "predictions_issued",
                      "exceptions_matched", "violations", "boundary_cases", "elapsed_ms"}
    assert d["criterion"] == "T42_AdjacencyPathCycle"
    assert d["mode"] == "exhaustive"


def test_exhaustive_t33_order_six_pins_the_split_graph_counterexample():
    """The full order-six sweep finds exactly the twenty labelings of the
    complete split graph on 3+3: it passes the signless threshold, is not
    the clique-plus-two-edges exception, and is not Hamilton-connected.
    This is a genuine gap in the single-exception form of the criterion."""
    rep = validate(T33, [6])
    assert rep.graphs_checked == 32768
    assert len(rep.violations) == 20
    split = canonical_graph6(complete_split(3, 3))
    assert {canonical_graph6(parse_graph6(v)) for v in rep.violations} == {split}


def test_exhaustive_t34_order_six_pins_boundary_counterexamples():
    """At the equality boundary of the complement-signless criterion the
    sweep finds four classes whose complements pad a radius-four component
    (a 3-leaf star, a square, or a triangle) with extra small components;
    none is in the exception set and none is Hamilton-connected."""
    from hamspec import complement, disjoint_union, from_edges, path, star

    expected = {
        canonical_graph6(complement(disjoint_union(star(4), complete(2)))),
        canonical_graph6(complement(disjoint_union(cycle(4), complete(2)))),
        canonical_graph6(complement(
            disjoint_union(disjoint_union(complete(3), complete(2)), from_edges(1, [])))),
        canonical_graph6(complement(disjoint_union(complete(3), path(3)))),
    }
    rep = validate(CriterionId.T34_ComplementSignlessHC, [6])
    assert rep.graphs_checked == 32768
    assert len(rep.violations) == 225
    assert {canonical_graph6(parse_graph6(v)) for v in rep.violations} == expected


def test_t41_small_order_pins_the_split_graph_counterexamples():
    """The independent-triple-joined-to-a-clique family defeats the signless
    path/cycle criterion at the two smallest orders: the 3-leaf star at
    order four sits exactly on the non-strict threshold with no spanning
    path, and the order-five member passes the strict threshold with no
    spanning cycle.  (At order six the same family moves up to defeat the
    Hamilton-connectivity criterion instead, and from order seven on it is
    Hamilton-connected.)  The adjacency twin is immune: its radius stays at
    or below n-2 on this family."""
    rep = validate(CriterionId.T41_SignlessPathCycle, [4])
    assert len(rep.violations) == 4
    assert {canonical_graph6(parse_graph6(v)) for v in rep.violations} == {
        canonical_graph6(complete_split(3, 1))}

    rep = validate(CriterionId.T41_SignlessPathCycle, [5])
    assert len(rep.violations) == 10
    assert {canonical_graph6(parse_graph6(v)) for v in rep.violations} == {
        canonical_graph6(complete_split(3, 2))}

    for order in (4, 5, 6):
        rep = validate(CriterionId.T42_AdjacencyPathCycle, [order])
        assert rep.violations == ()


def test_t34_boundary_counterexamples_generalize():
    """The star-plus-edge complement pattern defeats the boundary case at
    every order: gamma of the complement equals n-2 exactly, no exception
    family matches, yet the two neighbors of the degree-2 vertex admit no
    spanning path between them."""
    from hamspec import (
        apply_criterion,
        complement,
        disjoint_union,
        is_hamilton_connected,
        recognize_exception,
        signless_spectral_radius,
        star,
    )
    from hamspec.certify import Prediction

    for n in range(7, 13):
        g = complement(disjoint_union(star(n - 2), complete(2)))
        assert abs(signless_spectral_radius(complement(g)) - (n - 2)) < 1e-9
        assert recognize_exception(g) == set()
        v = apply_criterion(g, CriterionId.T34_ComplementSignlessHC)
        assert v.predicted is Prediction.HAMILTON_CONNECTED
        assert not is_hamilton_connected(g)


def test_sample_random_rejects_order_and_p_at_the_call():
    with pytest.raises(ValueError):
        sample_random(63, 0.5, 1, 1)
    with pytest.raises(ValueError):
        sample_random(5, 1.5, 1, 1)


def test_random_regular_rejects_the_order_before_pairing(monkeypatch):
    def no_shuffle(self, items):
        raise AssertionError("pairing started before the order was checked")

    monkeypatch.setattr(harness.Lcg, "shuffle", no_shuffle)
    with pytest.raises(ValueError):
        random_regular(64, 2, 1)
