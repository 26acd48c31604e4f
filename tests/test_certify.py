import math
import random
from collections import Counter
from itertools import permutations

import pytest

from hamspec import (
    CriterionId,
    CriterionStatus,
    CriterionVerdict,
    FamilyTag,
    Graph,
    HamiltonProfile,
    Prediction,
    adjacency_spectral_radius,
    apply_criterion,
    balanced_bipartite_minus_matching,
    clique_plus_isolated,
    clique_plus_pendant,
    clique_plus_two_edges,
    complement,
    complete,
    complete_bipartite,
    criterion_order_minimum,
    criterion_threshold,
    cycle,
    disjoint_union,
    enumerate_labeled,
    from_edges,
    hamilton_profile,
    join_of_two_cliques,
    path,
    random_regular,
    recognize_exception,
    regular_join_clique,
    signless_spectral_radius,
    star,
    verdict_is_sound,
    write_graph6,
)
from hamspec import recognizers

from support import (
    degree_preserving_rewire,
    prism,
    random_graph,
    regular_or_semiregular_reference,
    structured_family_graphs,
)
from verify_family import verify_family_member

T31 = CriterionId.T31_AdjacencyHC
T32 = CriterionId.T32_ComplementAdjacencyHC
T33 = CriterionId.T33_SignlessHC
T34 = CriterionId.T34_ComplementSignlessHC
T41 = CriterionId.T41_SignlessPathCycle
T42 = CriterionId.T42_AdjacencyPathCycle


def test_thresholds_frozen_values():
    assert criterion_threshold(T31, 6) == pytest.approx(4.2169905660283015, abs=1e-12)
    assert criterion_threshold(T32, 6) == pytest.approx(math.sqrt(16 / 6), abs=1e-12)
    assert criterion_threshold(T33, 6) == pytest.approx(8.4, abs=1e-12)
    assert criterion_threshold(T34, 6) == 4.0
    assert criterion_threshold(T41, 6) == 8.0
    assert criterion_threshold(T42, 6) == 4.0


def test_order_preconditions():
    with pytest.raises(ValueError):
        apply_criterion(complete(3), T32)
    with pytest.raises(ValueError):
        apply_criterion(complete(5), T34)
    with pytest.raises(ValueError):
        apply_criterion(complete(1), T33)


def test_complete_graph_t42():
    v = apply_criterion(complete(6), T42)
    assert v.lhs == pytest.approx(5, abs=1e-9)
    assert v.threshold == 4.0
    assert v.status is CriterionStatus.SATISFIED
    assert v.predicted is Prediction.HAMILTONIAN_CYCLE
    assert v.exception is None


def test_balanced_bipartite_t34_boundary_equality_is_satisfied():
    v = apply_criterion(complete_bipartite(3, 3), T34)
    assert v.lhs == pytest.approx(4, abs=1e-9)
    assert v.threshold == 4.0
    assert v.status is CriterionStatus.SATISFIED
    assert v.predicted is Prediction.NO_PREDICTION
    assert v.exception is FamilyTag.BALANCED_COMPLETE_BIPARTITE


def test_near_complete_family_verdicts():
    k5v, k5e, k5ee = clique_plus_isolated(6), clique_plus_pendant(6), clique_plus_two_edges(6)

    # spectral radius of the clique-plus-two-edges graph sits just below the
    # adjacency threshold at order six, so T31 never reaches its exception
    v = apply_criterion(k5ee, T31)
    assert v.status is CriterionStatus.NOT_SATISFIED
    assert v.lhs == pytest.approx(4.20147233821924, abs=1e-8)

    v = apply_criterion(k5ee, T33)
    assert v.status is CriterionStatus.SATISFIED
    assert v.predicted is Prediction.HAMILTON_CONNECTED
    assert v.exception is FamilyTag.CLIQUE_PLUS_TWO_EDGES

    for crit in (T41, T42):
        v = apply_criterion(k5v, crit)
        assert v.status is CriterionStatus.SATISFIED
        assert v.predicted is Prediction.HAMILTONIAN_PATH
        assert v.exception is FamilyTag.CLIQUE_PLUS_ISOLATED

        v = apply_criterion(k5e, crit)
        assert v.predicted is Prediction.HAMILTONIAN_CYCLE
        assert v.exception is FamilyTag.CLIQUE_PLUS_PENDANT


def test_exact_threshold_equality_never_upgrades_to_cycle():
    # adjacency radius of the clique-plus-isolated graph equals n-2 exactly;
    # only the non-strict path clause may fire
    v = apply_criterion(clique_plus_isolated(8), T42)
    assert abs(v.lhs - v.threshold) < 1e-12
    assert v.predicted is Prediction.HAMILTONIAN_PATH


def test_strict_criterion_boundary_band():
    mu = apply_criterion(complete(6), T31).lhs
    shift = mu - criterion_threshold(T31, 6)
    v = apply_criterion(complete(6), T31, threshold_shift=shift)
    assert v.status is CriterionStatus.BOUNDARY
    assert v.predicted is Prediction.NO_PREDICTION
    assert v.exception is None


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_shift_is_rejected(shift):
    # a NaN margin would read as a tie; an infinite one ignores the radius
    with pytest.raises(ValueError, match="finite"):
        apply_criterion(complete(6), T31, threshold_shift=shift)


def test_threshold_shift_hook_direction():
    g = clique_plus_isolated(6)  # gamma = 8, T33 threshold 8.4
    assert apply_criterion(g, T33).status is CriterionStatus.NOT_SATISFIED
    v = apply_criterion(g, T33, threshold_shift=-1.0)
    assert v.status is CriterionStatus.SATISFIED
    assert v.predicted is Prediction.HAMILTON_CONNECTED


def test_complete_graphs_satisfy_all_hc_criteria():
    for n in range(3, 41):
        g = complete(n)
        assert criterion_threshold(T31, n) < n - 1
        for crit in (T31, T33):
            v = apply_criterion(g, crit)
            assert v.predicted is Prediction.HAMILTON_CONNECTED
            if n > 3:  # the triangle coincides with the clique-plus-two-edges member
                assert v.exception is None
        if n >= 4:
            v = apply_criterion(g, T32)
            assert v.predicted is Prediction.HAMILTON_CONNECTED
        if n >= 6:
            v = apply_criterion(g, T34)
            assert v.predicted is Prediction.HAMILTON_CONNECTED and v.exception is None


def test_recognize_exception_examples():
    assert recognize_exception(complete_bipartite(3, 3)) == {FamilyTag.BALANCED_COMPLETE_BIPARTITE}
    assert recognize_exception(prism()) == set()
    assert FamilyTag.JOIN_OF_TWO_CLIQUES in recognize_exception(join_of_two_cliques(6, 1))
    # the s=1 member is exactly the clique-plus-two-edges graph
    assert recognize_exception(join_of_two_cliques(6, 1)) >= {
        FamilyTag.JOIN_OF_TWO_CLIQUES, FamilyTag.CLIQUE_PLUS_TWO_EDGES}


def _family_instances(n):
    out = [
        (FamilyTag.CLIQUE_PLUS_ISOLATED, clique_plus_isolated(n)),
        (FamilyTag.CLIQUE_PLUS_PENDANT, clique_plus_pendant(n)),
        (FamilyTag.CLIQUE_PLUS_TWO_EDGES, clique_plus_two_edges(n)),
    ]
    for s in range(1, n - 2):
        out.append((FamilyTag.JOIN_OF_TWO_CLIQUES, join_of_two_cliques(n, s)))
    if n % 2 == 0:
        out.append((FamilyTag.BALANCED_COMPLETE_BIPARTITE, complete_bipartite(n // 2, n // 2)))
        for r in range(1, n // 2 + 1):
            if ((n - r) * (n // 2 - r)) % 2 == 0:
                out.append((FamilyTag.REGULAR_JOIN_CLIQUE, regular_join_clique(n, r)))
    return out


@pytest.mark.parametrize("n", range(5, 13))
def test_constructed_families_are_recognized(n):
    for tag, g in _family_instances(n):
        assert tag in recognize_exception(g), (tag, n)


@pytest.mark.parametrize("n", range(5, 13))
def test_recognition_is_label_invariant(n):
    rng = random.Random(60 + n)
    instances = _family_instances(n)
    trials = max(1, 100 // len(instances))
    for tag, g in instances:
        tags = recognize_exception(g)
        for _ in range(trials):
            perm = list(range(n))
            rng.shuffle(perm)
            assert recognize_exception(g.relabel(perm)) == tags


@pytest.mark.parametrize("n", range(5, 13))
def test_rewired_graphs_only_accepted_when_isomorphic(n):
    """Degree-preserving rewires: any fired tag must carry an isomorphism
    certificate back to the family."""
    rng = random.Random(300 + n)
    for tag, g in _family_instances(n):
        for _ in range(200):
            h = degree_preserving_rewire(g, steps=4, rng=rng)
            for fired in recognize_exception(h):
                assert verify_family_member(h, fired), (tag, fired, n)


def _constructed_members(n):
    """Each recognizer's family at order n, built by the family constructors
    over the order range its docstring states."""
    return {
        recognizers.is_complete: [complete(n)],
        recognizers.is_star: [star(n)] if n >= 2 else [],
        recognizers.is_complete_plus_isolated: [
            disjoint_union(complete(k), complement(complete(n - k))) if k < n else complete(n)
            for k in range(1, n + 1)],
        recognizers.is_clique_plus_isolated: [clique_plus_isolated(n)] if n >= 2 else [],
        recognizers.is_clique_plus_pendant: [clique_plus_pendant(n)] if n >= 2 else [],
        recognizers.is_clique_plus_two_edges: [clique_plus_two_edges(n)] if n >= 3 else [],
        recognizers.is_join_of_two_cliques: [join_of_two_cliques(n, s) for s in range(1, n - 2)],
        recognizers.is_balanced_complete_bipartite:
            [complete_bipartite(n // 2, n // 2)] if n % 2 == 0 else [],
        recognizers.is_regular_join_clique: [
            regular_join_clique(n, r) for r in range(1, n // 2 + 1)
            if n >= 4 and n % 2 == 0 and (n - r) * (n // 2 - r) % 2 == 0],
    }


# labeled orbit sizes at order six of the six exception families
_ORDER_SIX_ORBITS = {
    "is_clique_plus_isolated": 6,
    "is_clique_plus_pendant": 30,
    "is_clique_plus_two_edges": 60,
    "is_join_of_two_cliques": 105,
    "is_balanced_complete_bipartite": 10,
    "is_regular_join_clique": 137,
}


@pytest.mark.parametrize("n", range(1, 7))
def test_recognizers_match_constructed_orbits_exhaustively(n):
    """Every labeled graph of order n is accepted by a recognizer exactly
    when it is a relabeling of one of that family's constructed members."""
    orbits = {check: {write_graph6(g.relabel(p)) for g in members
                      for p in permutations(range(n))}
              for check, members in _constructed_members(n).items()}
    if n == 6:
        sizes = {check.__name__: len(orbit) for check, orbit in orbits.items()}
        assert {name: sizes[name] for name in _ORDER_SIX_ORBITS} == _ORDER_SIX_ORBITS
    wrong = [(check.__name__, s) for g in enumerate_labeled(n)
             for s in [write_graph6(g)]
             for check, orbit in orbits.items() if check(g) != (s in orbit)]
    assert wrong == []


def _subdivided_k4():
    # vertices 0-3 of degree 3, one degree-2 vertex on each of the six edges
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return from_edges(10, [e for k, (u, v) in enumerate(pairs) for e in ((u, 4 + k), (4 + k, v))])


def test_semiregular_rule_matches_two_colouring():
    """Every component with an edge is regular or bipartite semiregular,
    against a two-colouring reference: exhaustively at orders 1-6, where no
    non-regular semiregular component is larger than a star or K_{2,3}, and
    on structured and random larger graphs."""
    check = recognizers.all_nontrivial_components_regular_or_semiregular
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            assert check(g) == regular_or_semiregular_reference(g), write_graph6(g)
    k4s = _subdivided_k4()
    cases = {
        "subdivided K4": (k4s, True),
        "two subdivided K4": (disjoint_union(k4s, k4s), True),
        "subdivided K4 + C5": (disjoint_union(k4s, cycle(5)), True),
        "subdivided K4 + P3": (disjoint_union(k4s, path(3)), True),
        "subdivided K4 + P4": (disjoint_union(k4s, path(4)), False),
        "subdivided K4 with a pendant": (
            from_edges(11, [*((u, v) for u in range(10) for v in k4s.neighbors(u)), (0, 10)]),
            False),
        "C5 + P4": (disjoint_union(cycle(5), path(4)), False),
        "K5,5 minus a matching": (balanced_bipartite_minus_matching(10), True),
        "3-regular": (random_regular(16, 3, 7), True),
        "K2,4 + K3": (disjoint_union(complete_bipartite(2, 4), complete(3)), True),
    }
    for name, (g, expected) in cases.items():
        assert check(g) is expected, name
        assert regular_or_semiregular_reference(g) is expected, name
    rng = random.Random(29)
    for _ in range(400):
        g = random_graph(rng.randrange(8, 31), rng.choice((0.05, 0.1, 0.2, 0.5)), rng)
        assert check(g) == regular_or_semiregular_reference(g), write_graph6(g)


def test_complement_radii_are_read_from_the_graphs_own_rows(monkeypatch):
    """Both complement radii equal those of the built complement exactly,
    and no criterion builds a graph to reach them or its exception tags."""
    corpus = [g for n in range(1, 7) for g in enumerate_labeled(n)]
    for g in corpus:
        h = complement(g)
        assert adjacency_spectral_radius(g, of_complement=True) == adjacency_spectral_radius(h)
        assert signless_spectral_radius(g, of_complement=True) == signless_spectral_radius(h)

    def no_graph(self):
        raise AssertionError(f"a Graph of order {self.n} was built")

    monkeypatch.setattr(Graph, "__post_init__", no_graph)
    for g in corpus:
        for crit in CriterionId:
            if g.n >= criterion_order_minimum(crit):
                apply_criterion(g, crit)


def test_verdict_is_sound_gate():
    k6 = complete(6)
    v = apply_criterion(k6, T33)
    assert verdict_is_sound(k6, v, hamilton_profile(k6))

    k5ee = clique_plus_two_edges(6)
    v = apply_criterion(k5ee, T33)
    assert v.exception is not None
    assert verdict_is_sound(k5ee, v, hamilton_profile(k5ee))

    c5 = cycle(5)
    v = apply_criterion(c5, T31)
    assert v.predicted is Prediction.NO_PREDICTION
    assert verdict_is_sound(c5, v, hamilton_profile(c5))


# predicted property -> the profile field that must confirm it
_CONFIRMING_FIELD = {
    Prediction.HAMILTONIAN_PATH: "has_path",
    Prediction.HAMILTONIAN_CYCLE: "has_cycle",
    Prediction.HAMILTON_CONNECTED: "hamilton_connected",
}


@pytest.mark.parametrize("predicted", list(_CONFIRMING_FIELD), ids=lambda p: p.value)
def test_verdict_is_sound_needs_the_predicted_property(predicted):
    """A claim fails against a profile lacking only its own property, and
    passes once an exception is named or the profile has every property."""
    g = complete(5)
    full = dict(has_path=True, has_cycle=True, hamilton_connected=True,
                witness_path=None, failing_pair=None)
    lacking = HamiltonProfile(**{**full, _CONFIRMING_FIELD[predicted]: False})

    def verdict(exception):
        return CriterionVerdict(T42, 4.0, 3.0, CriterionStatus.SATISFIED, predicted, exception)

    assert not verdict_is_sound(g, verdict(None), lacking)
    assert verdict_is_sound(g, verdict(None), HamiltonProfile(**full))
    for tag in FamilyTag:
        assert verdict_is_sound(g, verdict(tag), lacking)
    for other, field in _CONFIRMING_FIELD.items():
        if other is not predicted:
            assert verdict_is_sound(g, verdict(None), HamiltonProfile(**{**full, field: False}))
    nothing = HamiltonProfile(False, False, False, None, (0, 1))
    no_claim = CriterionVerdict(T42, 2.0, 3.0, CriterionStatus.NOT_SATISFIED,
                                Prediction.NO_PREDICTION, None)
    assert verdict_is_sound(g, no_claim, nothing)


def test_t32_proof_chain_inequality():
    # sqrt(n-3) >= (n-2)/sqrt(n) for all n >= 4, the step that pins the
    # complement-adjacency threshold
    for n in range(4, 41):
        assert math.sqrt(n - 3) >= math.sqrt((n - 2) ** 2 / n) - 1e-12


def test_t32_on_small_dense_graphs():
    # complement of C_4 is a perfect matching: boundary case, no prediction
    v = apply_criterion(cycle(4), T32)
    assert v.status is CriterionStatus.BOUNDARY
    assert v.predicted is Prediction.NO_PREDICTION
    v = apply_criterion(complete(4), T32)
    assert v.status is CriterionStatus.SATISFIED


def test_verdict_serialization_schema():
    v = apply_criterion(complete(6), T34)
    d = v.to_json_dict()
    assert set(d) == {"criterion", "lhs", "threshold", "status", "predicted", "exception"}
    assert d["criterion"] == "T34_ComplementSignlessHC"
    assert d["exception"] is None


def test_every_exceptional_member_fires_and_is_tagged_under_t34():
    """All order-six members of the exceptional set satisfy the
    complement-signless threshold and are excused rather than predicted."""
    members = [join_of_two_cliques(6, s) for s in (1, 2, 3)]
    members.append(complete_bipartite(3, 3))
    members += [regular_join_clique(6, r) for r in (1, 2, 3)]
    for g in members:
        v = apply_criterion(g, T34)
        assert v.status is CriterionStatus.SATISFIED
        assert v.predicted is Prediction.NO_PREDICTION
        assert v.exception is not None


def test_t34_regression_guard_balanced_minus_matching():
    """The complement of a balanced bipartite graph minus a perfect matching
    satisfies the complement-signless criterion at its boundary, is not an
    exception family member, and really is Hamilton-connected."""
    from hamspec import is_hamilton_connected

    for n in (6, 8, 10, 12):
        g = complement(balanced_bipartite_minus_matching(n))
        v = apply_criterion(g, T34)
        assert v.status is CriterionStatus.SATISFIED
        assert v.predicted is Prediction.HAMILTON_CONNECTED
        assert v.exception is None
        assert is_hamilton_connected(g)


def test_random_graph_verdicts_sound():
    rng = random.Random(8)
    for _ in range(200):
        g = random_graph(7, rng.random(), rng)
        profile = hamilton_profile(g)
        for crit in (T31, T32, T41, T42):
            assert verdict_is_sound(g, apply_criterion(g, crit), profile)


# (criterion, status, prediction, exception) -> number of verdicts over every
# labeled graph of orders 1-5 (T34 needs order 6 and so issues none).
_VERDICT_COUNTS_ORDERS_1_TO_5 = {
    ("T31", "Boundary", "NoPrediction", None): 1,
    ("T31", "NotSatisfied", "NoPrediction", None): 1049,
    ("T31", "Satisfied", "HamiltonConnected", "CliquePlusTwoEdges"): 37,
    ("T31", "Satisfied", "HamiltonConnected", None): 12,
    ("T32", "Boundary", "NoPrediction", None): 9,
    ("T32", "NotSatisfied", "NoPrediction", None): 1052,
    ("T32", "Satisfied", "HamiltonConnected", None): 27,
    ("T33", "Boundary", "NoPrediction", None): 4,
    ("T33", "NotSatisfied", "NoPrediction", None): 1030,
    ("T33", "Satisfied", "HamiltonConnected", "CliquePlusTwoEdges"): 37,
    ("T33", "Satisfied", "HamiltonConnected", None): 27,
    ("T41", "NotSatisfied", "NoPrediction", None): 908,
    ("T41", "Satisfied", "HamiltonianCycle", "CliquePlusPendant"): 35,
    ("T41", "Satisfied", "HamiltonianCycle", None): 134,
    ("T41", "Satisfied", "HamiltonianPath", "CliquePlusIsolated"): 13,
    ("T41", "Satisfied", "HamiltonianPath", None): 9,
    ("T42", "NotSatisfied", "NoPrediction", None): 972,
    ("T42", "Satisfied", "HamiltonianCycle", "CliquePlusPendant"): 35,
    ("T42", "Satisfied", "HamiltonianCycle", None): 64,
    ("T42", "Satisfied", "HamiltonianPath", "CliquePlusIsolated"): 13,
    ("T42", "Satisfied", "HamiltonianPath", None): 15,
}


def test_verdict_counts_over_all_small_labeled_graphs():
    counts = {}
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            for crit in CriterionId:
                if n < criterion_order_minimum(crit):
                    continue
                v = apply_criterion(g, crit)
                key = (crit.value.split("_")[0], v.status.value, v.predicted.value,
                       v.exception.value if v.exception else None)
                counts[key] = counts.get(key, 0) + 1
    assert counts == _VERDICT_COUNTS_ORDERS_1_TO_5


# (criterion, status, predicted, exception) -> count over the structured
# families at every order up to 62, each criterion from its minimum order;
# the Boundary rows are float ties inside the strict tiers' zero band
_FAMILY_VERDICT_COUNTS = {
    ("T31", "Boundary", "NoPrediction", None): 6,
    ("T31", "NotSatisfied", "NoPrediction", None): 1102,
    ("T31", "Satisfied", "HamiltonConnected", "CliquePlusTwoEdges"): 9,
    ("T31", "Satisfied", "HamiltonConnected", None): 118,
    ("T32", "Boundary", "NoPrediction", None): 6,
    ("T32", "NotSatisfied", "NoPrediction", None): 1035,
    ("T32", "Satisfied", "HamiltonConnected", None): 174,
    ("T33", "Boundary", "NoPrediction", None): 10,
    ("T33", "NotSatisfied", "NoPrediction", None): 980,
    ("T33", "Satisfied", "HamiltonConnected", "CliquePlusTwoEdges"): 123,
    ("T33", "Satisfied", "HamiltonConnected", None): 119,
    ("T34", "NotSatisfied", "NoPrediction", None): 622,
    ("T34", "Satisfied", "HamiltonConnected", None): 172,
    ("T34", "Satisfied", "NoPrediction", "BalancedCompleteBipartite"): 29,
    ("T34", "Satisfied", "NoPrediction", "JoinOfTwoCliques"): 280,
    ("T34", "Satisfied", "NoPrediction", "RegularJoinClique"): 86,
    ("T41", "NotSatisfied", "NoPrediction", None): 822,
    ("T41", "Satisfied", "HamiltonianCycle", "CliquePlusPendant"): 63,
    ("T41", "Satisfied", "HamiltonianCycle", None): 242,
    ("T41", "Satisfied", "HamiltonianPath", "CliquePlusIsolated"): 62,
    ("T41", "Satisfied", "HamiltonianPath", None): 46,
    ("T42", "NotSatisfied", "NoPrediction", None): 827,
    ("T42", "Satisfied", "HamiltonianCycle", "CliquePlusPendant"): 63,
    ("T42", "Satisfied", "HamiltonianCycle", None): 242,
    ("T42", "Satisfied", "HamiltonianPath", "CliquePlusIsolated"): 62,
    ("T42", "Satisfied", "HamiltonianPath", None): 41,
}


def test_verdicts_pinned_on_structured_families():
    counts = Counter()
    for g in structured_family_graphs():
        for criterion in CriterionId:
            if g.n >= criterion_order_minimum(criterion):
                v = apply_criterion(g, criterion)
                counts[(criterion.value.split("_")[0], v.status.value, v.predicted.value,
                        v.exception and v.exception.value)] += 1
    assert counts == _FAMILY_VERDICT_COUNTS
