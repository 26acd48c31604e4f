"""Spectral certificates and exact oracles for Hamiltonian structure in small graphs."""

from types import ModuleType as _ModuleType

from .graph import MAX_ORDER, Graph, complement, degree_data, disjoint_union, from_edges, join
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .families import (
    FAMILY_PARAMS,
    FamilySpec,
    balanced_bipartite_minus_matching,
    circulant,
    clique_plus_isolated,
    clique_plus_pendant,
    clique_plus_two_edges,
    complete,
    complete_bipartite,
    construct,
    cycle,
    family_spec,
    join_of_two_cliques,
    path,
    regular_join_clique,
    remark_family,
    star,
)
from .spectral import (
    BOUND_IDS,
    BoundReport,
    SpectralSummary,
    adjacency_matrix,
    adjacency_spectral_radius,
    bound_suite,
    signless_laplacian_matrix,
    signless_spectral_radius,
    spectral_summary,
    symmetric_eigen_max,
)
from .closure import ClosureResult, k_closure
from .hamilton import (
    DEFAULT_ORACLE_CAP,
    HARD_ORACLE_CAP,
    CapacityError,
    DegreeSumCheck,
    EdgeCountClassification,
    EdgeCountConclusion,
    HamiltonProfile,
    degree_sum_check,
    edge_count_classification,
    hamilton_profile,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamilton_connected,
)
from .certify import (
    CriterionId,
    CriterionStatus,
    CriterionVerdict,
    FamilyTag,
    Prediction,
    apply_criterion,
    criterion_order_minimum,
    criterion_threshold,
    recognize_exception,
    verdict_is_sound,
)
from .harness import (
    Lcg,
    RemarkRow,
    ValidationMode,
    ValidationReport,
    admissible_remark_window,
    canonical_graph6,
    enumerate_labeled,
    graph_from_edge_mask,
    merge_reports,
    random_regular,
    remark_scan,
    sample_random,
    validate,
    validate_closure_equivalence,
)

# the imports above also bind the submodules; they are not exports
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
