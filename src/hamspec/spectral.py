"""Spectral radii and the bound battery with equality-case detection.

mu(G) is the largest adjacency eigenvalue, gamma(G) the largest eigenvalue
of the signless Laplacian D(G) + A(G).  Bounds are normalized to the form
lhs <= rhs, so slack = rhs - lhs.  `_sign` decides every bound flag here
and every verdict in `certify`: it is the one tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._report import Report
from .graph import Graph, _complement_rows, degree_data
from . import recognizers

TOLERANCE = 1e-9  # the zero band of a float difference

BOUND_IDS = (
    "mu_edge_upper",       # mu <= -1/2 + sqrt(2m + 1/4)
    "dm_mean_upper",       # max(d+m) <= 2m/(n-1) + n - 2   (exact rationals)
    "gamma_dm_upper",      # gamma <= max(d+m)
    "gamma_mean_upper",    # gamma <= 2m/(n-1) + n - 2
    "hofmeister_lower",    # sum d^2 <= n * mu^2
    "gamma_ratio_lower",   # Z/e <= gamma                    (needs e > 0)
    "gamma_two_mu_lower",  # 2*mu <= gamma
)


def _sign(x) -> int:
    """-1, 0 or 1; exact for an int or Fraction, 0 for a float within TOLERANCE."""
    return 0 if isinstance(x, float) and abs(x) <= TOLERANCE else (x > 0) - (x < 0)


@np.errstate(invalid="ignore")
def symmetric_eigen_max(matrix) -> float:
    """Largest eigenvalue of a real symmetric matrix.

    Input symmetry is enforced to 1e-12; a NaN or infinite entry fails that
    test too, its difference with the transposed entry being NaN or infinite
    (inf - inf is NaN, so numpy's invalid-value warning is off here).
    Backed by LAPACK's symmetric solver, deterministic for identical input.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.abs(a - a.T).max() <= 1e-12:
        raise ValueError("matrix is not finite and symmetric within 1e-12")
    return float(np.linalg.eigvalsh(a)[-1])


def adjacency_matrix(g: Graph, of_complement: bool = False) -> np.ndarray:
    """A(G), or with `of_complement` A of the complement, read from G's rows."""
    rows = _complement_rows(g) if of_complement else g.rows
    row_bytes = np.array(rows, dtype="<u8").view(np.uint8).reshape(g.n, 8)
    return np.unpackbits(row_bytes, axis=1, count=g.n, bitorder="little").astype(np.float64)


def signless_laplacian_matrix(g: Graph, of_complement: bool = False) -> np.ndarray:
    a = adjacency_matrix(g, of_complement)
    return a + np.diag(a.sum(axis=1))


def adjacency_spectral_radius(g: Graph, of_complement: bool = False) -> float:
    return symmetric_eigen_max(adjacency_matrix(g, of_complement))


def signless_spectral_radius(g: Graph, of_complement: bool = False) -> float:
    return symmetric_eigen_max(signless_laplacian_matrix(g, of_complement))


@dataclass(frozen=True)
class SpectralSummary(Report):
    mu: float
    gamma: float
    edge_count: int
    degrees: tuple[int, ...]
    avg_neighbor_degree: tuple[Fraction, ...]
    degree_square_sum: int
    max_degree_plus_avg_neighbor: Fraction


def spectral_summary(g: Graph) -> SpectralSummary:
    degs, avg = degree_data(g)
    return SpectralSummary(
        mu=adjacency_spectral_radius(g),
        gamma=signless_spectral_radius(g),
        edge_count=g.edge_count,
        degrees=tuple(degs),
        avg_neighbor_degree=tuple(avg),
        degree_square_sum=sum(d * d for d in degs),
        max_degree_plus_avg_neighbor=max(d + m for d, m in zip(degs, avg)),
    )


@dataclass(frozen=True)
class BoundReport(Report):
    bound: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    equality_expected: bool


def bound_suite(g: Graph) -> list[BoundReport]:
    """Evaluate every applicable bound on g, one report per bound, in
    BOUND_IDS order.

    Skipped for lack of definition: the two mean bounds at n = 1 (their
    right-hand sides divide by n - 1) and the degree-ratio bound when
    e(G) = 0.  A bound holds when `_sign(slack) >= 0` and is an equality
    when `_sign(slack) == 0`; the degree-mean bound's slack is exact.
    """
    s = spectral_summary(g)
    n, m = g.n, s.edge_count
    mean_rhs = Fraction(2 * m, n - 1) + (n - 2) if n >= 2 else None
    if g.is_connected():
        mean_expected = recognizers.is_star(g) or recognizers.is_complete(g)
    else:
        mean_expected = recognizers.is_clique_plus_isolated(g)
    # bound -> (lhs, rhs, equality_expected), or None where undefined
    sides = {
        "mu_edge_upper": (s.mu, -0.5 + math.sqrt(2 * m + 0.25),
                          recognizers.is_complete_plus_isolated(g)),
        "dm_mean_upper": (s.max_degree_plus_avg_neighbor, mean_rhs,
                          bool(recognizers.universal_vertices(g))
                          or recognizers.is_clique_plus_isolated(g)) if n >= 2 else None,
        "gamma_dm_upper": (s.gamma, s.max_degree_plus_avg_neighbor,
                           recognizers.all_nontrivial_components_regular_or_semiregular(g)),
        "gamma_mean_upper": (s.gamma, mean_rhs, mean_expected) if n >= 2 else None,
        "hofmeister_lower": (s.degree_square_sum, n * s.mu * s.mu, False),
        "gamma_ratio_lower": (Fraction(s.degree_square_sum, m), s.gamma, False) if m > 0 else None,
        "gamma_two_mu_lower": (2 * s.mu, s.gamma, False),
    }
    out = []
    for bound in BOUND_IDS:
        if sides[bound] is None:
            continue
        lhs, rhs, expected = sides[bound]
        slack = rhs - lhs
        side = _sign(slack)
        out.append(BoundReport(bound, float(lhs), float(rhs), float(slack),
                               side >= 0, side == 0, expected))
    return out
