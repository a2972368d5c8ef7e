"""Gaussian random geometric graphs for Ramsey lower bounds.

The model: n vertices are i.i.d. Gaussian vectors in R^d with coordinate
variance 1/d; vertices i, j are joined (blue) when <x_i, x_j> >= -c_p/sqrt(d),
all other pairs are red.  This package provides the closed-form machinery
around that construction (threshold solvers, clique-probability bounds),
the two equivalent samplers (direct clouds and the triangular
re-coordinatization), Monte-Carlo estimators with confidence intervals,
empirical validators for the supporting concentration inequalities, and an
exact witness-coloring search with an independent certificate verifier.
"""

from gaussian_ramsey.analytic import (
    AnalyticBounds,
    RamseyParams,
    clique_log_bound,
    compute_analytic_bounds,
    gain_loss_gap,
    inv_std_normal_cdf,
    mills_ratio,
    solve_cp,
    solve_pC,
    std_normal_cdf,
    std_normal_pdf,
    union_bound_report,
)
from gaussian_ramsey.sampling import (
    RngStream,
    TruncatedSpec,
    sample_truncated,
    truncated_mean,
)
from gaussian_ramsey.graphs import CapabilityError, ColoredGraph, graph_from_text, graph_to_text
from gaussian_ramsey.geometry import (
    PerfectCheck,
    PerfectSpec,
    PointCloud,
    TriangularSample,
    adjacency,
    extract_perfect,
    gram,
    gram_from_bartlett,
    is_perfect,
    sample_bartlett,
    sample_cloud,
)
from gaussian_ramsey.estimators import (
    EstimateResult,
    correction_scaling,
    estimate_clique_prob,
    estimate_edge_density,
)
from gaussian_ramsey.validators import validate_bound
from gaussian_ramsey.cliques import (
    WitnessCertificate,
    certificate_from_text,
    certificate_to_text,
    find_mono_clique,
    search_witness,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticBounds",
    "CapabilityError",
    "ColoredGraph",
    "EstimateResult",
    "PerfectCheck",
    "PerfectSpec",
    "PointCloud",
    "RamseyParams",
    "RngStream",
    "TriangularSample",
    "TruncatedSpec",
    "WitnessCertificate",
    "adjacency",
    "certificate_from_text",
    "certificate_to_text",
    "clique_log_bound",
    "compute_analytic_bounds",
    "correction_scaling",
    "estimate_clique_prob",
    "estimate_edge_density",
    "extract_perfect",
    "find_mono_clique",
    "gain_loss_gap",
    "graph_from_text",
    "graph_to_text",
    "gram",
    "gram_from_bartlett",
    "inv_std_normal_cdf",
    "is_perfect",
    "mills_ratio",
    "sample_bartlett",
    "sample_cloud",
    "sample_truncated",
    "search_witness",
    "solve_cp",
    "solve_pC",
    "std_normal_cdf",
    "std_normal_pdf",
    "truncated_mean",
    "union_bound_report",
    "validate_bound",
    "verify_witness",
]
