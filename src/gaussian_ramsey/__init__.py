"""Gaussian random geometric graphs for Ramsey lower bounds.

The model: n vertices are i.i.d. Gaussian vectors in R^d with coordinate
variance 1/d; vertices i, j are joined (blue) when <x_i, x_j> >= -c_p/sqrt(d),
all other pairs are red.  This package provides the closed-form machinery
around that construction (threshold solvers, clique-probability bounds),
the two equivalent samplers (direct clouds and the triangular
re-coordinatization), Monte-Carlo estimators with confidence intervals,
empirical validators for the supporting concentration inequalities, and an
exact witness-coloring search with an independent certificate verifier.

Only geometry and estimators import numpy at module level, and their names
here are resolved on first access (the module __getattr__ below), so
importing the package, and checking a certificate, loads no numpy.
"""

import importlib

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

#: geometry's and estimators' names in __all__, each imported on its first access (__getattr__).
_DEFERRED = {
    **dict.fromkeys(
        ("PerfectCheck", "PerfectSpec", "PointCloud", "TriangularSample", "adjacency", "extract_perfect", "gram",
         "gram_from_bartlett", "is_perfect", "sample_bartlett", "sample_cloud"),
        "geometry",
    ),
    **dict.fromkeys(("EstimateResult", "correction_scaling", "estimate_clique_prob", "estimate_edge_density"),
                    "estimators"),
}


def __getattr__(name: str):
    """A name of _DEFERRED from its module, kept here once imported; any other name is an AttributeError."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_DEFERRED[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
