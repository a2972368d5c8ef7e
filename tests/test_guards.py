"""Library guards that no CLI input reaches: each refuses its value with a message naming it.

The CLI checks its inputs before it calls the library, so these lines run
only when the Python API is handed a bad value, or a graph file is
malformed.  ``tools/linecov.py`` lists the lines no public entry reaches.
"""

import re

import numpy as np
import pytest

from gaussian_ramsey.analytic import RamseyParams, clique_log_bound, compute_analytic_bounds, inv_std_normal_cdf
from gaussian_ramsey.cliques import search_witness
from gaussian_ramsey.estimators import estimate_clique_prob
from gaussian_ramsey.geometry import (
    PerfectSpec,
    PointCloud,
    TriangularSample,
    adjacency,
    sample_bartlett,
    sample_cloud,
)
from gaussian_ramsey.graphs import ColoredGraph, graph_from_text
from gaussian_ramsey.sampling import RngStream, TruncatedSpec

_HEAD = "%gaussian-ramsey-graph v1\n"

#: id -> (call, the exact ValueError message)
_GUARDS = {
    "quantile": (lambda: inv_std_normal_cdf(1.0), "quantile must lie in (0, 1), got 1.0"),
    "params-ell": (lambda: RamseyParams(C=2.0, ell=0, D=1.0), "clique size must be positive, got ell=0"),
    "bounds-D": (lambda: compute_analytic_bounds(2.0, 0.5), "dimension multiplier must be >= 1, got D=0.5"),
    "log-bound-r": (lambda: clique_log_bound(0, 8, 0.4, "red"), "clique size must be positive, got r=0"),
    "log-bound-d": (lambda: clique_log_bound(3, 0, 0.4, "red"), "dimension must be positive, got 0"),
    "log-bound-p": (lambda: clique_log_bound(3, 8, 0.5, "red"), "probability must lie in (0, 1/2), got 0.5"),
    "log-bound-color": (lambda: clique_log_bound(3, 8, 0.4, "green"), "color must be 'red' or 'blue', got 'green'"),
    "search-sampler": (lambda: search_witness(5, 3, 3, "uniform", {"p": 0.5}, 10, RngStream(1)),
                       "sampler must be 'geometric' or 'binomial', got 'uniform'"),
    "estimate-color": (lambda: estimate_clique_prob(3, 8, 0.4, "green", trials=10, stream=RngStream(1)),
                       "color must be 'red' or 'blue', got 'green'"),
    "adjacency-c_p": (lambda: adjacency(np.eye(3), -1.0, 4), "c_p must be nonnegative, got c_p=-1.0"),
    "cloud-shape": (lambda: PointCloud(np.zeros(3)), "coords must be a 2-d array, got shape (3,)"),
    "triangular-shape": (lambda: TriangularSample(np.zeros((2, 3)), d=4), "M must be square, got shape (2, 3)"),
    "triangular-rows": (lambda: TriangularSample(np.eye(3), d=2), "row count 3 exceeds ambient dimension 2"),
    "triangular-upper": (lambda: TriangularSample(np.ones((2, 2)), d=4), "M has nonzero entries above the diagonal"),
    "triangular-diagonal": (lambda: TriangularSample(-np.eye(2), d=4), "M has negative diagonal entries"),
    "spec-C": (lambda: PerfectSpec.from_params(0.0, 3, 8, 0.4), "C must be positive, got C=0.0"),
    "spec-d": (lambda: PerfectSpec.from_params(2.0, 3, 0, 0.4), "dimension must be at least 1, got d=0"),
    "cloud-n": (lambda: sample_cloud(0, 4, RngStream(1)), "need n >= 1 and d >= 1, got n=0, d=4"),
    "bartlett-r": (lambda: sample_bartlett(0, 4, RngStream(1)), "row count must be positive, got 0"),
    "truncated-nan": (lambda: TruncatedSpec(float("nan"), "lower", 4), "cutoff must not be NaN"),
    "graph-n": (lambda: ColoredGraph(0, ()), "vertex count must be positive, got 0"),
    "graph-rows": (lambda: ColoredGraph(3, (0, 0)), "expected 3 adjacency rows, got 2"),
    "text-no-n": (lambda: graph_from_text(_HEAD + "p=0.5\n--\n"), "header missing vertex count n"),
    "text-no-terminator": (lambda: graph_from_text(_HEAD + "n=2\n"), "missing header terminator"),
    "text-n": (lambda: graph_from_text(_HEAD + "n=0\n--\n"), "vertex count must be positive, got 0"),
    "text-rows": (lambda: graph_from_text(_HEAD + "n=2\n--\n0000000000000002"), "expected 2 adjacency rows, found 1"),
}


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_a_library_guard_names_the_value_it_refuses(name):
    call, message = _GUARDS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_dimension_and_row_count_read_their_arrays():
    assert PointCloud(np.zeros((3, 4))).d == 4
    assert TriangularSample(np.eye(2), d=4).r == 2
