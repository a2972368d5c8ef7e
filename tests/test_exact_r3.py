"""Monte-Carlo clique probabilities at r = 3 against the exact quadrature oracle.

The oracle (oracles.clique3_prob) integrates over the triangular variables
with scipy.special alone, so it shares no code with the samplers.  Each
estimate must lie within 4 binomial standard errors of the exact value;
each window is narrower than the gap between the exact value and the
binomial reference p^3 or (1-p)^3, so a sampler that lost the geometry
would fail.
"""

import math

import pytest

from gaussian_ramsey.estimators import _usable_cpus, correction_scaling, estimate_clique_prob
from gaussian_ramsey.sampling import RngStream
from oracles import clique3_prob

P = 0.4
THREADS = _usable_cpus()  # throughput only: the runner's results do not depend on the thread count


def test_oracle_tends_to_the_main_term():
    # sqrt(d) ln(P / reference) -> the main-term coefficient as d grows
    rep = correction_scaling(3, P, [64, 256], 10, RngStream(1), sampler="bartlett")
    d = 10**6
    red = math.sqrt(d) * math.log(clique3_prob(d, P, "red") / P**3)
    blue = math.sqrt(d) * math.log(clique3_prob(d, P, "blue") / (1.0 - P) ** 3)
    assert red == pytest.approx(rep["predicted_red"], abs=5e-3)
    assert blue == pytest.approx(rep["predicted_blue"], abs=5e-3)


def test_oracle_nodes_converge():
    for d in (64, 1024):
        for color in ("red", "blue"):
            assert clique3_prob(d, P, color, 64) == pytest.approx(clique3_prob(d, P, color, 96), rel=1e-5)


@pytest.mark.parametrize(
    "sampler, d, trials, seed",
    [("bartlett", 64, 2 * 10**6, 31), ("bartlett", 1024, 2 * 10**6, 32), ("direct", 64, 4 * 10**5, 33)],
)
@pytest.mark.parametrize("color", ["red", "blue"])
def test_clique_prob_matches_exact(sampler, d, trials, seed, color):
    exact = clique3_prob(d, P, color)
    threads = THREADS if sampler == "direct" else 1
    est = estimate_clique_prob(3, d, P, color, trials=trials, stream=RngStream(seed), sampler=sampler, threads=threads)
    se = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(est.point - exact) <= 4.0 * se
    reference = P**3 if color == "red" else (1.0 - P) ** 3
    assert abs(reference - exact) > 4.0 * se  # the window excludes the binomial reference


def test_scaling_fit_matches_exact():
    dims = [64, 256, 1024]
    rep = correction_scaling(3, P, dims, 2 * 10**6, RngStream(34), sampler="bartlett")
    for color, log_ref in (("red", 3 * math.log(P)), ("blue", 3 * math.log1p(-P))):
        rows = [row for row in rep["rows"] if not row[f"underpowered_{color}"]]
        assert len(rows) == len(dims)
        # the fit of the exact log-ratios with the report's own weights, and its propagated error
        weight = sum(row["x"] ** 2 / row[f"se_{color}"] ** 2 for row in rows)
        exact_fit = sum(
            row["x"] * (math.log(clique3_prob(row["d"], P, color)) - log_ref) / row[f"se_{color}"] ** 2
            for row in rows
        ) / weight
        assert abs(rep[f"fitted_{color}"] - exact_fit) <= 4.0 / math.sqrt(weight)
