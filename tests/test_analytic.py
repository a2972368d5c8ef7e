"""Scalar machinery: solvers, Mills ratio, gap function, bound evaluators.

Expected values marked "oracle" were computed with tests/oracles.py
(quadrature cdf, bisection solvers, tail series) at 30 digits and frozen.
"""

import math
import random

import pytest

from gaussian_ramsey.analytic import (
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
    union_bases,
    union_bound_report,
)
from oracles import cdf_quad, inv_cdf_bisect, inv_cdf_mp, mills_asymptotic, pC_ulp_error, solve_pC_bisect

C_GRID = [1.1, 1.5, 2.0, 3.0, 5.0, 10.0]

# oracle: quadrature cdf at -1
CDF_MINUS_1 = 0.158655253931457051
# oracle: closed form (3 - sqrt 5)/2, cross-checked by bisection
P_C_2 = 0.381966011250105152
# oracle: bisection on p = (1-p)^3
P_C_3 = 0.317672196171980673
# oracle: inverse-cdf bisection at p_C(2)
C_P_2 = 0.300321385389998515
# oracle: pdf/cdf quadrature values at -1
MILLS_MINUS_1 = 1.525135276160981209
# oracle: tail series at -10 (error < 2e-6)
MILLS_MINUS_10 = 10.098093233962512
# oracle: direct evaluation with 30-digit log2
GAP_QUARTER = 0.108458593344349648


def test_pdf_at_zero():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_cdf_symmetry_and_oracle_point():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert std_normal_cdf(-1.0) == pytest.approx(CDF_MINUS_1, abs=1e-13)


@pytest.mark.parametrize("t", [-12.0, -8.0, -4.0, -1.5, -0.3, 0.0, 0.7, 2.0, 6.0, 12.0])
def test_cdf_against_quadrature(t):
    assert std_normal_cdf(t) == pytest.approx(cdf_quad(t), abs=1e-12)


def test_cdf_monotone():
    grid = [i * 0.25 - 12.0 for i in range(97)]
    values = [std_normal_cdf(t) for t in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # strictly increasing wherever doubles can resolve 1 - Phi(t)
    strict = [std_normal_cdf(i * 0.25 - 7.0) for i in range(57)]
    assert all(a < b for a, b in zip(strict, strict[1:]))


@pytest.mark.parametrize("q", [1e-10, 0.001, 0.1586553, 0.381966, 0.5, 0.9, 0.9999])
def test_inverse_cdf_roundtrip(q):
    t = inv_std_normal_cdf(q)
    assert std_normal_cdf(t) == pytest.approx(q, abs=1e-12)


def test_inverse_cdf_against_bisection_oracle():
    assert inv_std_normal_cdf(0.381966) == pytest.approx(inv_cdf_bisect(0.381966), abs=1e-10)


def test_solve_pC_closed_form_and_bisection():
    assert solve_pC(2.0) == pytest.approx(P_C_2, abs=1e-12)
    assert solve_pC(2.0) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert solve_pC(3.0) == pytest.approx(P_C_3, abs=1e-12)


def test_solve_pC_golden_ratio_is_the_nearest_double():
    # (3 - sqrt 5)/2 = 0.381966011250105151795...; the nearest double prints as below
    assert solve_pC(2.0) == 0.38196601125010515


#: C_GRID and 100 seeded ratios C = 1 + 10^u, u uniform in [-12, 300], so C lies in (1, 1e300]
_ULP_GRID = C_GRID + [1.0 + 10.0 ** random.Random(26).uniform(-12.0, 300.0) for _ in range(100)]


def test_solve_pC_within_one_ulp_of_the_root():
    errors = {C: pC_ulp_error(C, solve_pC(C)) for C in _ULP_GRID}
    assert max(errors.values()) <= 1.0, {C: e for C, e in errors.items() if e > 1.0}


@pytest.mark.parametrize("C", C_GRID)
def test_solve_pC_identities(C):
    p = solve_pC(C)
    assert 0.0 < p < 0.5
    assert abs((1.0 - p) ** C - p) <= 1e-10
    assert abs(C - math.log(p) / math.log(1.0 - p)) <= 1e-10
    assert p == pytest.approx(solve_pC_bisect(C), abs=1e-12)


def test_solve_pC_boundary_and_domain():
    # C -> 1+ pushes the root to the boundary value 1/2
    assert solve_pC(1.0 + 1e-9) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError):
        solve_pC(1.0)
    with pytest.raises(ValueError):
        solve_pC(0.5)


def test_solve_pC_strictly_decreasing():
    values = [solve_pC(C) for C in C_GRID]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_solve_cp_examples():
    assert solve_cp(0.5) == 0.0
    assert solve_cp(0.1586553) == pytest.approx(1.0, abs=1e-6)
    assert solve_cp(CDF_MINUS_1) == pytest.approx(1.0, abs=1e-12)
    assert solve_cp(0.381966) == pytest.approx(0.3004, abs=1e-3)
    with pytest.raises(ValueError):
        solve_cp(0.6)
    with pytest.raises(ValueError):
        solve_cp(0.0)


def test_solve_cp_inverts_cdf():
    for p in [0.01, 0.1, 0.25, 0.4999]:
        assert std_normal_cdf(-solve_cp(p)) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("p", [0.25, 0.38, 0.4, 0.4503, solve_pC(2.0), solve_pC(3.0)])
def test_solve_cp_within_4_ulp_of_the_mpmath_quantile(p):
    exact = -inv_cdf_mp(p)
    assert abs(solve_cp(p) - exact) <= 4 * math.ulp(exact)


@pytest.mark.parametrize("p", [1e-2, 1e-5, 1e-10, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300])
def test_solve_cp_relative_accuracy_in_the_tail(p):
    exact = -inv_cdf_mp(p)
    assert abs(solve_cp(p) - exact) <= 1e-15 * exact


def test_mills_examples():
    assert mills_ratio(-1.0) == pytest.approx(MILLS_MINUS_1, abs=1e-10)
    value, err = mills_asymptotic(-10.0)
    assert mills_ratio(-10.0) == pytest.approx(value, abs=err + 1e-9)
    assert mills_ratio(-10.0) == pytest.approx(MILLS_MINUS_10, abs=1e-4)
    assert 10.0 <= mills_ratio(-10.0) <= 10.1


@pytest.mark.parametrize("t", [-0.1, -0.5, -1.0, -2.0, -5.0, -10.0, -20.0])
def test_mills_bounds(t):
    m = mills_ratio(t)
    assert abs(t) <= m <= abs(t) + 1.0 / abs(t)


def test_mills_squeeze_at_minus_infinity():
    # value/|t| -> 1 along the bound sandwich
    for t in (-30.0, -35.0):
        assert mills_ratio(t) / abs(t) == pytest.approx(1.0, abs=2.0 / (t * t))


def test_log_concavity_grid():
    # Phi(t + eps) <= Phi(t) * exp(eps * phi(t)/Phi(t))
    for ti in range(-10, 11):
        t = ti * 0.5
        for eps in (0.0, 0.1, 0.25, 0.5, 1.0):
            lhs = std_normal_cdf(t + eps)
            rhs = std_normal_cdf(t) * math.exp(eps * mills_ratio(t))
            assert lhs <= rhs * (1.0 + 1e-12)


def test_gap_positive_on_grid():
    for i in range(1, 500):
        t = i / 1000.0
        assert gain_loss_gap(t) > 0.0


def test_gap_values_and_boundaries():
    assert gain_loss_gap(0.25) == pytest.approx(GAP_QUARTER, abs=1e-12)
    assert abs(gain_loss_gap(0.25) - 0.108458) <= 1e-6
    assert gain_loss_gap(0.5) == 0.0
    assert gain_loss_gap(1e-9) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        gain_loss_gap(0.0)
    with pytest.raises(ValueError):
        gain_loss_gap(0.51)


def test_ramsey_params_derivations():
    params = RamseyParams(C=2.0, ell=4, D=10.0)
    assert params.d == 1600
    assert params.k == 8
    with pytest.raises(ValueError):
        RamseyParams(C=0.9, ell=4, D=10.0)
    with pytest.raises(ValueError):
        RamseyParams(C=2.0, ell=4, D=0.5)
    with pytest.raises(ValueError):
        # d = ell^2 < k = ceil(C*ell) for huge C
        RamseyParams(C=30.0, ell=4, D=1.0)


def test_analytic_bounds_example():
    # oracle composition at C=2, D=100 (30-digit pipeline, frozen)
    b = compute_analytic_bounds(2.0, 100.0)
    assert b.p_C == pytest.approx(P_C_2, abs=1e-12)
    assert b.c_p == pytest.approx(C_P_2, abs=1e-10)
    assert b.a == pytest.approx(0.381351025797007090, abs=1e-12)
    assert b.gain_red == pytest.approx(0.126708007924596473, abs=1e-12)
    assert b.loss_blue == pytest.approx(0.096796304760809658, abs=1e-12)
    assert b.p_shifted == pytest.approx(0.383083532813532182, abs=1e-12)
    # spec-level echoes at coarser precision
    assert b.a == pytest.approx(0.38133, abs=5e-5)
    assert b.gain_red == pytest.approx(0.12668, abs=5e-5)
    assert b.loss_blue == pytest.approx(0.09678, abs=5e-5)
    assert b.p_shifted == pytest.approx(0.383083, abs=1e-6)


def test_golden_ratio_base():
    b = compute_analytic_bounds(2.0, 100.0)
    assert b.erdos_base == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-9)


@pytest.mark.parametrize("C", C_GRID)
def test_gain_exceeds_loss(C):
    b = compute_analytic_bounds(C, 10.0)
    assert b.gain_red > b.loss_blue
    assert b.epsilon_margin > 0.0
    assert b.erdos_base > 1.0


def test_clique_log_bound_trivial_cases():
    assert clique_log_bound(1, 50, 0.4, "red") == 0.0
    assert clique_log_bound(1, 50, 0.4, "blue") == 0.0
    # r = 2: no triple correction
    assert clique_log_bound(2, 123, 0.4, "red") == pytest.approx(math.log(0.4), abs=1e-15)
    assert clique_log_bound(2, 123, 0.4, "blue") == pytest.approx(math.log(0.6), abs=1e-15)


def test_clique_log_bound_example():
    # oracle: 3 ln p - a^3/(p^3 sqrt d) at p = 0.381966, d = 10^4
    val = clique_log_bound(3, 10000, 0.381966, "red")
    assert val == pytest.approx(-2.897222815473722, abs=1e-12)
    assert val == pytest.approx(-2.8972, abs=1e-4)


@pytest.mark.parametrize("r", [3, 4, 6])
def test_correction_signs(r):
    p, d = 0.4, 400
    pairs = r * (r - 1) / 2.0
    assert clique_log_bound(r, d, p, "red") < pairs * math.log(p)
    assert clique_log_bound(r, d, p, "blue") > pairs * math.log(1.0 - p)


def test_union_bases_degenerate():
    p_C = solve_pC(2.0)
    red, blue = union_bases(p_C, 2.0, 0.0, 0.0)
    assert red == pytest.approx(1.0, abs=1e-12)
    assert blue == pytest.approx(1.0, abs=1e-12)


def test_union_bound_report():
    rep = union_bound_report(2.0, 100, 100.0)
    assert rep["red_base"] < 1.0
    assert rep["blue_base"] < 1.0
    assert rep["bases_below_one"]
    assert rep["margin_established"]
    assert rep["improved_base"] > rep["erdos_base"]
    assert rep["eps"] == pytest.approx(rep["eps1"] / 10.0)
    assert rep["terms"] == "main-term"


def test_union_bound_report_custom_eps():
    rep = union_bound_report(2.0, 100, 100.0, eps=0.0)
    assert rep["improved_base"] == pytest.approx(rep["erdos_base"], abs=1e-15)
    assert rep["red_base"] < 1.0  # eps1 > 0 still helps
