"""Empirical inequality validators: dispatch, bounds, domain errors."""

import math
import re
from types import SimpleNamespace

import pytest
from scipy.special import chdtr, chdtrc, gammaincc

from gaussian_ramsey.sampling import RngStream
from gaussian_ramsey.validators import CHECKS, _within, validate_bound


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        validate_bound("nope", {}, 10, RngStream(1))


_PARAMS = {
    "norm_concentration": {"d": 16, "delta": 0.5},
    "projection_tail": {"d": 100, "ell": 4, "s": 8, "p": 0.38, "C": 2.0},
    "exp_square_moment": {"sigma2": 1.0, "lam": 0.2},
    "quadratic_moment": {"d": 100, "k": 3, "lam": 1.0, "cutoffs": [-0.3, 0.0, 0.5]},
    "chi_square_tail": {"freedom": 20, "t": 1.0},
    "conditional_edge": {"p": 0.4, "d": 16, "inner": 0.0, "diag": 1.0},
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_check_ends_in_one_header(name):
    assert tuple(_PARAMS[name]) == CHECKS[name][1]
    rec = validate_bound(name, _PARAMS[name], 500, RngStream(9, 4))
    assert list(rec)[-5:] == ["check", "params", "trials", "seed", "stream_id"]
    assert (rec["check"], rec["params"], rec["trials"], rec["seed"], rec["stream_id"]) == (
        name, _PARAMS[name], 500, 9, 4
    )
    assert isinstance(rec["passed"], bool)


def test_norm_concentration_example():
    rec = validate_bound("norm_concentration", {"d": 400, "delta": 0.3}, 10**5, RngStream(2))
    assert rec["bound"] == pytest.approx(2.0 * math.exp(-3.6), abs=1e-12)
    assert rec["passed"]
    assert not rec["vacuous"]
    assert rec["empirical"] <= rec["bound"] + 3.0 * rec["mc_stderr"]


def test_norm_concentration_is_vacuous_below_one_hit():
    # bound = 2 exp(-3.6) = 0.0546 lies between 0.5/12 and 1/12: under one expected hit in 12 trials
    rec = validate_bound("norm_concentration", {"d": 400, "delta": 0.3}, 12, RngStream(2))
    assert 0.5 / 12 < rec["bound"] < 1.0 / 12
    assert rec["vacuous"]


def test_norm_concentration_resolvable_regime():
    # small d, wide window: deviations actually occur and stay under the bound
    rec = validate_bound("norm_concentration", {"d": 9, "delta": 0.6}, 10**5, RngStream(3))
    assert rec["empirical"] > 0.0
    assert rec["passed"]


def test_norm_concentration_has_the_exact_chi_square_law():
    # d ||x||^2 ~ chi^2_d; bound fixed before the first run: within 4 SE of the exact frequency
    d, delta, trials = 100, 0.1, 10**5
    rec = validate_bound("norm_concentration", {"d": d, "delta": delta}, trials, RngStream(43))
    exact = chdtr(d, d * (1.0 - delta) ** 2) + chdtrc(d, d * (1.0 + delta) ** 2)
    assert abs(rec["empirical"] - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


def test_projection_tail_example_vacuous():
    rec = validate_bound(
        "projection_tail", {"d": 2500, "ell": 4, "s": 8, "p": 0.38, "C": 2.0}, 10**6, RngStream(4)
    )
    assert rec["empirical"] == 0.0
    assert rec["log_bound"] == pytest.approx(80.0 * math.log(0.038), rel=1e-12)
    assert rec["log_bound"] < math.log(1.0 / 10**6)
    assert rec["vacuous"]
    assert rec["passed"]


def test_projection_tail_has_the_exact_chi_square_law(monkeypatch):
    # d ||pi_W(x)||^2 ~ chi^2_s.  No in-domain spec has hits (C > 1 puts the threshold
    # far out), so the spec is stubbed to alpha = sqrt(s / ell): the threshold t = s / d.
    # Bounds fixed before the first run: the check's frequency and that of s drawn
    # coordinates each within 4 SE of gammaincc(s/2, d t/2).
    import gaussian_ramsey.geometry as geometry  # the check imports PerfectSpec from it on each call

    d, ell, s, trials = 100, 4, 8, 10**5
    alpha, t = math.sqrt(s / ell), s / d
    stub = SimpleNamespace(from_params=lambda C, ell, d, p: SimpleNamespace(alpha_proj=alpha))
    monkeypatch.setattr(geometry, "PerfectSpec", stub)
    rec = validate_bound("projection_tail", {"d": d, "ell": ell, "s": s, "p": 0.38, "C": 2.0}, trials, RngStream(45))
    coords = RngStream(45, 1).generator().standard_normal((trials, s)) / math.sqrt(d)
    exact = gammaincc(s / 2, d * t / 2)
    for freq in (rec["empirical"], ((coords * coords).sum(axis=1) >= t).mean()):
        assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


def test_projection_tail_domain():
    with pytest.raises(ValueError):
        validate_bound(
            "projection_tail", {"d": 100, "ell": 4, "s": 9, "p": 0.38, "C": 2.0}, 10, RngStream(1)
        )


def test_exp_square_moment_lambda_zero():
    rec = validate_bound("exp_square_moment", {"sigma2": 1.0, "lam": 0.0}, 1000, RngStream(5))
    assert rec["empirical"] == 1.0
    assert rec["bound"] == 1.0
    assert rec["passed"]


def test_exp_square_moment_nontrivial():
    # Gaussian ground truth E[exp(lam X^2)] = (1 - 2 lam sigma^2)^(-1/2)
    rec = validate_bound("exp_square_moment", {"sigma2": 1.0, "lam": 0.2}, 2 * 10**5, RngStream(6))
    truth = (1.0 - 0.4) ** -0.5
    assert rec["empirical"] == pytest.approx(truth, abs=5.0 * rec["mc_stderr"] + 1e-3)
    assert rec["bound"] == pytest.approx(1.0 + 0.8 / 0.6, abs=1e-12)
    assert rec["passed"]


def test_exp_square_moment_domain():
    with pytest.raises(ValueError):
        validate_bound("exp_square_moment", {"sigma2": 1.0, "lam": 0.5}, 10, RngStream(1))
    with pytest.raises(ValueError):
        validate_bound("exp_square_moment", {"sigma2": 1.0, "lam": -0.1}, 10, RngStream(1))


def test_quadratic_moment_degenerate():
    # untruncated, lambda = 0: both sides exactly 1
    rec = validate_bound(
        "quadratic_moment",
        {"d": 4, "k": 3, "lam": 0.0, "cutoffs": [-math.inf] * 3},
        1000,
        RngStream(7),
    )
    assert rec["empirical"] == 1.0
    assert rec["bound"] == 1.0
    assert rec["passed"]


def test_quadratic_moment_nontrivial():
    rec = validate_bound(
        "quadratic_moment",
        {"d": 400, "k": 5, "lam": 12.0, "cutoffs": [-0.3] * 5},
        10**5,
        RngStream(8),
    )
    assert rec["passed"]
    assert rec["empirical"] > 1.0  # positive-mean quadratic sum
    assert rec["mean_S"] > 0.0


def test_quadratic_moment_negative_lambda():
    rec = validate_bound(
        "quadratic_moment",
        {"d": 400, "k": 5, "lam": -12.0, "cutoffs": [-0.3] * 5},
        10**5,
        RngStream(9),
    )
    assert rec["passed"]


def test_quadratic_moment_domain():
    with pytest.raises(ValueError):
        validate_bound(
            "quadratic_moment", {"d": 100, "k": 5, "lam": 25.0, "cutoffs": [0.0] * 5}, 10, RngStream(1)
        )
    with pytest.raises(ValueError):
        validate_bound(
            "quadratic_moment", {"d": 400, "k": 5, "lam": 1.0, "cutoffs": [0.0] * 4}, 10, RngStream(1)
        )


@pytest.mark.parametrize("freedom", [100, 400])
@pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
def test_chi_square_tails(freedom, t):
    rec = validate_bound("chi_square_tail", {"freedom": freedom, "t": t}, 10**5, RngStream(freedom + int(t)))
    assert rec["passed"]
    assert rec["empirical_upper"] <= rec["bound"] + 3.0 * rec["mc_stderr_upper"]
    assert rec["empirical_lower"] <= rec["bound"] + 3.0 * rec["mc_stderr_lower"]


def test_chi_square_tail_resolvable():
    # at t = 1 the deviation frequency is visible and well under e^-1
    rec = validate_bound("chi_square_tail", {"freedom": 100, "t": 1.0}, 10**5, RngStream(31))
    assert rec["empirical_upper"] > 0.0
    assert rec["empirical_lower"] > 0.0


@pytest.mark.parametrize(
    "params, named",
    [
        ({"d": 400, "delta": 0.3, "p": 0.4}, "not read ['p']"),
        ({"d": 400}, "missing ['delta']"),
    ],
    ids=["unread-key", "missing-key"],
)
def test_params_must_be_exactly_the_keys_the_check_reads(params, named):
    with pytest.raises(ValueError, match="norm_concentration reads exactly d, delta: .*" + re.escape(named)):
        validate_bound("norm_concentration", params, 10, RngStream(1))


def test_the_pass_rule_allows_three_standard_errors():
    bound, se = 0.25, 0.0625  # exact in binary, so bound + m*se is the sum it reads
    assert _within(bound + 3.0 * se, bound, se)
    assert not _within(bound + 3.5 * se, bound, se)
    assert _within(bound, bound, 0.0) and not _within(math.nextafter(bound, 1.0), bound, 0.0)
