"""Sampler contracts: determinism, moments, truncation, closed forms."""

import math

import numpy as np
import pytest

from gaussian_ramsey.sampling import (
    RngStream,
    TruncatedSpec,
    sample_truncated,
    truncated_mean,
)
from oracles import cdf_quad, pdf_exact

# oracle: half-normal mean sqrt(2/pi)
HALF_NORMAL_MEAN = 0.797884560802865356
# oracle: upper-truncated mean at b = -0.5244, d = 100 (quadrature pdf/cdf)
TRUNC_UPPER_EXAMPLE = -0.115897500359239592


def test_identical_streams_identical_sequences():
    a = RngStream(42, 0).generator().standard_normal(64)
    b = RngStream(42, 0).generator().standard_normal(64)
    assert (a == b).all()


def test_distinct_streams_differ():
    a = RngStream(42, 0).generator().standard_normal(64)
    b = RngStream(42, 1).generator().standard_normal(64)
    c = RngStream(43, 0).generator().standard_normal(64)
    assert not (a == b).all()
    assert not (a == c).all()


def test_offset():
    assert RngStream(5, 3).offset(4) == RngStream(5, 7)


@pytest.mark.parametrize(
    "spec",
    [
        TruncatedSpec(0.0, "lower", 1),
        TruncatedSpec(-1.0, "lower", 100),
        TruncatedSpec(1.5, "lower", 16),
        TruncatedSpec(0.0, "upper", 1),
        TruncatedSpec(2.0, "upper", 10000),
    ],
)
def test_truncated_side_constraint_all_draws(spec):
    x = sample_truncated(spec, RngStream(13), size=50000)
    cut = spec.cutoff / math.sqrt(spec.d)
    if spec.side == "lower":
        assert (x >= cut).all()
    else:
        assert (x <= cut).all()


def test_truncated_mean_examples():
    lower0 = TruncatedSpec(0.0, "lower", 1)
    assert truncated_mean(lower0) == pytest.approx(HALF_NORMAL_MEAN, abs=1e-12)
    assert truncated_mean(lower0) == pytest.approx(2.0 * pdf_exact(0.0), abs=1e-12)
    upper0 = TruncatedSpec(0.0, "upper", 1)
    assert truncated_mean(upper0) == pytest.approx(-HALF_NORMAL_MEAN, abs=1e-12)
    ex = TruncatedSpec(-0.5244, "upper", 100)
    assert truncated_mean(ex) == pytest.approx(TRUNC_UPPER_EXAMPLE, abs=1e-12)
    assert truncated_mean(ex) == pytest.approx(
        -pdf_exact(-0.5244) / (cdf_quad(-0.5244) * 10.0), abs=1e-12
    )


def test_truncated_sample_means_match_closed_forms():
    # 4-sigma agreement on the (b, side, d) grid
    stream = RngStream(17)
    trials = 200000
    for i, b in enumerate([-2.0, -1.0, 0.0, 1.0]):
        for j, d in enumerate([1, 100, 10000]):
            for k, side in enumerate(("lower", "upper")):
                spec = TruncatedSpec(b, side, d)
                x = sample_truncated(spec, stream.offset(100 * i + 10 * j + k), size=trials)
                se = x.std(ddof=1) / math.sqrt(trials)
                assert abs(x.mean() - truncated_mean(spec)) <= 4.0 * se, (b, d, side)


def test_truncated_mean_perturbation_lipschitz():
    # |m(b + eps) - m(b)| <= 2 eps / sqrt(d) on a wide grid
    for d in (1, 100, 10000):
        for b in np.arange(-6.0, 6.01, 0.5):
            for eps in (1e-3, 1e-2, 0.1):
                for side in ("lower", "upper"):
                    m0 = truncated_mean(TruncatedSpec(b, side, d))
                    m1 = truncated_mean(TruncatedSpec(b + eps, side, d))
                    assert abs(m1 - m0) <= 2.0 * eps / math.sqrt(d)


def test_truncated_untruncated_limit():
    assert truncated_mean(TruncatedSpec(-math.inf, "lower", 4)) == 0.0
    assert truncated_mean(TruncatedSpec(math.inf, "upper", 4)) == 0.0
    x = sample_truncated(TruncatedSpec(-math.inf, "lower", 4), RngStream(19), size=100000)
    assert abs(x.mean()) <= 4.0 * 0.5 / math.sqrt(100000)


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncatedSpec(0.0, "middle", 4)
    with pytest.raises(ValueError):
        TruncatedSpec(0.0, "lower", 0)
    with pytest.raises(ValueError):
        TruncatedSpec(math.inf, "lower", 4)
    with pytest.raises(ValueError):
        TruncatedSpec(-math.inf, "upper", 4)


def test_deep_truncation_exactness():
    # inverse-cdf sampling keeps working far beyond rejection's reach
    spec = TruncatedSpec(8.0, "lower", 1)
    x = sample_truncated(spec, RngStream(23), size=1000)
    assert (x >= 8.0).all()
    assert x.mean() == pytest.approx(truncated_mean(spec), rel=0.01)
