"""Closed-form scalar machinery for the Gaussian geometric coloring.

Everything here is deterministic arithmetic: the standard normal pdf/cdf
pair, the two threshold solvers

    p_C : the unique p in (0, 1/2) with (1-p)^C = p, i.e. the probability
          that optimizes the classical product-coloring union bound at
          clique ratio C = k/ell,
    c_p : the positive threshold with P[Z <= -c_p] = p for Z ~ N(0,1),

the Mills ratio, the gain/loss gap function that makes the density shift
profitable, and the evaluators for the clique-probability upper bounds and
the final union-bound bases.

Accuracy contract: the cdf is evaluated through the complementary error
function (good to a few ulp over |t| <= 12); c_p is -ndtri(p) from
scipy.special (imported on the first quantile asked for; c_{1/2} = 0 asks
for none), within 4 ulp of the true quantile for p in (1e-6, 1/2) and to
a relative 1e-15 for p down to 1e-300; p_C is defined for every finite
C > 1 and found by bisection to adjacent doubles, within 1 ulp of the
root of ln p - C ln(1-p).  The exponential-correction bounds carry
unquantified error factors in their derivation; the evaluators compute the
explicit main terms only and are labeled as such in their outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def std_normal_pdf(t: float) -> float:
    """Density of N(0,1) at t."""
    return math.exp(-0.5 * t * t) / _SQRT_2PI


def std_normal_cdf(t: float) -> float:
    """P[Z <= t] for Z ~ N(0,1), via the complementary error function."""
    return 0.5 * math.erfc(-t / _SQRT_2)


def inv_std_normal_cdf(q: float) -> float:
    """Inverse of std_normal_cdf on (0, 1), by scipy.special.ndtri (imported on first call)."""
    from scipy.special import ndtri

    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    return float(ndtri(q))


def solve_pC(C: float) -> float:
    """The unique p in (0, 1/2) with C = log(p) / log(1-p), for every finite C > 1.

    Equivalently (1-p)^C = p.  As C -> 1+ the solution approaches 1/2; the
    solution leaves (0, 1/2) for C <= 1, which is rejected.
    """
    if not math.isfinite(C) or C <= 1.0:
        raise ValueError(f"clique ratio must exceed 1, got {C}")

    # g(p) = ln p - C ln(1-p) is strictly increasing on (0, 1/2] with
    # g(5e-324) < 0 < g(1/2) = (C-1) ln 2: bisect until the ends are adjacent doubles.
    def g(p: float) -> float:
        return math.log(p) - C * math.log1p(-p)

    lo, hi = 5e-324, 0.5
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return min(lo, hi, key=lambda p: abs(g(p)))


def solve_cp(p: float) -> float:
    """The threshold c_p >= 0 with P[Z <= -c_p] = p, for p in (0, 1/2].

    p = 1/2 is the boundary case and returns exactly 0.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError(f"probability must lie in (0, 1/2], got {p}")
    if p == 0.5:
        return 0.0
    return -inv_std_normal_cdf(p)


def mills_ratio(t: float) -> float:
    """phi(t) / Phi(t).

    For t < 0 the value is sandwiched between |t| and |t| + 1/|t|; for
    t >= 0 the ratio is still well defined but those bounds do not apply.
    """
    return std_normal_pdf(t) / std_normal_cdf(t)


def gain_loss_gap(t: float) -> float:
    """(1-t)^2 log2(1/(1-t)) - t^2 log2(1/t), for t in (0, 1/2].

    Strictly positive on the open interval and zero at both endpoints;
    positivity is what guarantees that lowering the graph density gains
    more on the sparse color than it loses on the dense one.
    """
    if not 0.0 < t <= 0.5:
        raise ValueError(f"argument must lie in (0, 1/2], got {t}")
    return (1.0 - t) ** 2 * math.log2(1.0 / (1.0 - t)) - t * t * math.log2(1.0 / t)


@dataclass(frozen=True)
class RamseyParams:
    """Parameter bundle: avoid red cliques of size ell and blue cliques of size k = ceil(C*ell).

    The ambient dimension is d = D^2 * ell^2, which must be at least k so
    that the triangular sampler is well defined.
    """

    C: float
    ell: int
    D: float

    def __post_init__(self) -> None:
        if self.C <= 1.0:
            raise ValueError(f"clique ratio must exceed 1, got {self.C}")
        if self.ell < 1:
            raise ValueError(f"clique size must be positive, got {self.ell}")
        if self.D < 1.0:
            raise ValueError(f"dimension multiplier must be >= 1, got {self.D}")
        try:
            finite = math.isfinite(self.C * self.ell) and math.isfinite(self.D * self.D * self.ell * self.ell)
        except OverflowError:  # an int ell too large for a float
            finite = False
        if not finite:
            raise ValueError(f"C*ell and D^2*ell^2 must be finite, got C={self.C}, D={self.D}, ell={self.ell}")
        if self.d < self.k:
            raise ValueError(
                f"dimension d={self.d} below blue clique size k={self.k}; "
                "increase D so the triangular sampler applies"
            )

    @property
    def d(self) -> int:
        """Ambient dimension D^2 * ell^2 (rounded up for fractional D)."""
        return math.ceil(self.D * self.D * self.ell * self.ell - 1e-9)

    @property
    def k(self) -> int:
        """Blue clique size ceil(C * ell)."""
        return math.ceil(self.C * self.ell - 1e-9)


@dataclass(frozen=True)
class AnalyticBounds:
    """Solved thresholds and density-shift bookkeeping for a ratio C and multiplier D.

    gain_red = a^3 / (3 p_C^2) is the per-unit-shift improvement on the red
    side, loss_blue = a^3 C / (3 (1-p_C)^2) the blue-side cost; both are
    evaluated at p = p_C (the vanishing-neighborhood limit).  The working
    margin epsilon_margin = (gain_red - loss_blue) / (4D) sits strictly
    inside the available headroom.
    """

    C: float
    D: float
    p_C: float
    c_p: float
    a: float
    gain_red: float
    loss_blue: float
    p_shifted: float
    erdos_base: float
    epsilon_margin: float


def _gain_loss(a: float, p: float, C: float) -> tuple[float, float]:
    """Red gain a^3/(3p^2) and blue loss a^3 C/(3(1-p)^2) per unit density shift at p."""
    return a**3 / (3.0 * p**2), a**3 * C / (3.0 * (1.0 - p) ** 2)


def compute_analytic_bounds(C: float, D: float) -> AnalyticBounds:
    """Solve for p_C, c_p, a = phi(c_p) and fill in the shift bookkeeping."""
    if D < 1.0:
        raise ValueError(f"dimension multiplier must be >= 1, got {D}")
    p_C = solve_pC(C)
    c_p = solve_cp(p_C)
    a = std_normal_pdf(c_p)
    gain_red, loss_blue = _gain_loss(a, p_C, C)
    return AnalyticBounds(
        C=C,
        D=D,
        p_C=p_C,
        c_p=c_p,
        a=a,
        gain_red=gain_red,
        loss_blue=loss_blue,
        p_shifted=p_C + (gain_red + loss_blue) / (2.0 * D),
        erdos_base=p_C**-0.5,
        epsilon_margin=(gain_red - loss_blue) / (4.0 * D),
    )


def clique_log_bound(r: int, d: int, p: float, color: str) -> float:
    """Natural log of the main term of the monochromatic r-clique bound.

    red  : C(r,2) ln p     - (a^3 / (p^3 sqrt(d)))     * C(r,3)
    blue : C(r,2) ln(1-p)  + (a^3 / ((1-p)^3 sqrt(d))) * C(r,3)

    The derivation carries unquantified multiplicative error factors on the
    correction; they are *not* included here (main term only).
    """
    if r < 1:
        raise ValueError(f"clique size must be positive, got {r}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not 0.0 < p < 0.5:
        raise ValueError(f"probability must lie in (0, 1/2), got {p}")
    a = std_normal_pdf(solve_cp(p))
    pairs = r * (r - 1) // 2
    triples = r * (r - 1) * (r - 2) // 6
    if color == "red":
        return pairs * math.log(p) - (a**3 / (p**3 * math.sqrt(d))) * triples
    if color == "blue":
        return pairs * math.log1p(-p) + (a**3 / ((1.0 - p) ** 3 * math.sqrt(d))) * triples
    raise ValueError(f"color must be 'red' or 'blue', got {color!r}")


def union_bases(p_C: float, C: float, eps: float, eps1: float) -> tuple[float, float]:
    """The two per-vertex bases of the union bound over clique positions.

    red base  = (p_C^{-1/2} + eps) * (p_C - eps1)^{1/2}
    blue base = (p_C^{-1/2} + eps) * (1 - p_C - eps1)^{C/2}

    Both are < 1 whenever eps1 > 0 and eps is small enough; at
    eps = eps1 = 0 the red base is exactly 1 and the blue base equals
    (1-p_C)^{C/2} / p_C^{1/2} = 1 by the defining identity of p_C.
    """
    count_base = p_C**-0.5 + eps
    red = count_base * math.sqrt(p_C - eps1)
    blue = count_base * (1.0 - p_C - eps1) ** (C / 2.0)
    return red, blue


def union_bound_report(C: float, ell: int, D: float, eps: float | None = None) -> dict:
    """Evaluate both union-bound bases and the implied lower-bound base.

    The margin eps1 comes from the computed shift bookkeeping; eps is a
    user knob (default eps1/10, well inside eps << eps1).  The report
    flags "margin not established" instead of asserting when D is too
    small for the first-order bookkeeping to be self-consistent: the report
    requires the shifted density to stay within the half-width neighborhood
    of p_C where the gain/loss ordering was evaluated, and the ordering to
    survive re-evaluation at the shifted density itself.  All quantities
    are main terms; second-order factors in the derivation are unmodeled.
    """
    params = RamseyParams(C=C, ell=ell, D=D)
    bounds = compute_analytic_bounds(C, D)
    eps1 = bounds.epsilon_margin
    if eps is None:
        eps = eps1 / 10.0
    elif not eps >= 0.0:
        raise ValueError(f"eps must be at least 0, got eps={eps}")
    red_base, blue_base = union_bases(bounds.p_C, C, eps, eps1)

    # Self-consistency of the first-order shift: the shifted density must
    # stay well inside (0, 1/2) around p_C, and the gain/loss ordering must
    # hold at the shifted density too (not only in the vanishing limit).
    # Only inside the half-width window is the shifted density a probability
    # below 1/2, so the ordering is evaluated there and nowhere else.
    half_width = 0.5 * min(bounds.p_C, 0.5 - bounds.p_C)
    margin_established = bounds.p_shifted - bounds.p_C < half_width and red_base < 1.0 and blue_base < 1.0
    if margin_established:
        a_shift = std_normal_pdf(solve_cp(bounds.p_shifted))
        gain_at_shift, loss_at_shift = _gain_loss(a_shift, bounds.p_shifted, C)
        margin_established = gain_at_shift > loss_at_shift

    improved_base = bounds.p_C**-0.5 + eps
    return {
        "C": C,
        "ell": ell,
        "D": D,
        "d": params.d,
        "k": params.k,
        "p_C": bounds.p_C,
        "c_p": bounds.c_p,
        "a": bounds.a,
        "gain_red": bounds.gain_red,
        "loss_blue": bounds.loss_blue,
        "p_shifted": bounds.p_shifted,
        "eps1": eps1,
        "eps": eps,
        "red_base": red_base,
        "blue_base": blue_base,
        "bases_below_one": red_base < 1.0 and blue_base < 1.0,
        "erdos_base": bounds.erdos_base,
        "improved_base": improved_base,
        "log10_implied_count": ell * math.log10(improved_base),
        "margin_established": margin_established,
        "terms": "main-term",
    }
