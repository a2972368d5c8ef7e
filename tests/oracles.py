"""Independent oracles used to derive expected values in the tests.

These paths intentionally avoid the library's own implementations: the
normal cdf comes from adaptive quadrature of the density (no erf), the
solvers from plain interval bisection, and the deep-tail Mills ratio from
its asymptotic series with an explicit truncation error, and the graph
bit layouts from per-pair loops over the rows.  Frozen constants
in the tests were computed with these functions at 30 decimal digits.
"""

from __future__ import annotations

import mpmath as mp


def cdf_quad(t: float, dps: int = 30) -> float:
    """Standard normal cdf by quadrature of the density."""
    with mp.workdps(dps):
        val = mp.quad(lambda x: mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi), [-mp.inf, t])
        return float(val)


def pdf_exact(t: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.e ** (-mp.mpf(t) ** 2 / 2) / mp.sqrt(2 * mp.pi))


def inv_cdf_bisect(q: float, dps: int = 30) -> float:
    """Inverse normal cdf by bisection against the quadrature cdf."""
    with mp.workdps(dps):
        lo, hi = mp.mpf(-13), mp.mpf(13)
        f = lambda x: mp.quad(lambda y: mp.e ** (-y * y / 2) / mp.sqrt(2 * mp.pi), [-mp.inf, x])
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) < q:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def solve_pC_bisect(C: float, dps: int = 40) -> float:
    """Root of (1-p)^C = p in (0, 1/2) by bisection."""
    with mp.workdps(dps):
        Cm = mp.mpf(C)
        lo, hi = mp.mpf("1e-30"), mp.mpf("0.5")
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - mid) ** Cm - mid > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def mills_asymptotic(t: float) -> tuple[float, float]:
    """Mills ratio for t <= -8 from the tail series; returns (value, error bound).

    Phi(t) = phi(t)/|t| * (1 - 1/t^2 + 3/t^4 - 15/t^6 + 105/t^8 - ...),
    alternating, so truncation error is below the first omitted term.
    """
    assert t <= -8.0
    x = abs(t)
    inv2 = 1.0 / (x * x)
    series = 1.0 - inv2 + 3.0 * inv2**2 - 15.0 * inv2**3 + 105.0 * inv2**4
    next_term = 945.0 * inv2**5
    value = x / series
    return value, value * next_term / (series - next_term)


def log2_exact(x: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.log(mp.mpf(x), 2))


def pack_blue_rows(blue) -> tuple[int, ...]:
    """Blue bitmask rows by a per-pair loop over the upper triangle.

    Bit j of row i is set iff i != j and blue[min(i, j)][max(i, j)] is
    true; the diagonal and the lower triangle are never read.
    """
    n = len(blue)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if blue[i][j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def first_asymmetric_pair(rows) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row-major order, where bit j of row i
    differs from bit i of row j; None for symmetric rows.  A per-pair loop."""
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                return (i, j)
    return None


def relabel_rows(rows, perm) -> tuple[int, ...]:
    """Rows with vertex i renamed perm[i], by a loop over every bit."""
    n = len(rows)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


def inv_cdf_mp(q: float, dps: int = 40) -> float:
    """Inverse normal cdf by bisection against mpmath's ncdf; q may be as small as 1e-300."""
    with mp.workdps(dps):
        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(120):
            mid = (lo + hi) / 2
            if mp.ncdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)
